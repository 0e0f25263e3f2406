//! Known-bad fixture for H1 (hot-path-alloc) through the parser's fn
//! items: the `.collect()` in a closure on line 11, the `Box::new` in a
//! fenced `impl` method on line 23, and the `format!` in a fenced method
//! taking `impl Trait` on line 26 must fire; the identical `.collect()`
//! on line 32, outside any fence, must not.

fn hot(xs: &[u64]) -> u64 {
    // lint:hot-path
    xs.iter()
        .map(|x| {
            let parts: Vec<u64> = (0..*x).collect();
            parts.len() as u64
        })
        .sum()
    // lint:hot-path-end
}

struct Sink;

impl Sink {
    // lint:hot-path
    fn boxed(&self, x: u64) -> Box<u64> {
        Box::new(x)
    }
    fn label(&self, name: impl AsRef<str>) -> String {
        format!("{}", name.as_ref())
    }
    // lint:hot-path-end
}

fn cold(xs: &[u64]) -> Vec<u64> {
    xs.iter().copied().collect()
}
