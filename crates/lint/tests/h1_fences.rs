//! H1 reads the parser's per-fn allocation sites: allocations inside a
//! closure and inside fenced `impl` methods (including one whose
//! signature takes `impl Trait`) must fire at their exact lines.

use ehp_lint::rules::lint_source;
use ehp_lint::Rule;

#[test]
fn h1_fires_in_fenced_closures_and_impl_methods() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/h1_closure_impl.rs"
    );
    let src = std::fs::read_to_string(path).expect("read the H1 fixture");
    let fired: Vec<(Rule, u32)> = lint_source("fixtures/h1_closure_impl.rs", &src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(
        fired,
        vec![
            (Rule::HotPathAlloc, 11),
            (Rule::HotPathAlloc, 23),
            (Rule::HotPathAlloc, 26),
        ],
        "line 32's identical .collect() is outside the fence"
    );
}
