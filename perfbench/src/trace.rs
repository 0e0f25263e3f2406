//! The traced-run span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer: name, start, end, parent span and op id. They stay in
//! memory until the run ends, then go out as Chrome trace-event JSON
//! (Perfetto and `chrome://tracing` open it) plus a self-time table. A
//! disabled recorder never reads the clock, so end-to-end runs carry no
//! tracing cost.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use ehp_sim_core::json::Json;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations, children included (ms).
    pub total_ms: f64,
    /// Sum of span durations minus the time their child spans cover (ms).
    pub self_ms: f64,
}

/// An in-memory span recorder; [`Tracer::off`] records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// A recorder that keeps nothing and never reads the clock.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Totals per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.calls += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Inclusive time (ms) per name of the direct children of every span
    /// named `parent`.
    pub fn child_totals(&self, parent: &str) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == parent) {
                *out.entry(s.name.clone()).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        out
    }

    /// The self-time table, largest self time first.
    pub fn self_time_table(&self) -> String {
        let mut rows: Vec<(String, LayerTotals)> = self.layers().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ms.total_cmp(&a.1.self_ms).then(a.0.cmp(&b.0)));
        let grand: f64 = rows.iter().map(|r| r.1.self_ms).sum();
        let mut text = format!(
            "{:<36} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "calls", "self_ms", "total_ms", "self%"
        );
        for (name, t) in rows {
            text.push_str(&format!(
                "{name:<36} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                t.calls,
                t.self_ms,
                t.total_ms,
                100.0 * t.self_ms / grand.max(f64::MIN_POSITIVE)
            ));
        }
        text
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs).
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id", Json::from(id)), ("op", Json::from(s.op))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::from(p)));
                }
                Json::object([
                    ("name", Json::from(s.name.as_str())),
                    ("ph", Json::from("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    ("args", Json::object(args)),
                ])
            })
            .collect();
        Json::object([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }

    /// Writes `<stem>.trace.json` and `<stem>.selftime.txt` under `dir`.
    pub fn write(&self, dir: &Path, stem: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            self.chrome_json().to_string_compact(),
        )?;
        std::fs::write(
            dir.join(format!("{stem}.selftime.txt")),
            self.self_time_table(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let layers = tr.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ms >= 2.0);
        assert!(outer.total_ms >= inner.total_ms);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
        assert!(tr
            .chrome_json()
            .to_string_compact()
            .contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(tr.layers().is_empty());
    }
}
