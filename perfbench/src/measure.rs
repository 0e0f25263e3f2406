//! Closed-loop timing, latency statistics, memory readings and the
//! result line every run ends with.

use std::time::Instant;

use ehp_sim_core::json::Json;

/// Latencies and failure counts of one measured loop.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per-op latency (ms), in the order the ops ran.
    pub lat_ms: Vec<f64>,
    /// Ops that failed (panic, non-OK outcome, I/O error, wrong
    /// acceptance or rejection, failed output check).
    pub failed: u64,
    /// Wall time from the first op's start to the last op's end (s).
    pub wall_s: f64,
}

impl Samples {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    /// Median op latency (ms).
    pub fn p50(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// Completed (non-failed) ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// Runs `op` back to back (one client, closed loop) until `seconds`
/// have passed; `op(i)` returns whether op `i` succeeded.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> bool) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    while s.lat_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let ok = op(s.attempted());
        s.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.failed += u64::from(!ok);
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The latency at the highest percentile that still has at least ten
/// samples beyond it: `(value, percentile, samples)`. With ten or fewer
/// samples it is the maximum.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(f64::NAN), 100.0, n);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// Peak resident set (MiB) of process `pid` (`"self"` for this one),
/// from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the result line plus human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its check. A failed op whose output was
    /// still the right one (a scenario that panics wherever it runs)
    /// counts in `failed` only.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The end-to-end metrics of a measured loop. `setup_s` holds every
    /// set-up repetition; its median is reported.
    pub fn end_to_end(&mut self, setup_s: &[f64], s: &Samples, rss_mib: f64) {
        let (tail_ms, pct, n) = tail(&s.lat_ms);
        self.attempted = s.attempted();
        self.failed = s.failed;
        self.metric("setup_s", median(setup_s), "s");
        self.metric("op_ms_p50", s.p50(), "ms");
        self.metric("op_ms_tail", tail_ms, "ms");
        self.metric("ops_per_s", s.ops_per_s(), "1/s");
        self.metric("peak_rss_mib", rss_mib, "MiB");
        self.note(format!(
            "op_ms_tail is p{pct:.1} of {n} ops; failed_frac = {}/{} = {:.6}; set-up runs: {setup_s:?} s",
            s.failed,
            s.attempted(),
            s.failed as f64 / s.attempted().max(1) as f64
        ));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::object([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct, n) = tail(&v);
        assert_eq!((t, n), (90.0, 100));
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        assert_eq!(tail(&[3.0, 1.0]).0, 3.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
