//! The per-layer metrics of a traced run.
//!
//! Every traced run reports the same list, whatever the workload; a
//! layer the workload does not reach reads 0. Times are milliseconds
//! per op, averaged over the traced ops, taken from the spans named
//! after the metric (`thermal.solve.ms` sums the `thermal.solve` spans).

use crate::engines::MemTally;
use crate::measure::Report;
use crate::trace::Tracer;

/// Counts the engine probes and the serving replay gather.
#[derive(Debug, Default)]
pub struct Counts {
    /// Traced ops the span times are averaged over.
    pub ops: u64,
    /// `ThermalSolver::solve` calls and the grid cells they solved.
    pub thermal_calls: u64,
    pub thermal_cells: u64,
    /// DVFS-loop iterations (`OperatingPoint.iterations`).
    pub powertherm_iterations: u64,
    pub mem: MemTally,
    /// Scenario-level result-cache hits and lookups.
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Requests rejected by schema validation.
    pub rejected: u64,
    /// The daemon's own median request time, and the client's (ms).
    pub server_p50_ms: f64,
    pub client_p50_ms: f64,
    /// Median op latency with spans off and on, same ops (ms).
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
}

/// Span names reported as `<name>.ms` per op, besides the
/// `harness.exp.<id>` ones.
const TIMED: &[&str] = &[
    "harness.resolve",
    "harness.summary",
    "harness.check",
    "thermal.solve",
    "core.powertherm.converge",
    "core.apu.new",
    "mem.new",
    "mem.bucket",
    "mem.replay_sharded",
    "mem.replay_sequential",
    "serve.validate",
    "serve.parse",
    "serve.key",
    "serve.cache.lookup",
    "serve.cache.store",
    "serve.codec",
    "serve.frame",
    "serve.exec",
];

/// Span names reported as `<name>_ms` per op (the replay-path probe).
const PROBES: &[&str] = &[
    "mem.replay.jobs1",
    "mem.replay.jobs2",
    "mem.replay.sharded_jobs1",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Appends every per-layer metric to `report`.
pub fn report(report: &mut Report, tr: &Tracer, c: &Counts) {
    let layers = tr.layers();
    let ops = c.ops.max(1) as f64;
    let per_op = |name: &str| layers.get(name).map_or(0.0, |t| t.total_ms) / ops;

    for id in ehp_harness::registry::ids() {
        let name = format!("harness.exp.{id}");
        report.metric(format!("{name}.ms"), per_op(&name), "ms");
    }
    for name in TIMED {
        report.metric(format!("{name}.ms"), per_op(name), "ms");
    }
    for name in PROBES {
        report.metric(format!("{name}_ms"), per_op(name), "ms");
    }

    let thermal_ms = layers.get("thermal.solve").map_or(0.0, |t| t.total_ms);
    report.metric("thermal.solve.calls", c.thermal_calls as f64 / ops, "count");
    report.metric(
        "thermal.solve.ms_per_kcell",
        ratio(thermal_ms, c.thermal_cells as f64 / 1e3),
        "ms",
    );
    report.metric(
        "core.powertherm.iterations",
        c.powertherm_iterations as f64 / ops,
        "count",
    );

    let m = &c.mem;
    let replay_ms: f64 = ["mem.bucket", "mem.replay_sharded", "mem.replay_sequential"]
        .iter()
        .map(|n| layers.get(*n).map_or(0.0, |t| t.total_ms))
        .sum();
    report.metric("mem.requests", m.requests as f64 / ops, "count");
    report.metric(
        "mem.requests_per_s",
        ratio(m.requests as f64, replay_ms / 1e3),
        "1/s",
    );
    report.metric("mem.reads", m.reads as f64 / ops, "count");
    report.metric("mem.writes", m.writes as f64 / ops, "count");
    report.metric("mem.bytes_served", m.bytes as f64 / ops, "B");
    report.metric(
        "mem.icache.hit_frac",
        ratio(m.icache_hits as f64, m.icache_lookups as f64),
        "frac",
    );
    report.metric(
        "mem.row_hit_frac",
        ratio(m.row_hits as f64, m.row_accesses as f64),
        "frac",
    );
    report.metric("mem.refreshes", m.refreshes as f64 / ops, "count");

    // mem_bank_audit: construction vs replay vs the rest of the
    // experiment (bare-channel streams, coverage scan, reporting).
    let audit = tr.child_totals("mem_bank_audit");
    let audit_new = audit.get("mem.new").copied().unwrap_or(0.0) / ops;
    let audit_replay = ["mem.bucket", "mem.replay_sharded", "mem.replay_sequential"]
        .iter()
        .map(|n| audit.get(*n).copied().unwrap_or(0.0))
        .sum::<f64>()
        / ops;
    let audit_exp = per_op("harness.exp.mem_bank_audit");
    report.metric("mem.bank_audit.new_ms", audit_new, "ms");
    report.metric("mem.bank_audit.replay_ms", audit_replay, "ms");
    report.metric(
        "mem.bank_audit.other_ms",
        if audit_exp > 0.0 {
            audit_exp - audit_new - audit_replay
        } else {
            0.0
        },
        "ms",
    );

    report.metric(
        "serve.cache.hit_frac",
        ratio(c.cache_hits as f64, c.cache_lookups as f64),
        "frac",
    );
    report.metric("serve.cache.lookups", c.cache_lookups as f64, "count");
    report.metric("serve.rejected", c.rejected as f64, "count");
    report.metric("serve.server_ms_p50", c.server_p50_ms, "ms");
    report.metric(
        "serve.transport_ms_p50",
        if c.client_p50_ms > 0.0 {
            c.client_p50_ms - c.server_p50_ms
        } else {
            0.0
        },
        "ms",
    );
    report.metric(
        "trace.overhead_frac",
        ratio(c.traced_p50_ms, c.untraced_p50_ms) - 1.0,
        "frac",
    );

    let exp_sum = layers
        .iter()
        .filter(|(k, _)| k.starts_with("harness.exp."))
        .fold(0.0, |sum, (_, t)| sum + t.total_ms)
        / ops;
    report.note(format!(
        "traced ops {}: harness.exp.* sum {exp_sum:.3} ms/op; op p50 untraced {:.3} ms, traced {:.3} ms; \
         thermal.solve + core.powertherm.converge {:.3} ms/op",
        c.ops,
        c.untraced_p50_ms,
        c.traced_p50_ms,
        per_op("thermal.solve") + per_op("core.powertherm.converge"),
    ));
}

/// The names and units `report` emits, in order (for the benchmark
/// manifest and its test).
#[cfg(test)]
pub fn names() -> std::collections::BTreeMap<String, &'static str> {
    let mut r = Report::default();
    report(&mut r, &Tracer::off(), &Counts::default());
    r.metrics.into_iter().map(|m| (m.name, m.unit)).collect()
}

#[cfg(test)]
mod tests {
    use ehp_sim_core::json::Json;

    fn load(path: &str) -> Json {
        let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("manifest readable");
        Json::parse(&text).expect("manifest is JSON")
    }

    #[test]
    fn manifest_lists_exactly_the_reported_per_layer_metrics() {
        let bench = load("../BENCHMARK.json");
        let listed: std::collections::BTreeMap<String, String> = bench
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let reported: std::collections::BTreeMap<String, String> = super::names()
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
        assert_eq!(listed, reported);
    }

    #[test]
    fn every_per_layer_metric_has_a_prediction() {
        let predicted: Vec<String> = load("workloads.json")
            .get("predictions")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .flat_map(|p| p.get("per_layer").and_then(Json::as_arr).unwrap().to_vec())
            .map(|n| n.as_str().unwrap().to_string())
            .collect();
        for name in super::names().keys() {
            let generic = name.starts_with("harness.exp.")
                && predicted.iter().any(|p| p == "harness.exp.<id>.ms");
            assert!(
                generic || predicted.contains(name),
                "{name} has no prediction"
            );
        }
    }
}
