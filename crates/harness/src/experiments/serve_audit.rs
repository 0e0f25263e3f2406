//! **Result-cache audit**: a deterministic, filesystem-free check that
//! the serving layer's cache-key discipline holds, runnable (and
//! range-gated by `ehp check`) like any other experiment.
//!
//! Using an in-memory [`ResultCache`], three legs over `entries`
//! synthetic scenarios:
//!
//! 1. **cold** — every lookup misses, every outcome is stored;
//! 2. **repeat** — the identical sweep again: the hit rate must be
//!    exactly 1.0 (this is the property that lets a warm `ehp all`
//!    re-execute nothing);
//! 3. **rebuild** — the same sweep keyed under another build id: the
//!    hit rate must be exactly 0.0 (a rebuilt binary never reads the
//!    entries an older build wrote).
//!
//! A fourth check round-trips each cached outcome through its rendered
//! JSON and compares compact bytes, mirroring the hot-vs-cold
//! byte-identity guarantee of `run_summary.json`.

use ehp_serve::cache::{result_key, ResultCache};
use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

/// The experiment id the synthetic entries are keyed under.
const PROBE_ID: &str = "serve_audit_probe";

/// The build id legs 1 and 2 key under; leg 3 keys under `BUILD + 1`.
/// A constant, never the process's fingerprint, so the audit's numbers
/// do not depend on the binary.
const BUILD: u64 = 1;

fn probe_scenario(i: u64, seed: u64) -> String {
    // Compact, key-sorted — the same canonical form the serving layer
    // hashes for real scenarios.
    Json::object([
        ("experiment", Json::from(PROBE_ID)),
        ("i", Json::from(i)),
        ("seed", Json::from(seed)),
    ])
    .to_string_compact()
}

fn probe_outcome(i: u64, rng: &mut SplitMix64) -> Json {
    Json::object([
        ("i", Json::from(i)),
        ("metric", Json::from(rng.next_u64() & ((1 << 53) - 1))),
        ("status", Json::from("ok")),
    ])
}

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let entries = sc.u64("entries", 16).max(1);
    let seed = sc.effective_seed();
    let mut rng = SplitMix64::new(seed);
    let mut cache = ResultCache::memory();

    let canon: Vec<String> = (0..entries).map(|i| probe_scenario(i, seed)).collect();

    // Leg 1: cold — misses only, then store.
    let mut stored = Vec::new();
    for (i, c) in canon.iter().enumerate() {
        let key = result_key(BUILD, PROBE_ID, c);
        assert!(cache.lookup(key).is_none(), "cold leg must miss");
        let outcome = probe_outcome(i as u64, &mut rng);
        cache.store(key, &outcome);
        stored.push(outcome);
    }
    let cold = cache.counters();

    // Leg 2: repeat — the identical sweep must hit every time, and the
    // cached bytes must round-trip identically.
    let (mut repeat_hits, mut identical) = (0u64, 0u64);
    for (i, c) in canon.iter().enumerate() {
        let key = result_key(BUILD, PROBE_ID, c);
        if let Some(outcome) = cache.lookup(key) {
            repeat_hits += 1;
            let rendered = outcome.to_string_compact();
            let reparsed = Json::parse(&rendered).expect("cache entry re-parses");
            if rendered == stored[i].to_string_compact() && reparsed.to_string_compact() == rendered
            {
                identical += 1;
            }
        }
    }

    // Leg 3: keys from another build — every lookup must miss.
    let rebuilt_hits = canon
        .iter()
        .filter(|c| cache.lookup(result_key(BUILD + 1, PROBE_ID, c)).is_some())
        .count();

    let n = entries as f64;
    let repeat_hit_rate = repeat_hits as f64 / n;
    let rebuild_hit_rate = rebuilt_hits as f64 / n;
    let summary_identical = identical as f64 / n;

    let mut rep = Report::new(&sc.name);
    rep.section("Result-cache audit (memory store)");
    rep.kv("entries", entries);
    rep.kv("cold misses", cold.misses);
    rep.kv("repeat hit rate", repeat_hit_rate);
    rep.kv("rebuild hit rate", rebuild_hit_rate);
    rep.kv("byte-identical round trips", identical);

    let mut res = ExperimentResult::new(rep);
    res.metric("entries", n);
    res.metric("repeat_hit_rate", repeat_hit_rate);
    res.metric("rebuild_hit_rate", rebuild_hit_rate);
    res.metric("summary_identical", summary_identical);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_rates_are_exact() {
        let mut sc = Scenario::default_for("serve_audit");
        sc.seed = Some(3);
        let r = run(&sc);
        assert_eq!(r.metrics["repeat_hit_rate"], 1.0);
        assert_eq!(r.metrics["rebuild_hit_rate"], 0.0);
        assert_eq!(r.metrics["summary_identical"], 1.0);
        assert_eq!(r.metrics["entries"], 16.0);
    }
}
