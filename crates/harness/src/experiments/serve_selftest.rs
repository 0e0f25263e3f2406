//! **Serving self-test**: a tiny experiment whose only purpose is to
//! exercise the serving layer on demand. Two modes:
//!
//! * `ok` — deterministic checksum work; the happy path.
//! * `panic` — panics unconditionally; the executor's panic isolation
//!   turns it into a `Panicked` outcome, which the result cache never
//!   stores.
//!
//! The checksum depends only on the scenario seed and the `work`
//! parameter, so a cached and a computed run of the same scenario are
//! byte-identical in the summary.

use ehp_sim_core::rng::SplitMix64;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mode = sc.str("mode", "ok");
    let work = sc.u64("work", 64);

    if mode == "panic" {
        panic!("serve_selftest: deliberate panic (mode=panic)");
    }

    let mut rng = SplitMix64::new(sc.effective_seed() ^ work);
    let mut checksum = 0u64;
    for _ in 0..work {
        checksum = checksum.wrapping_add(rng.next_u64());
    }
    // 53-bit mask so the metric survives the f64-backed summary exactly.
    let checksum = checksum & ((1 << 53) - 1);

    let mut rep = Report::new(&sc.name);
    rep.section("Serving self-test");
    rep.kv("mode", mode);
    rep.kv("work", work);
    rep.kv("checksum", checksum);

    let mut res = ExperimentResult::new(rep);
    res.metric("checksum", checksum as f64);
    res.metric("work", work as f64);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_seed_deterministic() {
        let mut sc = Scenario::default_for("serve_selftest");
        sc.seed = Some(7);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a.metrics["checksum"], b.metrics["checksum"]);
        sc.seed = Some(8);
        assert_ne!(run(&sc).metrics["checksum"], a.metrics["checksum"]);
    }

    #[test]
    #[should_panic(expected = "deliberate panic")]
    fn panic_mode_panics() {
        let sc = Scenario::default_for("serve_selftest").with_param("mode", "panic");
        let _ = run(&sc);
    }
}
