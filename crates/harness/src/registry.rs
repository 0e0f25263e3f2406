//! The experiment registry: every paper artefact the repo reproduces,
//! addressable by a stable id, with each experiment's declared scenario
//! parameters (the S1 schemas `ehp lint` validates specs against).

use ehp_lint::{ExperimentSchema, Finding, ParamKind, ParamSpec};

use crate::experiment::Experiment;
use crate::experiments;

/// Shorthand for an unbounded positive integer parameter.
const fn u64_pos(name: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::U64 {
            min: 1,
            max: u64::MAX,
        },
    }
}

/// Largest `accesses` a memory-trace scenario takes. Replay buckets
/// the whole trace before it replays it (8 B per access at every
/// `jobs`; see `ehp_mem::trace::replay`), so a scenario from outside
/// the program must not size that buffer freely: this cap holds it to
/// 32 MiB.
pub const MAX_TRACE_ACCESSES: u64 = 1 << 22;

/// A memory trace's `accesses` parameter, bounded by
/// [`MAX_TRACE_ACCESSES`].
const fn trace_accesses() -> ParamSpec {
    ParamSpec {
        name: "accesses",
        kind: ParamKind::U64 {
            min: 1,
            max: MAX_TRACE_ACCESSES,
        },
    }
}

/// Shorthand for an unbounded number parameter of at least `min`. A
/// TDP or a checkpoint write time must be positive, so those start at
/// one watt or one second.
const fn num_from(name: &'static str, min: f64) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::Num { min, max: f64::MAX },
    }
}

/// Every registered experiment, in paper order.
static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: CDNA 2 vs CDNA 3 peak ops/clock/CU",
        params: &[],
        run: experiments::table1::run,
    },
    Experiment {
        id: "figure7",
        title: "Figure 7: MI300A IOD interface bandwidths",
        params: &[ParamSpec {
            name: "product",
            kind: ParamKind::EnumStr(&["mi250x", "mi300a", "mi300x", "ehpv4"]),
        }],
        run: experiments::figure7::run,
    },
    Experiment {
        id: "figure12",
        title: "Figure 12: power distributions and thermal maps",
        params: &[num_from("socket_power_w", 1.0)],
        run: experiments::figure12::run,
    },
    Experiment {
        id: "figure13",
        title: "Figure 13: cooperative multi-XCD dispatch flow",
        params: &[u64_pos("workgroups"), u64_pos("workgroup_size")],
        run: experiments::figure13::run,
    },
    Experiment {
        id: "figure14",
        title: "Figure 14: CPU-only vs discrete GPU vs APU data movement",
        params: &[u64_pos("elements")],
        run: experiments::figure14::run,
    },
    Experiment {
        id: "figure15",
        title: "Figure 15: fine-grained CPU/GPU overlap via chunk flags",
        params: &[u64_pos("elements"), u64_pos("chunks")],
        run: experiments::figure15::run,
    },
    Experiment {
        id: "figure16",
        title: "Figure 16: CCD->XCD modular swap (MI300A -> MI300X)",
        params: &[],
        run: experiments::figure16::run,
    },
    Experiment {
        id: "figure17",
        title: "Figure 17: compute/memory partitioning modes",
        params: &[],
        run: experiments::figure17::run,
    },
    Experiment {
        id: "figure18",
        title: "Figure 18: exemplary MI300A/MI300X node architectures",
        params: &[],
        run: experiments::figure18::run,
    },
    Experiment {
        id: "figure19",
        title: "Figure 19: generational uplift over MI250X",
        params: &[],
        run: experiments::figure19::run,
    },
    Experiment {
        id: "figure20",
        title: "Figure 20: HPC speedups of MI300A over MI250X",
        params: &[],
        run: experiments::figure20::run,
    },
    Experiment {
        id: "figure21",
        title: "Figure 21: Llama-2 70B inference latency on MI300X",
        params: &[],
        run: experiments::figure21::run,
    },
    Experiment {
        id: "frontier_node",
        title: "Figure 2: the Frontier node as four conjoined EHPs",
        params: &[],
        run: experiments::frontier_node::run,
    },
    Experiment {
        id: "modular_platform",
        title: "Section VII: modular platform design space + exascale RAS",
        params: &[num_from("checkpoint_write_s", 1.0)],
        run: experiments::modular_platform::run,
    },
    Experiment {
        id: "power_management",
        title: "Section V.D/V.E: power/thermal/DVFS management loop",
        params: &[num_from("socket_power_w", 1.0), num_from("shift_w", 0.0)],
        run: experiments::power_management::run,
    },
    Experiment {
        id: "ehpv3_audit",
        title: "Section III.A: why EHPv3 3D stacking was not productised",
        params: &[],
        run: experiments::ehpv3_audit::run,
    },
    Experiment {
        id: "ehpv4_audit",
        title: "Figure 4: remaining EHPv4 challenges vs MI300A",
        params: &[],
        run: experiments::ehpv4_audit::run,
    },
    Experiment {
        id: "microarch_audit",
        title: "Section IV.B: icache sharing, occupancy, L1 data path",
        params: &[],
        run: experiments::microarch_audit::run,
    },
    Experiment {
        id: "packaging_audit",
        title: "Figures 9/10 + Section V.A: mirroring, TSVs, beachfront",
        params: &[],
        run: experiments::packaging_audit::run,
    },
    Experiment {
        id: "ic_sweep",
        title: "Section IV.C: Infinity Cache / interleave trace sweep",
        params: &[
            ParamSpec {
                name: "ic_mib",
                // 0 disables the cache.
                kind: ParamKind::U64 { min: 0, max: 4096 },
            },
            ParamSpec {
                name: "stack_granule",
                kind: ParamKind::U64 {
                    min: 256,
                    max: 1 << 30,
                },
            },
            ParamSpec {
                name: "channel_granule",
                kind: ParamKind::U64 {
                    min: 128,
                    max: 1 << 30,
                },
            },
            ParamSpec {
                name: "hashed",
                kind: ParamKind::Bool,
            },
            ParamSpec {
                name: "pattern",
                kind: ParamKind::EnumStr(&["sequential", "strided", "random", "chase", "hot"]),
            },
            trace_accesses(),
            u64_pos("footprint_mib"),
            ParamSpec {
                name: "write_fraction",
                kind: ParamKind::Num { min: 0.0, max: 1.0 },
            },
            ParamSpec {
                name: "jobs",
                kind: ParamKind::U64 { min: 1, max: 64 },
            },
        ],
        run: experiments::ic_sweep::run,
    },
    Experiment {
        id: "mem_bank_audit",
        title: "Section IV.C: bank-level channel decomposition audit",
        params: &[
            trace_accesses(),
            ParamSpec {
                name: "jobs",
                kind: ParamKind::U64 { min: 1, max: 64 },
            },
        ],
        run: experiments::mem_bank_audit::run,
    },
    Experiment {
        id: "serve_selftest",
        title: "Serving: deterministic self-test (ok / panic modes)",
        params: &[
            ParamSpec {
                name: "mode",
                kind: ParamKind::EnumStr(&["ok", "panic"]),
            },
            u64_pos("work"),
        ],
        run: experiments::serve_selftest::run,
    },
    Experiment {
        id: "serve_audit",
        title: "Serving: result-cache hit-rate audit (memory store)",
        params: &[ParamSpec {
            name: "entries",
            kind: ParamKind::U64 { min: 1, max: 4096 },
        }],
        run: experiments::serve_audit::run,
    },
];

/// The S1 schema of every registered experiment, in paper order.
#[must_use]
pub fn schemas() -> Vec<ExperimentSchema> {
    REGISTRY
        .iter()
        .map(|e| ExperimentSchema {
            id: e.id,
            params: e.params,
        })
        .collect()
}

/// S1 findings for one scenario spec (`spec_text` holds one spec
/// object or an array of them) against the live registry schemas; empty
/// means it may run. `ehp run` checks each scenario after its overrides
/// and `ehp serve` each request's spec with it, before anything
/// executes.
#[must_use]
pub fn validate_spec(label: &str, spec_text: &str) -> Vec<Finding> {
    ehp_lint::schema::validate_scenario(label, spec_text, &schemas())
}

/// All experiments, in paper order.
#[must_use]
pub fn all() -> &'static [Experiment] {
    REGISTRY
}

/// All experiment ids, in paper order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        let ids = ids();
        for (i, id) in ids.iter().enumerate() {
            assert!(find(id).is_some(), "{id} must resolve");
            assert!(!ids[i + 1..].contains(id), "{id} duplicated");
        }
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn registry_covers_all_paper_artefacts() {
        assert!(ids().len() >= 20);
        for required in ["table1", "figure20", "figure21", "ic_sweep"] {
            assert!(find(required).is_some());
        }
    }

    #[test]
    fn every_enum_and_bool_value_runs_without_panicking() {
        use crate::executor::{run_one, OutcomeStatus};
        use crate::scenario::Scenario;
        use ehp_sim_core::json::Json;

        // serve_selftest's `panic` mode panics on purpose; it exercises
        // the executor's panic isolation.
        let deliberate = |id: &str, v: &Json| id == "serve_selftest" && v.as_str() == Some("panic");
        // Numeric parameters run at their schema minimum; ic_sweep's
        // granules also at their maximum, where a channel granule above
        // the stack granule is an invalid interleave.
        let granule = |id: &str, name: &str| id == "ic_sweep" && name.ends_with("_granule");
        let mut runs = 0;
        for schema in schemas() {
            for p in schema.params {
                let values: Vec<Json> = match p.kind {
                    ParamKind::EnumStr(vals) => vals.iter().map(|&v| Json::from(v)).collect(),
                    ParamKind::Bool => vec![Json::from(false), Json::from(true)],
                    ParamKind::U64 { min, max } if granule(schema.id, p.name) => {
                        vec![Json::from(min), Json::from(max)]
                    }
                    ParamKind::U64 { min, .. } => vec![Json::from(min)],
                    ParamKind::Num { min, .. } => vec![Json::from(min)],
                };
                for v in values.into_iter().filter(|v| !deliberate(schema.id, v)) {
                    let sc = Scenario::default_for(schema.id).with_param(p.name, v.clone());
                    let out = run_one(&sc);
                    let at = format!("{} {}={}", schema.id, p.name, v.to_string_compact());
                    assert_eq!(out.status, OutcomeStatus::Ok, "{at}");
                    // ic_sweep's documented NaN: the report names the
                    // rejected interleave.
                    let invalid = out.report_text.contains("invalid interleave");
                    for (k, m) in &out.metrics {
                        assert!(
                            m.is_finite() || (invalid && m.is_nan()),
                            "{at}: metric {k} = {m}"
                        );
                    }
                    runs += 1;
                }
            }
        }
        assert!(runs >= 12, "only {runs} parameter values ran");
    }

    #[test]
    fn trace_experiments_accept_accesses_up_to_the_cap_only() {
        use crate::executor::{run_one, OutcomeStatus};
        use crate::scenario::Scenario;
        use ehp_sim_core::json::Json;

        for id in ["ic_sweep", "mem_bank_audit"] {
            let findings = |n: u64| {
                let spec = format!(r#"{{"experiment":"{id}","params":{{"accesses":{n}}}}}"#);
                validate_spec("spec", &spec).len()
            };
            assert_eq!(findings(MAX_TRACE_ACCESSES), 0, "{id}");
            assert_eq!(findings(MAX_TRACE_ACCESSES + 1), 1, "{id}");
        }
        // The largest trace a scenario may ask for replays on the
        // bucketed path (jobs 1) and reports finite metrics.
        let sc = Scenario::default_for("ic_sweep")
            .with_param("accesses", Json::from(MAX_TRACE_ACCESSES))
            .with_param("pattern", Json::from("random"));
        let out = run_one(&sc);
        assert_eq!(out.status, OutcomeStatus::Ok);
        assert!(out.metrics.iter().all(|(_, m)| m.is_finite()));
    }
}
