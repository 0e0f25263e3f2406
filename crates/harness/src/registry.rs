//! The experiment registry: every paper artefact the repo reproduces,
//! addressable by a stable id, with each experiment's declared scenario
//! parameters (the S1 schemas `ehp lint` validates specs against).

use ehp_lint::{ExperimentSchema, ParamKind, ParamSpec};

use crate::experiment::{Experiment, FnExperiment};
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

/// Shorthand for a non-negative number parameter.
const fn num_pos(name: &'static str) -> ParamSpec {
    ParamSpec {
        name,
        kind: ParamKind::Num {
            min: 0.0,
            max: f64::MAX,
        },
    }
}

/// Every registered experiment, in paper order.
static REGISTRY: &[FnExperiment] = &[
    FnExperiment {
        id: "table1",
        title: "Table 1: CDNA 2 vs CDNA 3 peak ops/clock/CU",
        params: &[],
        salt: 0,
        runner: experiments::table1::run,
    },
    FnExperiment {
        id: "figure7",
        title: "Figure 7: MI300A IOD interface bandwidths",
        params: &[ParamSpec {
            name: "product",
            kind: ParamKind::EnumStr(&["mi250x", "mi300a", "mi300x", "ehpv4"]),
        }],
        // Salt 1: the timed transfers start from the product's own XCD
        // and CCD (EHPv4 no longer panics; GPU-only products drop the
        // CCD row).
        salt: 1,
        runner: experiments::figure7::run,
    },
    FnExperiment {
        id: "figure12",
        title: "Figure 12: power distributions and thermal maps",
        params: &[num_pos("socket_power_w")],
        // Salt 2: the red-black SOR thermal solver (DESIGN.md §17)
        // moves every temperature and adds `thermal_error_bound_c`
        // (salt 1 added `gpu_minus_memory_max_c`).
        salt: 2,
        runner: experiments::figure12::run,
    },
    FnExperiment {
        id: "figure13",
        title: "Figure 13: cooperative multi-XCD dispatch flow",
        params: &[u64_pos("workgroups"), u64_pos("workgroup_size")],
        salt: 0,
        runner: experiments::figure13::run,
    },
    FnExperiment {
        id: "figure14",
        title: "Figure 14: CPU-only vs discrete GPU vs APU data movement",
        params: &[u64_pos("elements")],
        salt: 0,
        runner: experiments::figure14::run,
    },
    FnExperiment {
        id: "figure15",
        title: "Figure 15: fine-grained CPU/GPU overlap via chunk flags",
        params: &[u64_pos("elements"), u64_pos("chunks")],
        salt: 0,
        runner: experiments::figure15::run,
    },
    FnExperiment {
        id: "figure16",
        title: "Figure 16: CCD->XCD modular swap (MI300A -> MI300X)",
        params: &[],
        salt: 0,
        runner: experiments::figure16::run,
    },
    FnExperiment {
        id: "figure17",
        title: "Figure 17: compute/memory partitioning modes",
        params: &[],
        salt: 0,
        runner: experiments::figure17::run,
    },
    FnExperiment {
        id: "figure18",
        title: "Figure 18: exemplary MI300A/MI300X node architectures",
        params: &[],
        salt: 0,
        runner: experiments::figure18::run,
    },
    FnExperiment {
        id: "figure19",
        title: "Figure 19: generational uplift over MI250X",
        params: &[],
        salt: 0,
        runner: experiments::figure19::run,
    },
    FnExperiment {
        id: "figure20",
        title: "Figure 20: HPC speedups of MI300A over MI250X",
        params: &[],
        salt: 0,
        runner: experiments::figure20::run,
    },
    FnExperiment {
        id: "figure21",
        title: "Figure 21: Llama-2 70B inference latency on MI300X",
        params: &[],
        salt: 0,
        runner: experiments::figure21::run,
    },
    FnExperiment {
        id: "frontier_node",
        title: "Figure 2: the Frontier node as four conjoined EHPs",
        params: &[],
        salt: 0,
        runner: experiments::frontier_node::run,
    },
    FnExperiment {
        id: "modular_platform",
        title: "Section VII: modular platform design space + exascale RAS",
        params: &[num_pos("checkpoint_write_s")],
        salt: 0,
        runner: experiments::modular_platform::run,
    },
    FnExperiment {
        id: "power_management",
        title: "Section V.D/V.E: power/thermal/DVFS management loop",
        params: &[num_pos("socket_power_w"), num_pos("shift_w")],
        // Salt 1: the red-black SOR thermal solver (DESIGN.md §17)
        // moves the DVFS loop's peaks and adds `thermal_error_bound_c`.
        salt: 1,
        runner: experiments::power_management::run,
    },
    FnExperiment {
        id: "ehpv3_audit",
        title: "Section III.A: why EHPv3 3D stacking was not productised",
        params: &[],
        salt: 0,
        runner: experiments::ehpv3_audit::run,
    },
    FnExperiment {
        id: "ehpv4_audit",
        title: "Figure 4: remaining EHPv4 challenges vs MI300A",
        params: &[],
        salt: 0,
        runner: experiments::ehpv4_audit::run,
    },
    FnExperiment {
        id: "microarch_audit",
        title: "Section IV.B: icache sharing, occupancy, L1 data path",
        params: &[],
        salt: 0,
        runner: experiments::microarch_audit::run,
    },
    FnExperiment {
        id: "packaging_audit",
        title: "Figures 9/10 + Section V.A: mirroring, TSVs, beachfront",
        params: &[],
        salt: 0,
        runner: experiments::packaging_audit::run,
    },
    FnExperiment {
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
            u64_pos("accesses"),
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
        // Salt 2: the decorrelated bank interleave (DESIGN.md §14)
        // spreads traffic over all 16 banks per channel, moving every
        // modeled bandwidth/latency figure (salt 1 was the bank-level
        // channel decomposition of DESIGN.md §13).
        salt: 2,
        runner: experiments::ic_sweep::run,
    },
    FnExperiment {
        id: "mem_bank_audit",
        title: "Section IV.C: bank-level channel decomposition audit",
        params: &[
            u64_pos("accesses"),
            ParamSpec {
                name: "jobs",
                kind: ParamKind::U64 { min: 1, max: 64 },
            },
        ],
        // Salt 1: the decorrelated interleave (DESIGN.md §14) re-aims
        // the pinned single-bank stream and adds the gated
        // `bank_coverage_min` metric.
        salt: 1,
        runner: experiments::mem_bank_audit::run,
    },
    FnExperiment {
        id: "serve_selftest",
        title: "Serving: deterministic self-test (ok / panic / sleep modes)",
        params: &[
            ParamSpec {
                name: "mode",
                kind: ParamKind::EnumStr(&["ok", "panic", "sleep"]),
            },
            u64_pos("sleep_ms"),
            u64_pos("work"),
        ],
        salt: 0,
        runner: experiments::serve_selftest::run,
    },
    FnExperiment {
        id: "serve_audit",
        title: "Serving: result-cache hit-rate audit (memory store)",
        params: &[ParamSpec {
            name: "entries",
            kind: ParamKind::U64 { min: 1, max: 4096 },
        }],
        salt: 0,
        runner: experiments::serve_audit::run,
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

/// All experiments, in paper order.
#[must_use]
pub fn all() -> &'static [FnExperiment] {
    REGISTRY
}

/// All experiment ids, in paper order.
#[must_use]
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.id == id)
        .map(|e| e as &dyn Experiment)
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

        // serve_selftest's `panic` and `sleep` modes panic and stall on
        // purpose; they exercise the serving layer's isolation.
        let deliberate = |id: &str, v: &Json| {
            id == "serve_selftest" && matches!(v.as_str(), Some("panic" | "sleep"))
        };
        let mut runs = 0;
        for schema in schemas() {
            for p in schema.params {
                let values: Vec<Json> = match p.kind {
                    ParamKind::EnumStr(vals) => vals.iter().map(|&v| Json::from(v)).collect(),
                    ParamKind::Bool => vec![Json::from(false), Json::from(true)],
                    ParamKind::U64 { .. } | ParamKind::Num { .. } => continue,
                };
                for v in values.into_iter().filter(|v| !deliberate(schema.id, v)) {
                    let sc = Scenario::default_for(schema.id).with_param(p.name, v.clone());
                    let out = run_one(&sc);
                    let at = format!("{} {}={}", schema.id, p.name, v.to_string_compact());
                    assert_eq!(out.status, OutcomeStatus::Ok, "{at}");
                    for (k, m) in &out.metrics {
                        assert!(m.is_finite(), "{at}: metric {k} = {m}");
                    }
                    runs += 1;
                }
            }
        }
        assert!(runs >= 12, "only {runs} enum/bool values ran");
    }
}
