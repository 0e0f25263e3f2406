//! The harness side of the serving layer (DESIGN.md §12): glue between
//! the experiment registry/executor and the traffic machinery in
//! `ehp-serve`.
//!
//! Two entry points, one per `ehp` mode:
//!
//! * [`run_batch_served`] — the cached batch path behind
//!   `ehp run`/`ehp all`. Scenarios are seed-resolved, keyed
//!   ([`scenario_key`]), looked up in the result cache, and only the
//!   misses execute, on the in-process batch executor. The merged
//!   [`BatchResult`] is byte-identical to what a plain `run_batch`
//!   produces: cache hits replay the exact outcome fields, and an entry
//!   that does not decode to the scenario asked for is recomputed.
//! * [`serve_loop`] — the `ehp serve` daemon: scenario-spec requests
//!   validated against the registry's S1 schemas
//!   ([`registry::validate_spec`]), batches run through
//!   [`run_batch_served`], per-scenario summaries streamed back, cache
//!   traffic folded into the server's stats.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ehp_serve::cache::{build_fingerprint, result_key, CacheCounters, ResultCache};
use ehp_serve::server::{self, Handler};
use ehp_serve::stats::ServeStats;
use ehp_sim_core::json::Json;

use crate::executor::{resolve_seeds, run_batch, BatchConfig, BatchResult, Outcome, OutcomeStatus};
use crate::registry;
use crate::scenario::{Scenario, ScenarioSpec};

/// Where the on-disk result cache lives: `EHP_RESULT_CACHE_DIR`, or
/// `target/result-cache` relative to the working directory.
#[must_use]
pub fn default_cache_dir() -> PathBuf {
    match std::env::var_os("EHP_RESULT_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/result-cache"),
    }
}

/// Knobs for the served batch path.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// In-process worker threads for the cache misses.
    pub jobs: usize,
    /// Base seed for implicit scenario seeds.
    pub base_seed: u64,
    /// Stream per-scenario progress lines to stderr.
    pub progress: bool,
    /// Consult/populate the result cache.
    pub use_cache: bool,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig {
            jobs: 1,
            base_seed: 0,
            progress: false,
            use_cache: true,
            cache_dir: default_cache_dir(),
        }
    }
}

/// A served batch: the merged result plus this batch's traffic.
#[derive(Debug)]
pub struct ServedBatch {
    /// Outcomes in input order, summary byte-identical to `run_batch`.
    pub result: BatchResult,
    /// Cache traffic (hits are *usable* hits — an entry that fails to
    /// decode counts as a miss, because it was recomputed).
    pub cache: CacheCounters,
}

impl ServedBatch {
    /// The `cache_stats.json` sidecar body.
    #[must_use]
    pub fn traffic_json(&self) -> Json {
        Json::object([("cache", self.cache.to_json())])
    }
}

/// The result-cache key for one **seed-resolved** scenario under the
/// running build. Panics if [`build_fingerprint`] is unreadable, where
/// [`run_batch_served`] runs uncached instead.
#[must_use]
pub fn scenario_key(sc: &Scenario) -> u64 {
    let build = build_fingerprint().expect("the running executable has readable metadata");
    key_under(build, sc)
}

fn key_under(build: u64, sc: &Scenario) -> u64 {
    result_key(build, &sc.experiment, &sc.to_json().to_string_compact())
}

/// Runs a batch through the result cache; see the module docs for the
/// merge guarantees.
#[must_use]
pub fn run_batch_served(scenarios: &[Scenario], cfg: &ServingConfig) -> ServedBatch {
    let start = Instant::now();
    let resolved = resolve_seeds(scenarios, cfg.base_seed);
    // No keys without a cache; no cache without a build to key it by.
    let build = cfg.use_cache.then(build_fingerprint).flatten();
    let keys: Vec<u64> = match build {
        Some(build) => resolved.iter().map(|sc| key_under(build, sc)).collect(),
        None => Vec::new(),
    };

    let mut cache = build.map(|_| ResultCache::disk(&cfg.cache_dir));
    let mut traffic = CacheCounters::default();
    let mut slots: Vec<Option<Outcome>> = resolved.iter().map(|_| None).collect();
    let mut to_run: Vec<usize> = Vec::new();

    for (i, sc) in resolved.iter().enumerate() {
        let hit = cache.as_mut().and_then(|c| {
            let t = Instant::now();
            let mut out = c.lookup(keys[i]).and_then(|j| Outcome::from_json(&j))?;
            // Key collisions and tampered entries are theoretical, but
            // the guarantee is "byte-identical or recomputed", so the
            // decoded scenario must be exactly what we asked for.
            if out.scenario != *sc {
                return None;
            }
            out.wall = t.elapsed();
            Some(out)
        });
        match hit {
            Some(out) => {
                traffic.hits += 1;
                if cfg.progress {
                    eprintln!("[cache] {}: hit", out.scenario.name);
                }
                slots[i] = Some(out);
            }
            None => {
                // A disabled cache records no traffic at all.
                if cache.is_some() {
                    traffic.misses += 1;
                }
                to_run.push(i);
            }
        }
    }

    if !to_run.is_empty() {
        let subset: Vec<Scenario> = to_run.iter().map(|&i| resolved[i].clone()).collect();
        // Seeds are already resolved, so base_seed is inert here.
        let computed = run_batch(
            &subset,
            &BatchConfig {
                jobs: cfg.jobs,
                base_seed: cfg.base_seed,
                progress: cfg.progress,
            },
        )
        .outcomes;
        for (&slot, out) in to_run.iter().zip(computed) {
            if let Some(c) = cache.as_mut() {
                // Only completed runs are cached: panics and unknown
                // experiments stay uncached so a fixed experiment (or a
                // registry addition) re-executes instead of replaying
                // the failure.
                if out.status == OutcomeStatus::Ok && c.store(keys[slot], &out.to_json()) {
                    traffic.stores += 1;
                }
            }
            slots[slot] = Some(out);
        }
    }

    let outcomes: Vec<Outcome> = slots
        .into_iter()
        .map(|s| s.expect("every scenario resolved from cache or executed"))
        .collect();
    ServedBatch {
        result: BatchResult {
            outcomes,
            wall: start.elapsed(),
        },
        cache: traffic,
    }
}

/// The `ehp serve` request handler: validates scenario specs against
/// the registry's S1 schemas, runs them through [`run_batch_served`],
/// and streams one summary frame per scenario before the final reply.
struct RunHandler {
    base: ServingConfig,
}

impl RunHandler {
    fn error(message: impl Into<String>, findings: Vec<Json>) -> Json {
        let mut fields = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::from(message.into())),
        ];
        if !findings.is_empty() {
            fields.push(("findings", Json::Arr(findings)));
        }
        Json::object(fields)
    }
}

impl Handler for RunHandler {
    fn handle(
        &mut self,
        request: &Json,
        stats: &mut ServeStats,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> Json {
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        if op != "run" {
            stats.rejected += 1;
            return RunHandler::error(
                format!("unknown op {op:?} (try run/stats/ping/shutdown)"),
                Vec::new(),
            );
        }
        let Some(spec) = request.get("spec") else {
            stats.rejected += 1;
            return RunHandler::error("run request needs a `spec` field", Vec::new());
        };

        // Validate the spec exactly as `ehp lint` (S1) validates spec
        // files, against the live registry schemas.
        let spec_text = spec.to_string_compact();
        let findings = registry::validate_spec("request", &spec_text);
        if !findings.is_empty() {
            stats.rejected += 1;
            let msgs = findings
                .iter()
                .map(|f| Json::from(f.message.as_str()))
                .collect();
            return RunHandler::error("spec failed schema validation", msgs);
        }
        let specs = match ScenarioSpec::parse_file(&spec_text) {
            Ok(s) => s,
            Err(e) => {
                stats.rejected += 1;
                return RunHandler::error(format!("spec does not parse: {e}"), Vec::new());
            }
        };
        let scenarios: Vec<Scenario> = specs.iter().flat_map(ScenarioSpec::expand).collect();

        let mut cfg = self.base.clone();
        if let Some(seed) = request.get("seed").and_then(Json::as_u64) {
            cfg.base_seed = seed;
        }
        if request.get("no_cache").and_then(Json::as_bool) == Some(true) {
            cfg.use_cache = false;
        }

        let served = run_batch_served(&scenarios, &cfg);
        for out in &served.result.outcomes {
            let _ = emit(&Json::object([
                ("event", Json::from("scenario")),
                ("name", Json::from(out.scenario.name.as_str())),
                ("status", Json::from(out.status.brief())),
                (
                    "metrics",
                    Json::Obj(
                        out.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        stats.scenarios += served.result.outcomes.len() as u64;
        stats.add_cache(served.cache);
        Json::object([
            ("ok", Json::Bool(true)),
            ("total", Json::from(served.result.outcomes.len())),
            ("ok_count", Json::from(served.result.ok_count())),
            ("cache", served.cache.to_json()),
        ])
    }
}

/// The `ehp serve` daemon body: serve on `socket` until a `shutdown`
/// request; returns the process exit code.
#[must_use]
pub fn serve_loop(socket: &Path, base: ServingConfig) -> i32 {
    eprintln!("ehp serve: listening on {}", socket.display());
    match server::serve(socket, &mut RunHandler { base }) {
        Ok(stats) => {
            eprintln!(
                "ehp serve: shut down after {} requests ({} scenarios)",
                stats.requests, stats.scenarios
            );
            0
        }
        Err(e) => {
            eprintln!("ehp serve: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selftest(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                let mut sc = Scenario::default_for("serve_selftest");
                sc.name = format!("st{i:02}");
                sc
            })
            .collect()
    }

    fn memoryless_cfg() -> ServingConfig {
        ServingConfig {
            use_cache: false,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn served_batch_without_cache_matches_plain_run_batch() {
        let scenarios = selftest(5);
        let plain = run_batch(&scenarios, &BatchConfig::default());
        let served = run_batch_served(&scenarios, &memoryless_cfg());
        assert_eq!(
            plain.summary_json().to_string_compact(),
            served.result.summary_json().to_string_compact()
        );
        assert_eq!(served.cache, CacheCounters::default());
    }

    #[test]
    fn scenario_key_moves_with_params_and_seed() {
        let resolved = resolve_seeds(&selftest(1), 0);
        let base = scenario_key(&resolved[0]);
        let mut other = resolved[0].clone();
        other.seed = Some(other.effective_seed() + 1);
        assert_ne!(base, scenario_key(&other));
        let with_param = resolved[0].clone().with_param("work", 128u64);
        assert_ne!(base, scenario_key(&with_param));
        assert_eq!(base, scenario_key(&resolved[0].clone()));
    }
}
