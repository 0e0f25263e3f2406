//! End-to-end tests for the serving layer (DESIGN.md §12): result-cache
//! byte-identity, corruption degrade, worker-pool panic robustness, and
//! the `ehp serve` Unix-socket daemon driven through the real binary.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ehp_harness::executor::{run_batch, BatchConfig, OutcomeStatus};
use ehp_harness::scenario::Scenario;
use ehp_harness::serving::{run_batch_served, scenario_key, ServingConfig};
use ehp_serve::cache::ResultCache;
use ehp_serve::pool::{PoolConfig, WorkerCommand};
use ehp_serve::server;
use ehp_sim_core::json::Json;

/// The compiled `ehp` binary — the same executable users run.
const EHP: &str = env!("CARGO_BIN_EXE_ehp");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/serving-e2e")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn selftest_batch(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            let mut sc = Scenario::default_for("serve_selftest");
            sc.name = format!("e2e{i:02}");
            sc = sc.with_param("work", 32u64 + i as u64);
            sc
        })
        .collect()
}

fn cached_cfg(dir: &Path) -> ServingConfig {
    ServingConfig {
        jobs: 2,
        cache_dir: dir.to_path_buf(),
        ..ServingConfig::default()
    }
}

fn summary(
    scenarios: &[Scenario],
    cfg: &ServingConfig,
) -> (String, ehp_serve::cache::CacheCounters) {
    let served = run_batch_served(scenarios, cfg);
    (
        served.result.summary_json().to_string_pretty(),
        served.cache,
    )
}

#[test]
fn cold_warm_and_uncached_summaries_are_byte_identical() {
    let cache_dir = tmp_dir("cold-warm");
    let scenarios = selftest_batch(6);
    let cfg = cached_cfg(&cache_dir);

    let (cold, cold_traffic) = summary(&scenarios, &cfg);
    assert_eq!(cold_traffic.hits, 0);
    assert_eq!(cold_traffic.misses, 6);
    assert_eq!(cold_traffic.stores, 6);

    let (warm, warm_traffic) = summary(&scenarios, &cfg);
    assert_eq!(warm_traffic.hits, 6, "warm repeat must hit every entry");
    assert_eq!(warm_traffic.misses, 0);
    assert_eq!(cold, warm, "hot and cold summaries must be byte-identical");

    let uncached_cfg = ServingConfig {
        use_cache: false,
        ..cached_cfg(&cache_dir)
    };
    let (uncached, no_traffic) = summary(&scenarios, &uncached_cfg);
    assert_eq!(no_traffic, ehp_serve::cache::CacheCounters::default());
    assert_eq!(cold, uncached, "--no-result-cache must not change bytes");

    // And all of it matches the plain executor with the same seeds.
    let plain = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 2,
            ..BatchConfig::default()
        },
    );
    assert_eq!(cold, plain.summary_json().to_string_pretty());
}

#[test]
fn corrupted_entry_degrades_to_recompute_and_repairs() {
    let cache_dir = tmp_dir("corrupt");
    let scenarios = selftest_batch(3);
    let cfg = cached_cfg(&cache_dir);
    let (cold, _) = summary(&scenarios, &cfg);

    // Truncate one specific entry on disk.
    let resolved = ehp_harness::executor::resolve_seeds(&scenarios, cfg.base_seed);
    let victim = scenario_key(&resolved[1]);
    let victim_path = cache_dir.join(format!("{victim:016x}.json"));
    assert!(victim_path.exists(), "cold run must have stored the entry");
    fs::write(&victim_path, "{ definitely not an entry").unwrap();

    // The corrupted entry is a miss (recomputed + re-stored); the other
    // two still hit; the summary bytes do not change.
    let (repaired, traffic) = summary(&scenarios, &cfg);
    assert_eq!(traffic.hits, 2);
    assert_eq!(traffic.misses, 1);
    assert_eq!(traffic.stores, 1);
    assert_eq!(cold, repaired);

    // The slot is healthy again afterwards.
    let (_, after) = summary(&scenarios, &cfg);
    assert_eq!(after.hits, 3);
}

#[test]
fn tampered_entry_fails_scenario_check_and_recomputes() {
    let cache_dir = tmp_dir("tamper");
    let scenarios = selftest_batch(2);
    let cfg = cached_cfg(&cache_dir);
    let (cold, _) = summary(&scenarios, &cfg);

    // Swap one entry's outcome for the *other* scenario's outcome: the
    // entry decodes fine but records the wrong scenario, so the
    // serving layer must reject and recompute it.
    let resolved = ehp_harness::executor::resolve_seeds(&scenarios, cfg.base_seed);
    let (ka, kb) = (scenario_key(&resolved[0]), scenario_key(&resolved[1]));
    let mut cache = ResultCache::disk(&cache_dir);
    let stolen = cache.lookup(kb).expect("entry b exists");
    assert!(cache.store(ka, &stolen));

    let (healed, traffic) = summary(&scenarios, &cfg);
    assert_eq!(cold, healed);
    assert_eq!(
        traffic.misses, 1,
        "the tampered entry must not count as a hit"
    );
}

/// A pool config tuned for tests: small chunks so a panicking scenario
/// poisons little, tight timeout so the suite stays fast.
fn fast_pool() -> PoolConfig {
    PoolConfig {
        chunk: 2,
        timeout: Duration::from_secs(30),
        max_retries: 1,
        backoff: Duration::from_millis(5),
    }
}

#[test]
fn panicking_scenario_in_worker_degrades_to_identical_summary() {
    let scenarios = {
        let mut v = selftest_batch(5);
        let mut bad = Scenario::default_for("serve_selftest").with_param("mode", "panic");
        bad.name = "e2e-poison".to_string();
        v.insert(2, bad);
        v
    };

    // Ground truth: the plain in-process executor (panic isolated).
    let plain = run_batch(&scenarios, &BatchConfig::default());
    assert_eq!(plain.ok_count(), 5);
    assert!(matches!(
        plain.outcomes[2].status,
        OutcomeStatus::Panicked(_)
    ));

    // Pooled: the panic kills a worker; the chunk is retried on a fresh
    // one, then degrades to the in-process fallback. Same bytes out.
    let cfg = ServingConfig {
        use_cache: false,
        workers: 2,
        pool: fast_pool(),
        worker_cmd: Some(WorkerCommand::new(EHP, &["worker"])),
        ..ServingConfig::default()
    };
    let served = run_batch_served(&scenarios, &cfg);
    assert_eq!(
        plain.summary_json().to_string_pretty(),
        served.result.summary_json().to_string_pretty(),
        "a worker killed mid-batch must never change the merged summary"
    );
    assert!(
        served.pool.worker_restarts >= 1,
        "the panic must have killed at least one worker: {:?}",
        served.pool
    );
    assert!(
        served.pool.fallback_chunks >= 1,
        "the poisoned chunk must have degraded in-process: {:?}",
        served.pool
    );
}

#[test]
fn workers_setting_is_the_pool_size() {
    // Three chunks of two, one worker: the single child claims every
    // chunk in turn, so exactly one process is ever spawned.
    let scenarios = selftest_batch(6);
    let cfg = ServingConfig {
        use_cache: false,
        workers: 1,
        pool: fast_pool(),
        worker_cmd: Some(WorkerCommand::new(EHP, &["worker"])),
        ..ServingConfig::default()
    };
    let served = run_batch_served(&scenarios, &cfg);
    assert_eq!(served.result.ok_count(), 6);
    assert_eq!(served.pool.chunks, 3, "{:?}", served.pool);
    assert_eq!(served.pool.worker_spawns, 1, "{:?}", served.pool);
    assert_eq!(served.pool.worker_restarts, 0, "{:?}", served.pool);
    assert_eq!(
        run_batch(&scenarios, &BatchConfig::default())
            .summary_json()
            .to_string_pretty(),
        served.result.summary_json().to_string_pretty()
    );
}

/// Serve-daemon harness: spawns `ehp serve` on a socket under `dir`,
/// waits for it to answer, and guarantees shutdown+reap on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path) -> Daemon {
        let socket = dir.join("d.sock");
        let child = Command::new(EHP)
            .args(["serve", "--socket"])
            .arg(&socket)
            .env("EHP_FIGURES_DIR", dir.join("figures"))
            .env("EHP_RESULT_CACHE_DIR", dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ehp serve");
        let daemon = Daemon { child, socket };
        let ping = Json::object([("op", Json::from("ping"))]);
        for _ in 0..400 {
            if server::call(&daemon.socket, &ping).is_ok() {
                return daemon;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("ehp serve never came up on {}", daemon.socket.display());
    }

    fn call(&self, request: &Json) -> Vec<Json> {
        server::call(&self.socket, request).expect("serve call")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = server::call(
            &self.socket,
            &Json::object([("op", Json::from("shutdown"))]),
        );
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_daemon_answers_sweeps_and_tracks_cache_stats() {
    let dir = tmp_dir("daemon");
    let daemon = Daemon::spawn(&dir);

    // A schema-valid sweep: 3 scenarios of serve_selftest.
    let spec = Json::object([
        ("experiment", Json::from("serve_selftest")),
        ("name", Json::from("sweep")),
        (
            "sweep",
            Json::object([(
                "work",
                Json::array([Json::from(8u64), Json::from(16u64), Json::from(24u64)]),
            )]),
        ),
    ]);
    let run = Json::object([
        ("op", Json::from("run")),
        ("spec", spec.clone()),
        ("seed", Json::from(11u64)),
    ]);

    // Cold: 3 streamed scenario frames + the final done frame.
    let frames = daemon.call(&run);
    assert_eq!(frames.len(), 4);
    for f in &frames[..3] {
        assert_eq!(f.get("event"), Some(&Json::from("scenario")));
        assert_eq!(f.get("status"), Some(&Json::from("ok")));
        assert!(f.get("metrics").and_then(|m| m.get("checksum")).is_some());
    }
    let done = &frames[3];
    assert_eq!(done.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(done.get("total"), Some(&Json::from(3u64)));
    assert_eq!(done.get("ok_count"), Some(&Json::from(3u64)));

    // Warm: identical request must be served entirely from the cache.
    let frames = daemon.call(&run);
    let cache = frames[3].get("cache").expect("cache traffic in reply");
    assert_eq!(cache.get("hits"), Some(&Json::from(3u64)));
    assert_eq!(cache.get("misses"), Some(&Json::from(0u64)));

    // Schema-invalid spec (unknown parameter) is rejected with findings.
    let bad = Json::object([
        ("op", Json::from("run")),
        (
            "spec",
            Json::object([
                ("experiment", Json::from("serve_selftest")),
                ("params", Json::object([("wrok", Json::from(8u64))])),
            ]),
        ),
    ]);
    let frames = daemon.call(&bad);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].get("ok"), Some(&Json::Bool(false)));
    assert!(frames[0].get("findings").is_some());

    // Stats reflect all of the above.
    let frames = daemon.call(&Json::object([("op", Json::from("stats"))]));
    let stats = &frames[0];
    assert_eq!(stats.get("requests"), Some(&Json::from(4u64)));
    assert_eq!(stats.get("rejected"), Some(&Json::from(1u64)));
    assert_eq!(stats.get("scenarios"), Some(&Json::from(6u64)));
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits"), Some(&Json::from(3u64)));
    assert_eq!(cache.get("misses"), Some(&Json::from(3u64)));
    assert!(stats.get("latency_ms").and_then(|l| l.get("p50")).is_some());
}
