//! The `serve_mix` workload: a closed loop, one client and one
//! connection per request, against an `ehp serve` daemon (`jobs = 1`,
//! `workers = 0`) with a fresh on-disk result cache.
//!
//! The request stream is drawn from the seed: Zipf reuse over a catalog
//! of cheap experiments and their schema-valid parameter variants (some
//! of them multi-scenario sweeps), plus a small share of schema-invalid
//! specs. The number of requests is fixed by `--seconds`, so the cache
//! hit fraction of a seed is exact. There is no record of served traffic
//! to fit: the rates, shares and templates below are choices, not
//! measurements (`perfbench/workloads.json` lists them as assumptions).
//! Every response is checked after the loop: invalid specs must come
//! back `ok:false`, every scenario's metrics must equal `run_one` on the
//! same resolved scenario, and every request's cache hits and misses
//! must match a replay of the stream against an empty key set. An
//! untimed coverage pass then sends every catalog parameter value once,
//! the ones the stream swaps out because they panic included, so such a
//! defect shows in `failed`. In the end-to-end run it goes to three
//! fresh daemons, whose median peak resident set is `peak_rss_mib`.
//!
//! The traced run serves the same stream three times, each against a
//! fresh cache: through the daemon (its `stats` op gives the server's
//! view of latency), then in-process through the public calls the
//! daemon's `run` handler makes, in the same order, with spans off and
//! then on. All three must answer byte for byte alike.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ehp_harness::executor::{
    resolve_seeds, run_batch, run_one, BatchConfig, Outcome, OutcomeStatus,
};
use ehp_harness::serving::scenario_key;
use ehp_harness::{registry, Scenario, ScenarioSpec};
use ehp_serve::cache::{CacheCounters, ResultCache};
use ehp_serve::{frame, server};
use ehp_sim_core::hash::fnv1a_extend;
use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

use crate::engines;
use crate::layers::{self, Counts};
use crate::measure::{median, peak_rss_mib, Report, Samples};
use crate::trace::Tracer;
use crate::{Args, DAEMON_FLAG, OUT_DIR, PEAK_PROBES};

/// Set-up repetitions: a daemon start and one warm-up request take tens
/// of milliseconds, so more of them keep the median steady.
const SETUP_RUNS: usize = 11;

/// Requests per second of `--seconds`; sized so that a run takes about
/// `--seconds` on the 2-core reference host.
const REQUESTS_PER_SECOND: f64 = 2400.0;

/// Requests per distinct catalog entry: with Zipf reuse at
/// [`ZIPF_S`], about nine in ten scenario lookups hit the cache.
const REQUESTS_PER_ENTRY: usize = 10;

/// Request-level base seeds the catalog draws from (enough that every
/// template has more distinct requests than the catalog needs; below
/// the warm-up request's seed).
const REQUEST_SEEDS: u64 = 1 << 20;

/// Zipf exponent of catalog reuse.
const ZIPF_S: f64 = 1.0;

/// Share of requests carrying a schema-invalid spec.
const INVALID_SHARE: f64 = 0.04;

/// Share of catalog entries that sweep one parameter over two values,
/// among the experiments not in [`NO_SWEEP`].
const SWEEP_SHARE: f64 = 0.3;

/// Experiments whose catalog entries never sweep: a two-scenario sweep
/// of their 5-25 ms misses would reach the slowest class (see
/// [`TEMPLATES`]) in a count that varies by seed.
const NO_SWEEP: &[&str] = &["figure7", "ic_sweep"];

/// A parameter value in the catalog templates.
#[derive(Debug, Clone, Copy)]
enum V {
    S(&'static str),
    N(f64),
}

impl From<V> for Json {
    fn from(v: V) -> Json {
        match v {
            V::S(s) => Json::from(s),
            V::N(n) => Json::Num(n),
        }
    }
}

use V::{N, S};

/// A parameter, its values, and whether every request sets it (else
/// half of them leave it at the experiment's default).
type Axis = (&'static str, &'static [V], bool);

/// The cheap experiments and the parameter values the catalog draws.
/// figure12, power_management, mem_bank_audit and large `ic_sweep`
/// traces are left out: every `ic_sweep` request sets `accesses` to at
/// most 4000 (its default is 40000). figure13 on 131072 workgroups
/// (about 40 ms of dispatch simulation) is the slowest single miss on
/// purpose: a few dozen per run, above the figure7 and `ic_sweep`
/// misses, whose cost is mostly first-touch page faults and swings
/// between about 15 and 25 ms with the host's state, so the tail
/// percentile does not swing with it. That entry steadies the tail; it
/// models no observed request.
const TEMPLATES: &[(&str, &[Axis])] = &[
    ("table1", &[]),
    (
        "figure7",
        &[(
            "product",
            &[S("mi250x"), S("mi300a"), S("mi300x"), S("ehpv4")],
            false,
        )],
    ),
    (
        "figure13",
        &[
            (
                "workgroups",
                &[N(64.0), N(228.0), N(512.0), N(131072.0)],
                false,
            ),
            ("workgroup_size", &[N(64.0), N(256.0)], false),
        ],
    ),
    (
        "figure14",
        &[(
            "elements",
            &[N(1048576.0), N(16777216.0), N(268435456.0)],
            false,
        )],
    ),
    (
        "figure15",
        &[
            ("elements", &[N(1048576.0), N(268435456.0)], false),
            ("chunks", &[N(4.0), N(8.0), N(16.0)], false),
        ],
    ),
    ("figure16", &[]),
    ("figure17", &[]),
    ("figure18", &[]),
    ("figure19", &[]),
    ("figure20", &[]),
    ("figure21", &[]),
    ("frontier_node", &[]),
    (
        "modular_platform",
        &[("checkpoint_write_s", &[N(30.0), N(90.0), N(300.0)], false)],
    ),
    ("ehpv3_audit", &[]),
    ("ehpv4_audit", &[]),
    ("microarch_audit", &[]),
    ("packaging_audit", &[]),
    (
        "ic_sweep",
        &[
            (
                "pattern",
                &[S("sequential"), S("random"), S("hot"), S("chase")],
                false,
            ),
            ("accesses", &[N(1000.0), N(2000.0), N(4000.0)], true),
            ("ic_mib", &[N(0.0), N(2.0), N(4.0)], false),
        ],
    ),
    (
        "serve_selftest",
        &[("work", &[N(8.0), N(16.0), N(64.0), N(256.0)], false)],
    ),
    (
        "serve_audit",
        &[("entries", &[N(16.0), N(64.0), N(256.0)], false)],
    ),
];

/// Parameter values the catalog draws but never sends, because a
/// request with one of them panics, each with the value sent in its
/// place: figure7 on `ehpv4` (the EHPv4 topology has no CCD chiplet 6;
/// `crates/harness/src/experiments/figure7.rs`, the `expect("reachable")`
/// of its timed transfers) becomes figure7 on `mi300a`, its default. A
/// panicking outcome is never cached, so such a request's share of the
/// stream would swing with the popularity rank a seed gives it. The
/// value is swapped after the draw, so the random draws of a seed do not
/// depend on this table. Dropping an entry once its defect is fixed
/// still changes the requests that carried it, so it is a change of the
/// benchmark that needs a fresh baseline. The coverage pass sends every
/// listed value, so the defect shows in `failed`.
const KNOWN_PANICS: &[(&str, &str, &str, &str)] = &[("figure7", "product", "ehpv4", "mi300a")];

/// The value sent for a drawn value `v`: its stand-in if it is a known
/// panic, else `v`.
fn stand_in(experiment: &str, param: &str, v: V) -> V {
    KNOWN_PANICS
        .iter()
        .find(|&&(e, p, bad, _)| e == experiment && p == param && matches!(v, V::S(s) if s == bad))
        .map_or(v, |&(.., good)| V::S(good))
}

/// The base seed of coverage requests (the catalog draws below
/// [`REQUEST_SEEDS`], the warm-up uses `2^21`).
const COVERAGE_SEED: u64 = (1 << 21) + 1;

/// One request per template parameter value, known panics included,
/// with every always-set parameter at its first value.
fn coverage() -> Vec<Request> {
    let mut out = Vec::new();
    for (experiment, axes) in TEMPLATES {
        for (name, values, _) in axes.iter() {
            for &v in values.iter() {
                let mut params: BTreeMap<String, Json> = axes
                    .iter()
                    .filter(|a| a.2)
                    .map(|(other, vals, _)| ((*other).to_string(), Json::from(vals[0])))
                    .collect();
                params.insert((*name).to_string(), Json::from(v));
                let spec = Json::object([
                    ("experiment", Json::from(*experiment)),
                    ("params", Json::Obj(params)),
                ]);
                out.push(Request {
                    json: run_request(spec, Some(COVERAGE_SEED)),
                    valid: true,
                });
            }
        }
    }
    out
}

/// Specs the S1 schema check must reject: a value outside an enum, a
/// misspelt parameter, a number out of range, a wrong type, an unknown
/// experiment, and an out-of-range sweep value.
const INVALID: &[&str] = &[
    r#"{"experiment": "figure7", "params": {"product": "tpu_v5"}}"#,
    r#"{"experiment": "figure7", "params": {"prodcut": "mi300a"}}"#,
    r#"{"experiment": "ic_sweep", "params": {"write_fraction": 1.5}}"#,
    r#"{"experiment": "figure13", "params": {"workgroups": "many"}}"#,
    r#"{"experiment": "figure99"}"#,
    r#"{"experiment": "ic_sweep", "sweep": {"jobs": [2, 0]}}"#,
];

/// The set-up request: a figure7 miss, like the slowest requests of
/// the stream, at a base seed the catalog never draws, so it leaves no
/// entry the stream could hit.
const WARM_UP: &str = r#"{"op": "run", "seed": 2097152, "spec": {"experiment": "figure7", "params": {"product": "mi300a"}}}"#;

/// Each request's response frames, or why it has none.
type Responses = Vec<Result<Vec<Json>, String>>;

/// One request of the stream.
#[derive(Debug, Clone)]
struct Request {
    json: Json,
    /// Whether the catalog meant the spec to pass validation.
    valid: bool,
}

fn run_request(spec: Json, seed: Option<u64>) -> Json {
    let mut fields = vec![("op", Json::from("run")), ("spec", spec)];
    if let Some(s) = seed {
        fields.push(("seed", Json::from(s)));
    }
    Json::object(fields)
}

/// `size` distinct valid requests. Entry `i` draws from template
/// `i mod TEMPLATES.len()`, so every seed gets the same mix of
/// experiments at every popularity rank; the seed picks parameters,
/// sweeps and request seeds.
///
/// Entries are distinct as drawn, before [`KNOWN_PANICS`] stand-ins
/// are swapped in (`swap`), so two entries may send the same request.
fn catalog(rng: &mut SplitMix64, size: usize, swap: bool) -> Vec<Json> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(size);
    for i in 0..size {
        let (experiment, axes) = TEMPLATES[i % TEMPLATES.len()];
        loop {
            let drawn = draw_request(&mut rng.clone(), experiment, axes, false);
            let request = draw_request(rng, experiment, axes, swap);
            if seen.insert(drawn.to_string_compact()) {
                out.push(request);
                break;
            }
        }
    }
    out
}

/// One valid request for `experiment`: each parameter set with
/// probability one half, sometimes one parameter swept over two
/// values, and half the time a request-level base seed. With `swap`,
/// known panics are replaced by their stand-ins.
fn draw_request(rng: &mut SplitMix64, experiment: &str, axes: &[Axis], swap: bool) -> Json {
    let sweep_axis =
        (!axes.is_empty() && !NO_SWEEP.contains(&experiment) && rng.chance(SWEEP_SHARE))
            .then(|| rng.next_below(axes.len() as u64) as usize);
    let mut params = BTreeMap::new();
    let mut sweep = BTreeMap::new();
    for (k, (name, values, always)) in axes.iter().enumerate() {
        let values: Vec<V> = values
            .iter()
            .map(|&v| {
                if swap {
                    stand_in(experiment, name, v)
                } else {
                    v
                }
            })
            .collect();
        let n = values.len() as u64;
        if Some(k) == sweep_axis {
            let a = rng.next_below(n);
            let b = (a + 1 + rng.next_below(n - 1)) % n;
            let pair = vec![
                Json::from(values[a as usize]),
                Json::from(values[b as usize]),
            ];
            sweep.insert((*name).to_string(), Json::Arr(pair));
        } else if *always || rng.chance(0.5) {
            params.insert(
                (*name).to_string(),
                Json::from(values[rng.next_below(n) as usize]),
            );
        }
    }
    let mut spec = vec![("experiment", Json::from(experiment))];
    if !params.is_empty() {
        spec.push(("params", Json::Obj(params)));
    }
    if !sweep.is_empty() {
        spec.push(("sweep", Json::Obj(sweep)));
    }
    let seed = rng.chance(0.5).then(|| rng.next_below(REQUEST_SEEDS));
    run_request(Json::object(spec), seed)
}

/// The first `n` requests of the stream drawn from `seed`.
fn stream(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x5E2F_E5A1_7C0D_E001);
    let catalog = catalog(&mut rng, n.div_ceil(REQUESTS_PER_ENTRY).max(1), true);
    let mut cdf = Vec::with_capacity(catalog.len());
    let mut total = 0.0;
    for rank in 0..catalog.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    (0..n)
        .map(|_| {
            if rng.chance(INVALID_SHARE) {
                let text = INVALID[rng.next_below(INVALID.len() as u64) as usize];
                let spec = Json::parse(text).expect("invalid-spec table is valid JSON");
                Request {
                    json: run_request(spec, None),
                    valid: false,
                }
            } else {
                let u = rng.next_f64() * total;
                let rank = cdf.partition_point(|&c| c <= u).min(catalog.len() - 1);
                Request {
                    json: catalog[rank].clone(),
                    valid: true,
                }
            }
        })
        .collect()
}

/// The scenarios a request runs, resolved; `None` if validation must
/// reject it.
fn resolve_request(request: &Json) -> Option<Vec<Scenario>> {
    let spec_text = request.get("spec")?.to_string_compact();
    if !ehp_lint::schema::validate_scenario("request", &spec_text, &registry::schemas()).is_empty()
    {
        return None;
    }
    let scenarios: Vec<Scenario> = ScenarioSpec::parse_file(&spec_text)
        .ok()?
        .iter()
        .flat_map(ScenarioSpec::expand)
        .collect();
    let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
    Some(resolve_seeds(&scenarios, seed))
}

fn metrics_json(o: &Outcome) -> Json {
    Json::Obj(
        o.metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// What `run_one` gives for one resolved scenario, as the daemon
/// renders it.
struct Expected {
    status: &'static str,
    metrics: String,
}

/// Checks responses against `run_one` and against the cache traffic
/// an empty cache must see.
#[derive(Default)]
struct Oracle {
    /// Per resolved scenario key.
    expected: BTreeMap<u64, Expected>,
}

/// What checked responses contributed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Checked {
    /// Scenario-level cache hits and lookups.
    hits: u64,
    lookups: u64,
    /// Requests rejected by validation.
    rejected: u64,
    /// Scenarios whose outcome was not OK (a panic, say).
    failed_scenarios: u64,
}

impl Oracle {
    fn expected(&mut self, key: u64, sc: &Scenario) -> &Expected {
        self.expected.entry(key).or_insert_with(|| {
            let o = run_one(sc);
            Expected {
                status: o.status.brief(),
                metrics: metrics_json(&o).to_string_compact(),
            }
        })
    }

    /// Checks one response; `seen` holds the keys the cache already
    /// has. An error means the response is wrong.
    fn check(
        &mut self,
        seen: &mut BTreeSet<u64>,
        req: &Request,
        frames: &[Json],
    ) -> Result<Checked, String> {
        let last = frames.last().ok_or("empty response")?;
        if last.get("done").and_then(Json::as_bool) != Some(true) {
            return Err("response not terminated".to_string());
        }
        let ok = last.get("ok").and_then(Json::as_bool);
        let Some(scenarios) = resolve_request(&req.json) else {
            if req.valid {
                return Err("a catalog spec fails validation".to_string());
            }
            if ok != Some(false) || frames.len() != 1 {
                return Err("an invalid spec was not rejected".to_string());
            }
            return Ok(Checked {
                rejected: 1,
                ..Checked::default()
            });
        };
        if !req.valid {
            return Err("an invalid spec passed validation".to_string());
        }
        let n = scenarios.len() as u64;
        let mut c = Checked {
            lookups: n,
            ..Checked::default()
        };
        let mut stores = 0;
        for (sc, f) in scenarios.iter().zip(frames) {
            let key = scenario_key(sc);
            let want = self.expected(key, sc);
            let got = f
                .get("metrics")
                .map(Json::to_string_compact)
                .unwrap_or_default();
            if f.get("name").and_then(Json::as_str) != Some(sc.name.as_str())
                || f.get("status").and_then(Json::as_str) != Some(want.status)
                || got != want.metrics
            {
                return Err(format!("{}: response differs from run_one", sc.name));
            }
            let completed = want.status == OutcomeStatus::Ok.brief();
            c.failed_scenarios += u64::from(!completed);
            if seen.contains(&key) {
                c.hits += 1;
            } else if completed {
                // Only completed outcomes are cached.
                seen.insert(key);
                stores += 1;
            }
        }
        let want_last = Json::object([
            ("ok", Json::Bool(true)),
            ("total", Json::from(n)),
            ("ok_count", Json::from(n - c.failed_scenarios)),
            (
                "cache",
                CacheCounters {
                    hits: c.hits,
                    misses: n - c.hits,
                    stores,
                }
                .to_json(),
            ),
            ("done", Json::Bool(true)),
        ]);
        if frames.len() as u64 != n + 1 || *last != want_last {
            return Err(format!(
                "final frame {}, expected {}",
                last.to_string_compact(),
                want_last.to_string_compact()
            ));
        }
        Ok(c)
    }
}

/// The verdict on a served prefix of the stream.
#[derive(Debug, Default)]
struct Verdict {
    sum: Checked,
    /// Requests that failed: a wrong response, an I/O error, or a
    /// scenario whose outcome was not OK.
    failed: u64,
    /// Requests whose response was wrong or missing.
    wrong: u64,
}

/// Checks a served prefix of the stream against a fresh cache.
fn check_all(
    oracle: &mut Oracle,
    reqs: &[Request],
    responses: &[Result<Vec<Json>, String>],
    notes: &mut Vec<String>,
) -> Verdict {
    let mut seen = BTreeSet::new();
    let mut v = Verdict::default();
    for (req, resp) in reqs.iter().zip(responses) {
        let checked = resp
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|frames| oracle.check(&mut seen, req, frames));
        let problem = match checked {
            Ok(c) => {
                v.sum.hits += c.hits;
                v.sum.lookups += c.lookups;
                v.sum.rejected += c.rejected;
                v.sum.failed_scenarios += c.failed_scenarios;
                (c.failed_scenarios > 0)
                    .then(|| format!("{} scenario(s) did not complete", c.failed_scenarios))
            }
            Err(e) => {
                v.wrong += 1;
                Some(e)
            }
        };
        if let Some(e) = problem {
            v.failed += 1;
            if notes.len() < 8 {
                notes.push(format!(
                    "failed request {}: {e}",
                    req.json.to_string_compact()
                ));
            }
        }
    }
    v
}

/// FNV-1a over every response frame, compact, newline-separated.
fn digest(responses: &[Result<Vec<Json>, String>]) -> u64 {
    let mut h = ehp_sim_core::hash::fnv1a(b"");
    for frames in responses.iter().flatten() {
        for f in frames {
            h = fnv1a_extend(h, f.to_string_compact().as_bytes());
            h = fnv1a_extend(h, b"\n");
        }
    }
    h
}

/// A scratch directory under [`OUT_DIR`], removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(OUT_DIR).join(format!("serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ping() -> Json {
    Json::object([("op", Json::from("ping"))])
}

/// An `ehp serve` daemon child; killed and reaped on drop unless shut
/// down.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on `socket` with its result cache in
    /// `cache_dir` and waits for its first `ping` reply.
    fn spawn(socket: PathBuf, cache_dir: &Path) -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .env("EHP_RESULT_CACHE_DIR", cache_dir)
            .env_remove("RUST_BACKTRACE")
            .env_remove("RUST_LIB_BACKTRACE")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut d = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(frames) = d.call(&ping()) {
                if frames.last().and_then(|f| f.get("ok")) == Some(&Json::Bool(true)) {
                    return Ok(d);
                }
            }
            let exited = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || Instant::now() > deadline {
                return Err("the daemon did not come up".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn call(&self, request: &Json) -> Result<Vec<Json>, String> {
        server::call(&self.socket, request).map_err(|e| format!("I/O error: {e}"))
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(String::new, |c| c.id().to_string())
    }

    /// Sends `shutdown` and reaps the process.
    fn shutdown(mut self) -> Result<(), String> {
        self.call(&Json::object([("op", Json::from("shutdown"))]))?;
        let mut child = self.child.take().expect("daemon still owned");
        let status = child
            .wait()
            .map_err(|e| format!("cannot reap the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Spawns a daemon on a fresh cache and sends the warm-up request.
fn set_up(scratch: &Scratch, k: usize) -> Result<Daemon, String> {
    let cache = scratch.0.join(format!("cache{k}"));
    let d = Daemon::spawn(scratch.0.join(format!("s{k}.sock")), &cache)?;
    let warm = d.call(&Json::parse(WARM_UP).expect("warm-up request is valid JSON"))?;
    if warm.last().and_then(|f| f.get("ok")) != Some(&Json::Bool(true)) {
        return Err("the warm-up request failed".to_string());
    }
    Ok(d)
}

/// Serves `reqs` through `d` until done or `deadline` passes.
fn serve_daemon(d: &Daemon, reqs: &[Request], deadline: Duration) -> (Responses, Vec<f64>, f64) {
    let start = Instant::now();
    let mut responses = Vec::with_capacity(reqs.len());
    let mut lat_ms = Vec::with_capacity(reqs.len());
    for r in reqs {
        if start.elapsed() > deadline {
            break;
        }
        let t = Instant::now();
        responses.push(d.call(&r.json));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (responses, lat_ms, start.elapsed().as_secs_f64())
}

/// Encodes `frame` as the wire does and decodes it back.
fn over_the_wire(frame_json: &Json) -> Result<Json, String> {
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, frame_json).map_err(|e| e.to_string())?;
    frame::read_frame(&mut buf.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".to_string())
}

fn error_response(message: &str, findings: Vec<Json>) -> Json {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::from(message))];
    if !findings.is_empty() {
        fields.push(("findings", Json::Arr(findings)));
    }
    Json::object(fields)
}

/// A request served in-process: its response frames, the outcomes of
/// its scenarios, and which of them were cache misses.
#[derive(Default)]
struct Handled {
    frames: Vec<Json>,
    outcomes: Vec<Outcome>,
    missed: Vec<usize>,
}

/// One request through the calls the daemon's `run` handler makes, in
/// its order, against the result cache in `cache_dir`.
fn handle_in_process(tr: &mut Tracer, cache_dir: &Path, request: &Json) -> Result<Handled, String> {
    let request = tr.span("serve.frame", |_| over_the_wire(request))?;
    let spec = request.get("spec").ok_or("request without spec")?;
    let spec_text = spec.to_string_compact();
    let findings = tr.span("serve.validate", |_| {
        ehp_lint::schema::validate_scenario("request", &spec_text, &registry::schemas())
    });
    let mut h = Handled::default();
    let last = if findings.is_empty() {
        let parsed = tr.span("serve.parse", |_| {
            ScenarioSpec::parse_file(&spec_text).map(|specs| {
                specs
                    .iter()
                    .flat_map(ScenarioSpec::expand)
                    .collect::<Vec<Scenario>>()
            })
        });
        match parsed {
            Ok(scenarios) => {
                let seed = request.get("seed").and_then(Json::as_u64).unwrap_or(0);
                serve_batch(tr, cache_dir, &scenarios, seed, &mut h)
            }
            Err(e) => error_response(&format!("spec does not parse: {e}"), Vec::new()),
        }
    } else {
        let msgs = findings
            .iter()
            .map(|f| Json::from(f.message.as_str()))
            .collect();
        error_response("spec failed schema validation", msgs)
    };
    h.frames.push(last);
    if let Some(Json::Obj(map)) = h.frames.last_mut() {
        map.insert("done".to_string(), Json::Bool(true));
    }
    h.frames = tr.span("serve.frame", |_| {
        h.frames.iter().map(over_the_wire).collect::<Result<_, _>>()
    })?;
    Ok(h)
}

/// The cache-then-execute path of `run_batch_served` (no worker pool):
/// fills `h` with one frame and one outcome per scenario and returns
/// the final frame.
fn serve_batch(
    tr: &mut Tracer,
    cache_dir: &Path,
    scenarios: &[Scenario],
    seed: u64,
    h: &mut Handled,
) -> Json {
    let resolved = tr.span("harness.resolve", |_| resolve_seeds(scenarios, seed));
    let keys: Vec<u64> = tr.span("serve.key", |_| resolved.iter().map(scenario_key).collect());
    let mut cache = ResultCache::disk(cache_dir);
    let mut traffic = CacheCounters::default();
    let mut slots: Vec<Option<Outcome>> = Vec::with_capacity(resolved.len());
    for (sc, &key) in resolved.iter().zip(&keys) {
        let entry = tr.span("serve.cache.lookup", |_| cache.lookup(key));
        let hit = entry
            .and_then(|j| tr.span("serve.codec", |_| Outcome::from_json(&j)))
            .filter(|o| o.scenario == *sc);
        if hit.is_some() {
            traffic.hits += 1;
        } else {
            traffic.misses += 1;
            h.missed.push(slots.len());
        }
        slots.push(hit);
    }
    if !h.missed.is_empty() {
        let subset: Vec<Scenario> = h.missed.iter().map(|&i| resolved[i].clone()).collect();
        let cfg = BatchConfig {
            jobs: 1,
            base_seed: seed,
            progress: false,
        };
        let computed = tr.span("serve.exec", |_| run_batch(&subset, &cfg).outcomes);
        for (&slot, out) in h.missed.iter().zip(computed) {
            if out.status == OutcomeStatus::Ok {
                let json = tr.span("serve.codec", |_| out.to_json());
                if tr.span("serve.cache.store", |_| cache.store(keys[slot], &json)) {
                    traffic.stores += 1;
                }
            }
            slots[slot] = Some(out);
        }
    }
    h.outcomes = slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect();
    for o in &h.outcomes {
        h.frames.push(Json::object([
            ("event", Json::from("scenario")),
            ("name", Json::from(o.scenario.name.as_str())),
            ("status", Json::from(o.status.brief())),
            ("metrics", metrics_json(o)),
        ]));
    }
    Json::object([
        ("ok", Json::Bool(true)),
        ("total", Json::from(h.outcomes.len())),
        (
            "ok_count",
            Json::from(h.outcomes.iter().filter(|o| o.is_ok()).count()),
        ),
        ("cache", traffic.to_json()),
    ])
}

/// Engine probes on the outcomes a request computed.
fn probe_misses(tr: &mut Tracer, h: &Handled, counts: &mut Counts) -> Result<(), String> {
    for o in h.missed.iter().map(|&i| &h.outcomes[i]) {
        match o.scenario.experiment.as_str() {
            "figure7" => engines::apu_new(tr, o)?,
            "ic_sweep" => engines::ic_sweep(tr, o, &mut counts.mem)?,
            _ => {}
        }
    }
    Ok(())
}

/// Serves `reqs` in-process against a fresh cache under `dir`.
fn serve_in_process(
    tr: &mut Tracer,
    dir: &Path,
    reqs: &[Request],
    counts: &mut Counts,
    notes: &mut Vec<String>,
) -> (Responses, Vec<f64>) {
    let mut responses = Vec::with_capacity(reqs.len());
    let mut lat_ms = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        tr.set_op(i as u64);
        let t = Instant::now();
        let res = tr.span("op", |tr| handle_in_process(tr, dir, &r.json));
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let res = res.and_then(|h| {
            if tr.enabled() {
                tr.span("probe", |tr| probe_misses(tr, &h, counts))?;
            }
            Ok(h.frames)
        });
        if let Err(e) = &res {
            notes.push(format!("in-process request {i} failed: {e}"));
        }
        responses.push(res);
    }
    (responses, lat_ms)
}

/// The coverage requests, served and checked.
#[derive(Default)]
struct Coverage {
    requests: u64,
    verdict: Verdict,
}

impl Coverage {
    /// Counts another coverage pass in.
    fn add(&mut self, other: Coverage) {
        self.requests += other.requests;
        self.verdict.failed += other.verdict.failed;
        self.verdict.wrong += other.verdict.wrong;
    }
}

/// Sends every [`coverage`] request through `d`, untimed, and checks
/// the responses (their keys are disjoint from the stream's).
fn coverage_pass(d: &Daemon, oracle: &mut Oracle, notes: &mut Vec<String>) -> Coverage {
    let reqs = coverage();
    let (responses, _, _) = serve_daemon(d, &reqs, Duration::MAX);
    Coverage {
        requests: reqs.len() as u64,
        verdict: check_all(oracle, &reqs, &responses, notes),
    }
}

fn server_p50_ms(d: &Daemon) -> Result<f64, String> {
    let stats = d.call(&Json::object([("op", Json::from("stats"))]))?;
    stats
        .last()
        .and_then(|s| s.get("latency_ms")?.get("p50")?.as_f64())
        .ok_or_else(|| "stats reply without latency p50".to_string())
}

/// Runs `serve_mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    let n = (args.seconds * REQUESTS_PER_SECOND).ceil() as usize;
    let deadline = Duration::from_secs_f64((3.0 * args.seconds).clamp(args.seconds, 120.0));
    let scratch = Scratch::new()?;
    let mut report = Report::default();
    let mut oracle = Oracle::default();

    let (served, responses, verdict, cov) = if !args.trace {
        let mut setup_s = Vec::new();
        let mut daemon = None;
        for k in 0..SETUP_RUNS {
            let t = Instant::now();
            let d = set_up(&scratch, k)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(prev) = daemon.replace(d) {
                Daemon::shutdown(prev)?;
            }
        }
        let d = daemon.expect("at least one set-up run");
        // Drawn after set-up, which then runs in the same small process
        // whatever the request count.
        let reqs = stream(args.seed, n);
        let (responses, lat_ms, wall_s) = serve_daemon(&d, &reqs, deadline);
        let loop_rss = peak_rss_mib(&d.pid()).ok_or("cannot read the daemon's VmHWM")?;
        d.shutdown()?;
        // peak_rss_mib: fresh daemons that each serve the coverage pass.
        // The looping daemon's own VmHWM is bimodal (see `fresh_peak_rss`
        // in batch.rs), so it is only printed.
        let mut peaks = Vec::new();
        let mut cov = Coverage::default();
        for k in 0..PEAK_PROBES {
            let d = set_up(&scratch, SETUP_RUNS + k)?;
            cov.add(coverage_pass(&d, &mut oracle, &mut report.notes));
            peaks.push(peak_rss_mib(&d.pid()).ok_or("cannot read the daemon's VmHWM")?);
            d.shutdown()?;
        }
        let served = reqs[..responses.len()].to_vec();
        let v = check_all(&mut oracle, &served, &responses, &mut report.notes);
        let samples = Samples {
            lat_ms,
            failed: v.failed,
            wall_s,
        };
        report.end_to_end(&setup_s, &samples, median(&peaks));
        report.note(format!(
            "VmHWM of the looping daemon: {loop_rss:.2} MiB; of the coverage daemons: {peaks:?} MiB"
        ));
        report.attempted += cov.requests;
        report.failed += cov.verdict.failed;
        (served, responses, v, cov)
    } else {
        let reqs = stream(args.seed, n.div_ceil(3));
        let d = set_up(&scratch, 0)?;
        let (responses, lat_ms, _) = serve_daemon(&d, &reqs, deadline / 3);
        let server_p50 = server_p50_ms(&d)?;
        let cov = coverage_pass(&d, &mut oracle, &mut report.notes);
        d.shutdown()?;
        let served = reqs[..responses.len()].to_vec();
        let mut v = check_all(&mut oracle, &served, &responses, &mut report.notes);

        let mut counts = Counts::default();
        let mut notes = Vec::new();
        let (plain, plain_ms) = serve_in_process(
            &mut Tracer::off(),
            &scratch.0.join("cache-untraced"),
            &served,
            &mut counts,
            &mut notes,
        );
        let mut tr = Tracer::on();
        let (traced, traced_ms) = serve_in_process(
            &mut tr,
            &scratch.0.join("cache-traced"),
            &served,
            &mut counts,
            &mut notes,
        );
        report.notes.append(&mut notes);
        for (run, label) in [(&plain, "untraced"), (&traced, "traced")] {
            let again = check_all(&mut oracle, &served, run, &mut report.notes);
            let differ = run.iter().zip(&responses).filter(|(a, b)| a != b).count() as u64;
            if differ > 0 || again.sum != v.sum {
                report.note(format!(
                    "in-process {label} responses differ from the daemon's on {differ} requests"
                ));
            }
            v.failed += again.failed + differ;
            v.wrong += again.wrong + differ;
        }

        counts.ops = served.len() as u64;
        counts.cache_hits = v.sum.hits;
        counts.cache_lookups = v.sum.lookups;
        counts.rejected = v.sum.rejected;
        counts.client_p50_ms = median(&lat_ms);
        counts.server_p50_ms = server_p50;
        counts.untraced_p50_ms = median(&plain_ms);
        counts.traced_p50_ms = median(&traced_ms);
        report.attempted = 3 * counts.ops + cov.requests;
        report.failed = v.failed + cov.verdict.failed;
        layers::report(&mut report, &tr, &counts);
        crate::write_spans(&mut report, &tr, args)?;
        (served, responses, v, cov)
    };
    report.note(format!(
        "digest {}",
        Json::object([
            ("workload", Json::from(args.workload.as_str())),
            ("seed", Json::from(args.seed)),
            ("requests", Json::from(served.len())),
            (
                "responses_fnv1a",
                Json::from(format!("{:016x}", digest(&responses)))
            ),
            ("serve.cache.hits", Json::from(verdict.sum.hits)),
            ("serve.cache.lookups", Json::from(verdict.sum.lookups)),
            (
                "serve.cache.hit_frac",
                Json::Num(verdict.sum.hits as f64 / verdict.sum.lookups.max(1) as f64),
            ),
            ("serve.rejected", Json::from(verdict.sum.rejected)),
            (
                "serve.failed_scenarios",
                Json::from(verdict.sum.failed_scenarios)
            ),
            ("coverage_requests", Json::from(cov.requests)),
            ("coverage_failed", Json::from(cov.verdict.failed)),
        ])
        .to_string_compact()
    ));
    report.correct = verdict.wrong == 0 && cov.verdict.wrong == 0;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_specs_validate_and_invalid_ones_do_not() {
        let mut rng = SplitMix64::new(7);
        for req in catalog(&mut rng, 500, true) {
            assert!(
                resolve_request(&req).is_some(),
                "{}",
                req.to_string_compact()
            );
        }
        for text in INVALID {
            let req = run_request(Json::parse(text).unwrap(), None);
            assert!(resolve_request(&req).is_none(), "{text}");
        }
        let warm = Json::parse(WARM_UP).unwrap();
        assert!(resolve_request(&warm).is_some());
        assert!(!catalog(&mut SplitMix64::new(7), 500, true).contains(&warm));
    }

    #[test]
    fn known_panics_stay_out_of_the_catalog_but_not_the_coverage_pass() {
        let text = |swap| -> Vec<String> {
            catalog(&mut SplitMix64::new(9), 2000, swap)
                .iter()
                .map(Json::to_string_compact)
                .collect()
        };
        let (drawn, sent) = (text(false), text(true));
        assert!(drawn.iter().any(|r| r.contains("\"ehpv4\"")));
        assert!(!sent.iter().any(|r| r.contains("\"ehpv4\"")));
        // The stand-in is swapped in after the draw: the catalog is the
        // same draw with only the known-panic value replaced.
        let swapped: Vec<String> = drawn
            .iter()
            .map(|r| r.replace("\"ehpv4\"", "\"mi300a\""))
            .collect();
        assert_eq!(swapped, sent);
        let covered: String = coverage()
            .iter()
            .map(|r| r.json.to_string_compact())
            .collect();
        assert!(covered.contains("\"ehpv4\""));
        for r in coverage() {
            assert!(
                resolve_request(&r.json).is_some(),
                "{}",
                r.json.to_string_compact()
            );
        }
    }

    #[test]
    fn stream_is_a_function_of_the_seed() {
        let a: Vec<String> = stream(3, 200)
            .iter()
            .map(|r| r.json.to_string_compact())
            .collect();
        let b: Vec<String> = stream(3, 200)
            .iter()
            .map(|r| r.json.to_string_compact())
            .collect();
        let c: Vec<String> = stream(4, 200)
            .iter()
            .map(|r| r.json.to_string_compact())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
