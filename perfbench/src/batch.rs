//! The `suite` and `mem_sweep` workloads: a closed loop, one client,
//! of back-to-back `run_batch` passes over a fixed scenario list.
//!
//! An op builds the scenario list, runs it with executor `jobs = 1` and
//! no result cache, and renders the summary exactly as `ehp` writes
//! `run_summary.json`. It fails unless every scenario ran, the summary
//! bytes equal the set-up pass's, and (on `suite`) every `ehp check`
//! range passes.
//!
//! The traced run first repeats the untraced op, then runs traced ops:
//! the same pass with `run_batch` unrolled into the calls it makes
//! (`resolve_seeds`, then `run_one` per scenario), each inside a span,
//! followed by the engine probes of that pass's outcomes.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ehp_harness::check;
use ehp_harness::executor::{resolve_seeds, run_batch, run_one, BatchConfig, BatchResult, Outcome};
use ehp_harness::{registry, Scenario, ScenarioSpec};
use ehp_sim_core::hash::fnv1a;
use ehp_sim_core::json::Json;

use crate::engines;
use crate::layers::{self, Counts};
use crate::measure::{closed_loop, median, peak_rss_mib, Report};
use crate::trace::Tracer;
use crate::{Args, PEAK_PROBES, PEAK_PROBE_FLAG, SETUP_RUNS};

/// Replay threads for mem_bank_audit in `suite` and for every
/// `mem_sweep` scenario: the core count of the 2-core reference host,
/// fixed so that the summary digest does not depend on the host.
pub const REPLAY_JOBS: u64 = 2;

/// Accesses per `mem_sweep` scenario.
pub const SWEEP_ACCESSES: u64 = 60_000;

/// Share of a traced run spent repeating the untraced op.
const UNTRACED_SHARE: f64 = 0.4;

/// A batch workload.
struct Batch {
    /// Builds the scenario list (timed inside the op).
    build: fn() -> Vec<Scenario>,
    /// Gate every op on the `ehp check` ranges.
    check_shapes: bool,
    /// Engine probes over one traced pass's outcomes.
    probe: fn(&mut Tracer, &[Outcome], u64, &mut Counts) -> Result<(), String>,
}

/// `suite`: the 23 registry experiments at their default scenarios,
/// mem_bank_audit's replay threads capped at [`REPLAY_JOBS`].
fn suite_scenarios() -> Vec<Scenario> {
    registry::ids()
        .into_iter()
        .map(|id| {
            let sc = Scenario::default_for(id);
            if id == "mem_bank_audit" {
                sc.with_param("jobs", REPLAY_JOBS)
            } else {
                sc
            }
        })
        .collect()
}

/// The `mem_sweep` grid as an `ic_sweep` sweep spec.
pub fn mem_sweep_spec() -> ScenarioSpec {
    let text = format!(
        r#"{{"experiment": "ic_sweep", "name": "mem_sweep",
            "params": {{"accesses": {SWEEP_ACCESSES}, "jobs": {REPLAY_JOBS}}},
            "sweep": {{"pattern": ["sequential", "random", "hot", "chase"],
                       "write_fraction": [0, 0.7],
                       "footprint_mib": [64, 1024]}}}}"#
    );
    ScenarioSpec::from_json(&Json::parse(&text).expect("mem_sweep spec is valid JSON"))
        .expect("mem_sweep spec parses")
}

fn mem_sweep_scenarios() -> Vec<Scenario> {
    mem_sweep_spec().expand()
}

fn find<'a>(outcomes: &'a [Outcome], id: &str) -> Result<&'a Outcome, String> {
    outcomes
        .iter()
        .find(|o| o.scenario.experiment == id)
        .ok_or_else(|| format!("no {id} outcome"))
}

fn suite_probe(
    tr: &mut Tracer,
    outcomes: &[Outcome],
    _seed: u64,
    c: &mut Counts,
) -> Result<(), String> {
    c.thermal_calls += engines::thermal_figure12(tr, find(outcomes, "figure12")?)?;
    c.thermal_cells += engines::FIGURE12_CELLS;
    c.powertherm_iterations += engines::powertherm(tr, find(outcomes, "power_management")?)?;
    engines::apu_new(tr, find(outcomes, "figure7")?)?;
    engines::mem_bank_audit(tr, find(outcomes, "mem_bank_audit")?, &mut c.mem)?;
    engines::ic_sweep(tr, find(outcomes, "ic_sweep")?, &mut c.mem)
}

fn mem_sweep_probe(
    tr: &mut Tracer,
    outcomes: &[Outcome],
    seed: u64,
    c: &mut Counts,
) -> Result<(), String> {
    for o in outcomes {
        engines::ic_sweep(tr, o, &mut c.mem)?;
    }
    engines::replay_jobs(tr, seed)
}

/// Simulated memory requests in one pass: every replayed trace access
/// (mem_bank_audit replays its trace three times).
fn mem_requests(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .map(|o| match o.scenario.experiment.as_str() {
            "ic_sweep" => o.scenario.u64("accesses", 40_000),
            "mem_bank_audit" => 3 * o.scenario.u64("accesses", 20_000),
            _ => 0,
        })
        .sum()
}

/// DVFS-loop iterations power_management reports in its payload.
fn powertherm_iterations(outcomes: &[Outcome]) -> u64 {
    outcomes
        .iter()
        .filter(|o| o.scenario.experiment == "power_management")
        .filter_map(|o| o.payload.as_ref()?.as_arr())
        .flatten()
        .filter_map(|row| row.get("iterations")?.as_u64())
        .sum()
}

fn shapes_pass(outcomes: &[Outcome]) -> bool {
    check::evaluate(outcomes).iter().all(|f| f.pass)
}

/// One untraced op: the outcomes, the summary bytes, and whether every
/// scenario ran and every range passed.
fn op(w: &Batch, seed: u64) -> (Vec<Outcome>, String, bool) {
    let scenarios = (w.build)();
    let cfg = BatchConfig {
        jobs: 1,
        base_seed: seed,
        progress: false,
    };
    let result = run_batch(&scenarios, &cfg);
    let summary = result.summary_json().to_string_pretty();
    let ok = result.ok_count() == result.outcomes.len()
        && (!w.check_shapes || shapes_pass(&result.outcomes));
    (result.outcomes, summary, ok)
}

/// One traced op: `op` with `run_batch` unrolled into its calls.
fn traced_op(
    tr: &mut Tracer,
    w: &Batch,
    seed: u64,
    exp_spans: &[String],
) -> (Vec<Outcome>, String, bool) {
    let resolved = tr.span("harness.resolve", |_| resolve_seeds(&(w.build)(), seed));
    let outcomes: Vec<Outcome> = resolved
        .iter()
        .zip(exp_spans)
        .map(|(sc, name)| tr.span(name, |_| run_one(sc)))
        .collect();
    let result = BatchResult {
        outcomes,
        wall: Duration::ZERO,
    };
    let summary = tr.span("harness.summary", |_| {
        result.summary_json().to_string_pretty()
    });
    let ran = result.ok_count() == result.outcomes.len();
    let shapes = !w.check_shapes || tr.span("harness.check", |_| shapes_pass(&result.outcomes));
    (result.outcomes, summary, ran && shapes)
}

fn workload(name: &str) -> Batch {
    if name == "suite" {
        Batch {
            build: suite_scenarios,
            check_shapes: true,
            probe: suite_probe,
        }
    } else {
        Batch {
            build: mem_sweep_scenarios,
            check_shapes: false,
            probe: mem_sweep_probe,
        }
    }
}

/// The child side of [`fresh_peak_rss`]: one op of `workload_name` at
/// `seed` in this process, then `<VmHWM in MiB> <summary digest>`.
pub fn peak_probe(workload_name: &str, seed: u64) -> Result<String, String> {
    let (_, summary, ok) = op(&workload(workload_name), seed);
    if !ok {
        return Err(format!("{workload_name}: the probe pass failed its checks"));
    }
    let rss = peak_rss_mib("self").ok_or("cannot read VmHWM")?;
    Ok(format!("{rss} {:016x}", fnv1a(summary.as_bytes())))
}

/// The `VmHWM` (MiB) of [`PEAK_PROBES`] fresh processes that each run
/// one op, as a one-shot `ehp run` does; each must render `summary`.
///
/// The looping process's own `VmHWM` is bimodal with glibc's default
/// allocator (88 or 172 MiB on `suite`, 26 or 47 on `mem_sweep`, in
/// about one 20 s run in five): a thread that `run_batch` or
/// `replay_sharded` spawns can start before the last one's malloc arena
/// is free, takes a new arena, and the old arena's retained memory stays
/// resident for the rest of the process. One pass rarely hits it and
/// the median of three fresh passes practically never does.
fn fresh_peak_rss(args: &Args, summary: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let want = format!("{:016x}", fnv1a(summary.as_bytes()));
    let mut peaks = Vec::with_capacity(PEAK_PROBES);
    for _ in 0..PEAK_PROBES {
        let out = Command::new(&exe)
            .args([PEAK_PROBE_FLAG, &args.workload, &args.seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a peak probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.split_whitespace().collect::<Vec<_>>()[..] {
            [rss, digest] if out.status.success() && digest == want => {
                peaks.push(
                    rss.parse()
                        .map_err(|_| format!("bad peak probe output {text:?}"))?,
                );
            }
            _ => {
                return Err(format!(
                    "{}: a one-op process failed or rendered another summary",
                    args.workload
                ))
            }
        }
    }
    Ok(peaks)
}

/// Runs `suite` or `mem_sweep`.
pub fn run(args: &Args) -> Result<Report, String> {
    let w = workload(&args.workload);
    let seed = args.seed;
    let mut report = Report::default();

    // Set-up: the warm-up op, repeated; every repetition must agree.
    let setup_runs = if args.trace { 1 } else { SETUP_RUNS };
    let mut setup_s = Vec::new();
    let mut reference: Option<(Vec<Outcome>, String)> = None;
    for _ in 0..setup_runs {
        let t = Instant::now();
        let (outcomes, summary, ok) = op(&w, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        if !ok {
            return Err(format!(
                "{}: the warm-up pass failed its checks",
                args.workload
            ));
        }
        if reference.as_ref().is_some_and(|(_, s)| *s != summary) {
            return Err(format!("{}: warm-up summaries differ", args.workload));
        }
        reference = Some((outcomes, summary));
    }
    let (ref_outcomes, ref_summary) = reference.expect("at least one set-up run");
    let same = |summary: &str, ok: bool| ok && summary == ref_summary;

    let digest_requests = mem_requests(&ref_outcomes);
    if !args.trace {
        let samples = closed_loop(args.seconds, |_| {
            let (_, summary, ok) = op(&w, seed);
            same(&summary, ok)
        });
        let loop_rss = peak_rss_mib("self").ok_or("cannot read VmHWM")?;
        let peaks = fresh_peak_rss(args, &ref_summary)?;
        report.end_to_end(&setup_s, &samples, median(&peaks));
        report.note(format!(
            "VmHWM of this process: {loop_rss:.2} MiB; of the one-op processes: {peaks:?} MiB"
        ));
    } else {
        let untraced = closed_loop(args.seconds * UNTRACED_SHARE, |_| {
            let (_, summary, ok) = op(&w, seed);
            same(&summary, ok)
        });
        let exp_spans: Vec<String> = (w.build)()
            .iter()
            .map(|sc| format!("harness.exp.{}", sc.experiment))
            .collect();
        let mut tr = Tracer::on();
        let mut counts = Counts::default();
        let mut traced_ms = Vec::new();
        let mut failed = untraced.failed;
        let start = Instant::now();
        while traced_ms.is_empty()
            || start.elapsed().as_secs_f64() < args.seconds * (1.0 - UNTRACED_SHARE)
        {
            tr.set_op(traced_ms.len() as u64);
            let t = Instant::now();
            let (outcomes, summary, ok) = tr.span("op", |tr| traced_op(tr, &w, seed, &exp_spans));
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let probed = tr.span("probe", |tr| (w.probe)(tr, &outcomes, seed, &mut counts));
            if let Err(e) = &probed {
                report.note(format!("probe failed: {e}"));
            }
            failed += u64::from(!same(&summary, ok) || probed.is_err());
        }
        counts.ops = traced_ms.len() as u64;
        counts.untraced_p50_ms = untraced.p50();
        counts.traced_p50_ms = median(&traced_ms);
        if counts.mem.requests != digest_requests * counts.ops {
            report.note("probe request count differs from the scenario parameters");
            failed += 1;
        }
        report.attempted = untraced.attempted() + counts.ops;
        report.failed = failed;
        layers::report(&mut report, &tr, &counts);
        crate::write_spans(&mut report, &tr, args)?;
    }

    report.note(format!(
        "digest {}",
        Json::object([
            ("workload", Json::from(args.workload.as_str())),
            ("seed", Json::from(seed)),
            (
                "summary_fnv1a",
                Json::from(format!("{:016x}", fnv1a(ref_summary.as_bytes())))
            ),
            ("scenarios", Json::from(ref_outcomes.len())),
            ("mem.requests", Json::from(digest_requests)),
            (
                "core.powertherm.iterations",
                Json::from(powertherm_iterations(&ref_outcomes))
            ),
        ])
        .to_string_compact()
    ));
    report.correct = report.failed == 0;
    Ok(report)
}
