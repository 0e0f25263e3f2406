//! The ehp-sim benchmark.
//!
//! ```text
//! perfbench --workload <suite|mem_sweep|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the program through its public functions only:
//! `ehp_harness::executor::run_batch`/`run_one`, the `ehp serve` socket
//! and the engines' entry points. It measures for about `--seconds`,
//! checks every output, and prints as its last stdout line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Traced runs also write Chrome
//! trace-event JSON and a self-time table under `.bench_out/`.
//! `perfbench/workloads.json` records why each workload exists, its
//! load model, and which per-layer metric should move which end-to-end
//! metric.

mod batch;
mod engines;
mod layers;
mod measure;
mod serve_mix;
mod trace;

use std::process::ExitCode;

/// Where traced runs write their span files and `serve_mix` keeps its
/// sockets and result caches (relative to the working directory).
pub const OUT_DIR: &str = ".bench_out";

/// Set-up repetitions of a `suite` or `mem_sweep` end-to-end run; the
/// median is reported.
pub const SETUP_RUNS: usize = 5;

/// Fresh processes whose median peak resident set is `peak_rss_mib`.
pub const PEAK_PROBES: usize = 3;

/// The first argument that makes this binary run one op of a batch
/// workload and print its peak resident set: `--peak-probe <workload>
/// <seed>`.
pub const PEAK_PROBE_FLAG: &str = "--peak-probe";

/// The first argument that makes this binary an `ehp serve` daemon:
/// the rest of the command line goes to `ehp_harness::cli::run`, which
/// is all the `ehp` binary's `main` does.
pub const DAEMON_FLAG: &str = "--ehp";

/// Writes a traced run's span files and notes where they went.
pub fn write_spans(
    report: &mut measure::Report,
    tr: &trace::Tracer,
    args: &Args,
) -> Result<(), String> {
    let stem = format!("{}-seed{}", args.workload, args.seed);
    tr.write(OUT_DIR.as_ref(), &stem)
        .map_err(|e| format!("cannot write the span files: {e}"))?;
    report.note(format!(
        "spans: {OUT_DIR}/{stem}.trace.json, self time: {OUT_DIR}/{stem}.selftime.txt"
    ));
    for line in tr.self_time_table().lines().take(16) {
        report.note(format!("  {line}"));
    }
    Ok(())
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an unsigned integer")?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["suite", "mem_sweep", "serve_mix"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (suite, mem_sweep, serve_mix)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(DAEMON_FLAG) {
        let code = ehp_harness::cli::run(&argv[1..]);
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    // Scenarios that panic (and are reported as failed ops) print one
    // line, not a backtrace, so their cost does not depend on the
    // environment.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    if argv.first().map(String::as_str) == Some(PEAK_PROBE_FLAG) {
        let seed = argv.get(2).and_then(|s| s.parse::<u64>().ok());
        return match (argv.get(1).map(String::as_str), seed) {
            (Some(w @ ("suite" | "mem_sweep")), Some(seed)) => match batch::peak_probe(w, seed) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("perfbench: {PEAK_PROBE_FLAG} <suite|mem_sweep> <seed>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "serve_mix" {
        serve_mix::run(&args)
    } else {
        batch::run(&args)
    };
    match result {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
