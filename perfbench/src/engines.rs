//! Engine probes for the traced run.
//!
//! Each probe rebuilds, from an experiment's outcome, the inputs that
//! experiment hands to an engine, calls the engine's public entry
//! points one layer at a time inside spans, and checks that its results
//! equal the metrics in the outcome. A probe whose results differ is a
//! failed check: it means the probe no longer times the calls the
//! experiment makes.

use std::hint::black_box;

use ehp_core::apu::ApuSystem;
use ehp_core::powertherm::{ControllerConfig, PowerThermalController};
use ehp_core::products::Product;
use ehp_harness::executor::Outcome;
use ehp_mem::channel::EventKernel;
use ehp_mem::subsystem::{BankBuckets, MemConfig, MemorySubsystem};
use ehp_mem::trace::{replay, replay_sequential, Pattern, ReplayResult, TraceConfig};
use ehp_package::floorplan::Floorplan;
use ehp_power::budget::{PowerDomain, SocketPowerManager, WorkloadProfile};
use ehp_sim_core::json::Json;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::{Bandwidth, Bytes, Power};
use ehp_thermal::{ThermalConfig, ThermalSolver};

use crate::trace::Tracer;

/// Simulated memory traffic summed over probed subsystems.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTally {
    pub requests: u64,
    pub reads: u64,
    pub writes: u64,
    pub bytes: u64,
    pub icache_hits: u64,
    pub icache_lookups: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
    pub refreshes: u64,
}

impl MemTally {
    fn add(&mut self, mem: &MemorySubsystem, requests: u64) {
        self.requests += requests;
        self.reads += mem.reads();
        self.writes += mem.writes();
        self.bytes += mem.bytes_served().0;
        for ch in mem.channels() {
            let hits = ch.icache_hits();
            self.icache_hits += hits;
            self.icache_lookups += hits + ch.icache_misses();
            self.row_hits += ch.row_hits();
            self.row_accesses += ch.row_hits() + ch.row_misses();
            self.refreshes += ch.refreshes();
        }
    }
}

/// Grid cells solved by the figure12 probe: two 70x56 and two 70x28
/// solves.
pub const FIGURE12_CELLS: u64 = 2 * 70 * 56 + 2 * 70 * 28;

fn metric(o: &Outcome, name: &str) -> Result<f64, String> {
    o.metrics
        .get(name)
        .copied()
        .ok_or_else(|| format!("{}: no metric {name}", o.scenario.name))
}

/// Bit equality, with NaN equal to NaN.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn expect_same(o: &Outcome, name: &str, probed: f64) -> Result<(), String> {
    let want = metric(o, name)?;
    if same(want, probed) {
        Ok(())
    } else {
        Err(format!(
            "{}: probe gives {name} = {probed}, the experiment {want}",
            o.scenario.name
        ))
    }
}

/// The power split figure12 and the DVFS loop put on the floorplan.
fn assign(fp: &mut Floorplan, pm: &SocketPowerManager) {
    let d = pm.current();
    fp.assign_power("xcd", d.get(PowerDomain::ComputeChiplets).scale(0.88));
    fp.assign_power("ccd", d.get(PowerDomain::ComputeChiplets).scale(0.12));
    fp.assign_power(
        "iod",
        d.get(PowerDomain::InfinityCache) + d.get(PowerDomain::DataFabric),
    );
    fp.assign_power("usr", d.get(PowerDomain::UsrPhys));
    fp.assign_power("hbm_phy", d.get(PowerDomain::HbmPhys));
    fp.assign_power(
        "hbm_stack",
        d.get(PowerDomain::HbmDram) + d.get(PowerDomain::Io),
    );
}

/// figure12's four thermal solves; returns the solve count.
pub fn thermal_figure12(tr: &mut Tracer, o: &Outcome) -> Result<u64, String> {
    let mut pm =
        SocketPowerManager::new(Power::from_watts(o.scenario.f64("socket_power_w", 550.0)));
    pm.apply_profile(WorkloadProfile::ComputeIntensive);
    pm.apply_profile(WorkloadProfile::MemoryIntensive);
    let fine = ThermalSolver::new(ThermalConfig::default());
    let coarse = ThermalSolver::new(ThermalConfig {
        nx: 70,
        ny: 28,
        ..ThermalConfig::default()
    });
    let mut calls = 0;
    for (profile, metric_name) in [
        (WorkloadProfile::ComputeIntensive, "compute_scenario_max_c"),
        (WorkloadProfile::MemoryIntensive, "memory_scenario_max_c"),
    ] {
        pm.apply_profile(profile);
        let mut fp = Floorplan::mi300a();
        assign(&mut fp, &pm);
        let field = tr.span("thermal.solve", |_| fine.solve(&fp));
        let small = tr.span("thermal.solve", |_| coarse.solve(&fp));
        black_box(small);
        calls += 2;
        expect_same(o, metric_name, field.max().0)?;
    }
    Ok(calls)
}

/// power_management's two DVFS loops; returns their iteration total.
pub fn powertherm(tr: &mut Tracer, o: &Outcome) -> Result<u64, String> {
    let socket_w = o.scenario.f64("socket_power_w", 550.0);
    let rows = o
        .payload
        .as_ref()
        .and_then(Json::as_arr)
        .ok_or("power_management: no payload rows")?;
    let mut iterations = 0;
    for (row, tj) in rows.iter().zip([95.0, 42.0]) {
        let mut c = PowerThermalController::new(
            ControllerConfig {
                tj_limit_c: tj,
                thermal: ThermalConfig {
                    nx: 35,
                    ny: 28,
                    ..ThermalConfig::default()
                },
                ..ControllerConfig::default()
            },
            Power::from_watts(socket_w),
        );
        let op = tr.span("core.powertherm.converge", |_| {
            c.converge(WorkloadProfile::ComputeIntensive)
        });
        let want = row.get("iterations").and_then(Json::as_u64);
        let peak = row.get("peak_c").and_then(Json::as_f64);
        if want != Some(u64::from(op.iterations)) || !peak.is_some_and(|p| same(p, op.peak_c)) {
            return Err(format!(
                "power_management: probe converges in {} iterations to {} C, the experiment reports {want:?} / {peak:?}",
                op.iterations, op.peak_c
            ));
        }
        iterations += u64::from(op.iterations);
    }
    Ok(iterations)
}

/// figure7's socket assembly for the outcome's product.
pub fn apu_new(tr: &mut Tracer, o: &Outcome) -> Result<(), String> {
    let product = match o.scenario.str("product", "mi300a") {
        "mi250x" => Product::Mi250x,
        "mi300a" => Product::Mi300a,
        "mi300x" => Product::Mi300x,
        "ehpv4" => Product::Ehpv4,
        other => return Err(format!("figure7: unknown product {other:?}")),
    };
    let apu = tr.span("core.apu.new", |_| ApuSystem::new(product));
    black_box(apu);
    Ok(())
}

/// The result `replay` computes from a finished subsystem.
fn finish(mem: &MemorySubsystem, trace: &TraceConfig, last: SimTime) -> ReplayResult {
    let total = Bytes(trace.accesses * trace.line);
    ReplayResult {
        elapsed: last,
        bandwidth: Bandwidth::from_bytes_per_sec(total.as_f64() / last.as_secs()),
        icache_hit_rate: mem.icache_hit_rate(),
        mean_latency_ns: mem.mean_latency_ns().unwrap_or(0.0),
    }
}

/// Buckets `trace` by flat bank, as `replay` does before a sharded
/// replay.
fn bucket(mem: &MemorySubsystem, trace: &TraceConfig) -> BankBuckets {
    let mut b = BankBuckets::new(mem.total_banks(), Bytes(trace.line), trace.accesses);
    trace.for_each(|req| {
        let (flat, local) = mem.flat_bank_of(req.addr);
        b.push(flat, local, req.is_write());
    });
    b
}

/// `replay` split into its layers: bucketing plus sharded replay for
/// independent patterns with `jobs > 1`, the sequential access path
/// otherwise.
fn replay_layered(tr: &mut Tracer, mem: &mut MemorySubsystem, trace: &TraceConfig) -> ReplayResult {
    if trace.pattern == Pattern::PointerChase || trace.jobs <= 1 {
        return tr.span("mem.replay_sequential", |_| replay_sequential(mem, trace));
    }
    let buckets = tr.span("mem.bucket", |_| bucket(mem, trace));
    let last = tr.span("mem.replay_sharded", |_| {
        mem.replay_sharded(trace.jobs, &buckets)
    });
    finish(mem, trace, last)
}

/// One ic_sweep scenario, rebuilt from its parameters.
pub fn ic_sweep(tr: &mut Tracer, o: &Outcome, tally: &mut MemTally) -> Result<(), String> {
    let sc = &o.scenario;
    let mut cfg = MemConfig::mi300_hbm3();
    let ic_mib = sc.u64("ic_mib", 2);
    cfg.channel.icache_capacity = (ic_mib != 0).then(|| Bytes::from_mib(ic_mib));
    cfg.interleave.stack_granule = sc.u64("stack_granule", 4096).max(256);
    cfg.interleave.channel_granule = sc.u64("channel_granule", 256).max(128);
    cfg.interleave.hashed = sc.bool("hashed", true);
    let pattern = match sc.str("pattern", "hot") {
        "sequential" => Pattern::Sequential,
        "strided" => Pattern::Strided { stride: 1024 },
        "random" => Pattern::Random,
        "chase" => Pattern::PointerChase,
        _ => Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 16 << 20,
        },
    };
    let trace = TraceConfig {
        pattern,
        accesses: sc.u64("accesses", 40_000),
        footprint: sc.u64("footprint_mib", 64) << 20,
        write_fraction: sc.f64("write_fraction", 0.3).clamp(0.0, 1.0),
        line: 128,
        seed: sc.effective_seed(),
        jobs: sc.u64("jobs", 1).max(1) as usize,
    };
    let mut mem = tr.span("mem.new", |_| MemorySubsystem::new(cfg));
    let r = replay_layered(tr, &mut mem, &trace);
    tally.add(&mem, trace.accesses);
    expect_same(o, "achieved_gb_s", r.bandwidth.as_gb_s())?;
    expect_same(o, "icache_hit_rate", r.icache_hit_rate.unwrap_or(0.0))?;
    expect_same(o, "mean_latency_ns", r.mean_latency_ns)
}

/// mem_bank_audit's subsystem constructions and three replays of its
/// hot trace (sequential, sharded on the calendar kernel, sharded on
/// the heap kernel), inside a `mem_bank_audit` span.
pub fn mem_bank_audit(tr: &mut Tracer, o: &Outcome, tally: &mut MemTally) -> Result<(), String> {
    let sc = &o.scenario;
    let trace = TraceConfig {
        pattern: Pattern::Hot {
            hot_fraction: 0.9,
            hot_bytes: 1 << 20,
        },
        accesses: sc.u64("accesses", 20_000),
        footprint: 64 << 20,
        write_fraction: 0.3,
        seed: sc.effective_seed(),
        jobs: sc.u64("jobs", 8).max(1) as usize,
        ..TraceConfig::new(Pattern::Random)
    };
    tr.span("mem_bank_audit", |tr| {
        let probe = tr.span("mem.new", |_| MemorySubsystem::new(MemConfig::mi300_hbm3()));
        black_box(probe);
        let mut seq = tr.span("mem.new", |_| MemorySubsystem::new(MemConfig::mi300_hbm3()));
        let want = tr.span("mem.replay_sequential", |_| {
            replay_sequential(&mut seq, &trace)
        });
        tally.add(&seq, trace.accesses);
        let mut wheel = tr.span("mem.new", |_| MemorySubsystem::new(MemConfig::mi300_hbm3()));
        let sharded = replay_layered(tr, &mut wheel, &trace);
        tally.add(&wheel, trace.accesses);
        let mut heap_cfg = MemConfig::mi300_hbm3();
        heap_cfg.channel.kernel = EventKernel::Heap;
        let mut heap = tr.span("mem.new", |_| MemorySubsystem::new(heap_cfg));
        let heap_res = replay_layered(tr, &mut heap, &trace);
        tally.add(&heap, trace.accesses);
        if sharded != want || heap_res != want {
            return Err("mem_bank_audit: probe replays diverge".to_string());
        }
        expect_same(o, "hot_hit_rate", sharded.icache_hit_rate.unwrap_or(0.0))
    })
}

/// The jobs-1 vs jobs-2 question on one random trace: `replay` at
/// jobs 1 (the per-request access path), `replay` at jobs 2 (bucketing
/// plus two-thread sharded replay), and the sharded path on one thread,
/// which separates the gain of the path from the gain of the threads.
pub fn replay_jobs(tr: &mut Tracer, seed: u64) -> Result<(), String> {
    let base = TraceConfig {
        accesses: 200_000,
        seed,
        ..TraceConfig::new(Pattern::Random)
    };
    let fresh = || MemorySubsystem::new(MemConfig::mi300_hbm3());
    let (mut m1, mut m2, mut m3) = (fresh(), fresh(), fresh());
    let jobs1 = tr.span("mem.replay.jobs1", |_| replay(&mut m1, &base));
    let two = TraceConfig { jobs: 2, ..base };
    let jobs2 = tr.span("mem.replay.jobs2", |_| replay(&mut m2, &two));
    let last = tr.span("mem.replay.sharded_jobs1", |_| {
        let buckets = bucket(&m3, &base);
        m3.replay_sharded(1, &buckets)
    });
    let sharded1 = finish(&m3, &base, last);
    if jobs1 != jobs2 || jobs1 != sharded1 {
        return Err("replay_jobs: the three replay paths diverge".to_string());
    }
    Ok(())
}
