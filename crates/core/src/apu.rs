//! The assembled socket: memory + fabric + dispatch + coherence + power
//! in one object, plus the Figure 7 interface-bandwidth audit.

use ehp_coherence::probe_filter::ProbeFilter;
use ehp_compute::kernel::{estimate, KernelProgram, KernelTiming, MemoryEnv};
use ehp_compute::occupancy::CuResources;
use ehp_dispatch::aql::AqlPacket;
use ehp_dispatch::dispatcher::{DispatchRun, DispatcherConfig, MultiXcdDispatcher};
use ehp_fabric::fabric::FabricSim;
use ehp_fabric::link::LinkTech;
use ehp_fabric::topology::{NodeKey, Topology};
use ehp_mem::icache::{InfinityCacheSlice, PrefetcherConfig};
use ehp_mem::request::MemRequest;
use ehp_mem::subsystem::{MemConfig, MemorySubsystem};
use ehp_power::budget::SocketPowerManager;
use ehp_sim_core::ids::AgentId;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bandwidth;

use crate::products::{Product, ProductSpec};

/// One row of the Figure 7 interface-bandwidth audit.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceBandwidth {
    /// Interface name.
    pub name: &'static str,
    /// Link technology.
    pub tech: LinkTech,
    /// Number of such interfaces per socket.
    pub count: u32,
    /// Bidirectional bandwidth per interface.
    pub per_interface: Bandwidth,
}

impl InterfaceBandwidth {
    /// Aggregate bidirectional bandwidth for all interfaces of this kind.
    #[must_use]
    pub fn aggregate(&self) -> Bandwidth {
        self.per_interface.scale(f64::from(self.count))
    }
}

/// The result of an end-to-end program run on the socket.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// The cooperative dispatch record.
    pub dispatch: DispatchRun,
    /// Per-wavefront microarchitectural timing used for durations.
    pub timing: KernelTiming,
    /// Time the program's memory stream drained.
    pub memory_done: SimTime,
    /// Bytes the program streamed through the memory subsystem.
    pub bytes_streamed: ehp_sim_core::units::Bytes,
    /// Per-XCD L2 hit rate over the program's global traffic; `None` if
    /// the program issued none.
    pub l2_hit_rate: Option<f64>,
}

/// A whole-socket simulator for one product.
#[derive(Debug)]
pub struct ApuSystem {
    spec: ProductSpec,
    mem: MemorySubsystem,
    fabric: FabricSim,
    dispatcher: MultiXcdDispatcher,
    coherence: ProbeFilter,
    power: SocketPowerManager,
    /// Per-XCD L2 caches ("a 4MB L2 cache that serves to coalesce all of
    /// the memory traffic for the die").
    l2s: Vec<InfinityCacheSlice>,
}

impl ApuSystem {
    /// Assembles the socket model for a product.
    #[must_use]
    pub fn new(product: Product) -> ApuSystem {
        let spec = product.spec();
        let mem = MemorySubsystem::new(match product {
            Product::Mi250x | Product::Ehpv4 => MemConfig::mi250x_hbm2e(),
            _ => MemConfig::mi300_hbm3(),
        });
        let fabric = FabricSim::new(match product {
            Product::Ehpv4 => Topology::ehpv4_package(),
            Product::Mi300a => Topology::mi300_package(2, 3),
            _ => Topology::mi300_package(2, 0),
        });
        let dispatcher = MultiXcdDispatcher::new(DispatcherConfig {
            xcds: spec.gpu_chiplets,
            cus_per_xcd: spec.cus_per_chiplet,
            aces_per_xcd: 4,
            ..DispatcherConfig::mi300a_partition()
        });
        let l2s = (0..spec.gpu_chiplets)
            .map(|_| {
                InfinityCacheSlice::new(spec.xcd_spec().l2, 16, 128, PrefetcherConfig::disabled())
            })
            .collect();
        ApuSystem {
            spec,
            mem,
            fabric,
            dispatcher,
            coherence: ProbeFilter::new(),
            power: SocketPowerManager::new(spec.tdp),
            l2s,
        }
    }

    /// The product spec.
    #[must_use]
    pub fn spec(&self) -> &ProductSpec {
        &self.spec
    }

    /// Fabric nodes of the GPU chiplets (XCDs), in chiplet order.
    pub fn xcd_nodes(&self) -> impl Iterator<Item = NodeKey> {
        let first = if self.ccds_first() { self.spec.ccds } else { 0 };
        (first..first + self.spec.gpu_chiplets).map(NodeKey::Chiplet)
    }

    /// Fabric nodes of the CPU chiplets (CCDs), in chiplet order; empty
    /// for GPU-only products.
    pub fn ccd_nodes(&self) -> impl Iterator<Item = NodeKey> {
        let first = if self.ccds_first() {
            0
        } else {
            self.spec.gpu_chiplets
        };
        (first..first + self.spec.ccds).map(NodeKey::Chiplet)
    }

    /// The package's chiplet numbering: the EHPv4 package puts its CCDs
    /// first, the MI300 package numbers them after the XCDs.
    fn ccds_first(&self) -> bool {
        self.spec.product == Product::Ehpv4
    }

    /// The memory subsystem.
    #[must_use]
    pub fn memory(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// Mutable memory subsystem (for workload drivers).
    pub fn memory_mut(&mut self) -> &mut MemorySubsystem {
        &mut self.mem
    }

    /// The in-package fabric.
    #[must_use]
    pub fn fabric(&self) -> &FabricSim {
        &self.fabric
    }

    /// Mutable fabric.
    pub fn fabric_mut(&mut self) -> &mut FabricSim {
        &mut self.fabric
    }

    /// The coherence directory.
    #[must_use]
    pub fn coherence(&self) -> &ProbeFilter {
        &self.coherence
    }

    /// The power manager.
    #[must_use]
    pub fn power(&self) -> &SocketPowerManager {
        &self.power
    }

    /// Mutable power manager.
    pub fn power_mut(&mut self) -> &mut SocketPowerManager {
        &mut self.power
    }

    /// Dispatches a kernel across the socket's GPU chiplets.
    pub fn launch_kernel(
        &mut self,
        pkt: &AqlPacket,
        wg_cycles: impl FnMut(u64) -> u64,
    ) -> DispatchRun {
        self.dispatcher.dispatch(pkt, wg_cycles)
    }

    /// A coherent memory access from an agent: consults the probe filter
    /// then performs the access.
    pub fn coherent_access(&mut self, at: SimTime, req: MemRequest) -> SimTime {
        let line = req.addr / 128;
        let action = if req.is_write() {
            self.coherence.write(req.agent, line)
        } else {
            self.coherence.read(req.agent, line)
        };
        // Each probe costs a cross-die round trip into the owning agent's
        // cache hierarchy (request, flush, response) on top of the memory
        // access. Cache-to-cache transfers across the IOD fabric land in
        // the ~200 ns class — well above a local DRAM miss, so a probed
        // line is always dearer than a clean one.
        let probe_penalty = SimTime::from_nanos(180 * action.probes.len() as u64);
        let resp = self.mem.access(at + probe_penalty, req);
        resp.completes_at
    }

    /// A convenience coherent read.
    pub fn read(&mut self, at: SimTime, agent: AgentId, addr: u64) -> SimTime {
        self.coherent_access(at, MemRequest::read(addr, 128).from_agent(agent))
    }

    /// A convenience coherent write.
    pub fn write(&mut self, at: SimTime, agent: AgentId, addr: u64) -> SimTime {
        self.coherent_access(at, MemRequest::write(addr, 128).from_agent(agent))
    }

    /// Runs a [`KernelProgram`] end to end: wavefront timing from the
    /// microarchitectural estimator, cooperative dispatch across the
    /// XCDs, and the program's global loads/stores streamed through the
    /// memory subsystem.
    ///
    /// Each workgroup streams its slice of a contiguous array starting at
    /// `base_addr`.
    pub fn run_program(
        &mut self,
        prog: &KernelProgram,
        workgroups: u32,
        base_addr: u64,
    ) -> ProgramRun {
        let cu_model = ehp_compute::cu::CuModel::new(self.spec.xcd_spec().cu);
        let timing = estimate(&cu_model, &CuResources::cdna3(), prog, &MemoryEnv::mi300());
        let wg_cycles = timing.total_cycles;
        let pkt = AqlPacket::dispatch_1d(
            workgroups * u32::from(prog.resources.waves_per_workgroup as u16) * 64,
            u16::try_from(prog.resources.waves_per_workgroup * 64).expect("wg size fits"),
        );
        let dispatch = self.dispatcher.dispatch(&pkt, |_| wg_cycles);

        // Global traffic: one 128 B line per load/store per wavefront.
        // Each workgroup's traffic first filters through its XCD's L2
        // (workgroups round-robin across XCDs like the dispatcher); only
        // misses reach the memory subsystem.
        let lines_per_wg =
            (prog.loads() + prog.stores()) * u64::from(prog.resources.waves_per_workgroup);
        let mut memory_done = SimTime::ZERO;
        let n_xcds = self.l2s.len().max(1) as u64;
        for wg in 0..u64::from(workgroups) {
            let xcd = (wg % n_xcds) as usize;
            let wg_base = base_addr + wg * lines_per_wg * 128;
            for l in 0..lines_per_wg {
                let addr = wg_base + l * 128;
                let hit = self
                    .l2s
                    .get_mut(xcd)
                    .map(|l2| l2.access(addr, false).is_hit())
                    .unwrap_or(false);
                if !hit {
                    let resp = self.mem.access(SimTime::ZERO, MemRequest::read(addr, 128));
                    if resp.completes_at > memory_done {
                        memory_done = resp.completes_at;
                    }
                }
            }
        }

        let (mut hits, mut total) = (0u64, 0u64);
        for l2 in &self.l2s {
            hits += l2.hits() + l2.prefetch_hits();
            total += l2.hits() + l2.prefetch_hits() + l2.misses();
        }

        ProgramRun {
            dispatch,
            timing,
            memory_done,
            bytes_streamed: ehp_sim_core::units::Bytes(lines_per_wg * u64::from(workgroups) * 128),
            l2_hit_rate: (total > 0).then(|| hits as f64 / total as f64),
        }
    }

    /// Per-XCD L2 caches (read-only).
    #[must_use]
    pub fn l2s(&self) -> &[InfinityCacheSlice] {
        &self.l2s
    }

    /// The Figure 7 audit: bandwidth of each interface class on the
    /// socket.
    #[must_use]
    pub fn interface_bandwidths(&self) -> Vec<InterfaceBandwidth> {
        let bidi = |tech: LinkTech| {
            let s = tech.spec();
            s.per_direction + s.per_direction
        };
        let hbm_per_stack = self.spec.hbm.stack_bandwidth();
        vec![
            InterfaceBandwidth {
                name: "XCD/CCD 3D hybrid bond",
                tech: LinkTech::HybridBond3D,
                count: self.spec.gpu_chiplets + self.spec.ccds,
                per_interface: bidi(LinkTech::HybridBond3D),
            },
            InterfaceBandwidth {
                name: "IOD-IOD USR",
                tech: LinkTech::Usr,
                count: 4,
                per_interface: bidi(LinkTech::Usr),
            },
            InterfaceBandwidth {
                name: "HBM PHY",
                tech: LinkTech::HbmPhy,
                count: self.spec.hbm_stacks,
                per_interface: hbm_per_stack,
            },
            InterfaceBandwidth {
                name: "x16 IF/PCIe",
                tech: LinkTech::X16InfinityFabric,
                count: self.spec.x16_links,
                per_interface: self.spec.x16_per_direction + self.spec.x16_per_direction,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehp_mem::request::ServicePoint;

    #[test]
    fn mi300a_assembles() {
        let apu = ApuSystem::new(Product::Mi300a);
        assert_eq!(apu.spec().name, "MI300A");
        assert_eq!(apu.memory().channels().len(), 128);
    }

    #[test]
    fn kernel_dispatch_through_socket() {
        let mut apu = ApuSystem::new(Product::Mi300a);
        let pkt = AqlPacket::dispatch_1d(228 * 256, 256);
        let run = apu.launch_kernel(&pkt, |_| 1_000);
        assert_eq!(run.workgroups_launched, 228);
        assert_eq!(run.per_xcd.len(), 6);
    }

    #[test]
    fn coherent_cpu_gpu_handoff_costs_a_probe() {
        let mut apu = ApuSystem::new(Product::Mi300a);
        let cpu = AgentId(0);
        let gpu = AgentId(1);
        // CPU writes, GPU reads the same line: the read triggers a probe.
        apu.write(SimTime::ZERO, cpu, 0x1000);
        let t_probe = apu.read(SimTime::ZERO, gpu, 0x1000);
        // An unshared line has no probe cost.
        let t_clean = apu.read(SimTime::ZERO, gpu, 0x200000);
        assert!(t_probe > t_clean);
        assert_eq!(apu.coherence().probes_sent(), 1);
    }

    #[test]
    fn figure7_interface_hierarchy() {
        let apu = ApuSystem::new(Product::Mi300a);
        let rows = apu.interface_bandwidths();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name.contains(name))
                .unwrap()
                .aggregate()
                .as_tb_s()
        };
        let bond = get("hybrid bond");
        let usr = get("USR");
        let hbm = get("HBM");
        let x16 = get("x16");
        // 3D bond > USR > HBM > x16 in aggregate.
        assert!(bond > usr, "bond {bond} vs usr {usr}");
        assert!(usr > hbm, "USR must not bottleneck HBM: {usr} vs {hbm}");
        assert!(hbm > x16);
        // "the USR interfaces deliver multiple TB/s of bandwidth".
        assert!(usr >= 2.0);
        // HBM aggregate ~5.3 TB/s.
        assert!((hbm - 5.3).abs() < 0.05);
    }

    #[test]
    fn memory_access_uses_icache_on_mi300() {
        let mut apu = ApuSystem::new(Product::Mi300a);
        let req = MemRequest::read(0x4000, 128);
        apu.memory_mut().access(SimTime::ZERO, req);
        let resp = apu.memory_mut().access(SimTime::ZERO, req);
        assert_eq!(resp.served_by, ServicePoint::InfinityCache);
    }

    #[test]
    fn run_program_end_to_end() {
        use ehp_compute::kernel::KernelProgram;
        let mut apu = ApuSystem::new(Product::Mi300a);
        let prog = KernelProgram::triad(16);
        let run = apu.run_program(&prog, 228, 0);
        assert_eq!(run.dispatch.workgroups_launched, 228);
        assert!(run.memory_done > SimTime::ZERO);
        // Triad: (2 loads + 1 store) x 16 trips x 4 waves x 228 wgs.
        assert_eq!(run.bytes_streamed.as_u64(), 3 * 16 * 4 * 228 * 128);
        assert!(run.timing.issue_efficiency() > 0.0);
        // Distinct addresses per workgroup: cold L2, everything misses.
        assert!(run.l2_hit_rate.unwrap() < 0.05);
    }

    #[test]
    fn rerunning_a_program_hits_the_l2() {
        use ehp_compute::kernel::KernelProgram;
        let mut apu = ApuSystem::new(Product::Mi300a);
        let prog = KernelProgram::triad(4);
        let cold = apu.run_program(&prog, 60, 0);
        // Same addresses again: the 4 MB x 6 L2s hold the working set.
        let warm = apu.run_program(&prog, 60, 0);
        assert!(
            warm.l2_hit_rate.unwrap() > cold.l2_hit_rate.unwrap() + 0.3,
            "warm {:?} vs cold {:?}",
            warm.l2_hit_rate,
            cold.l2_hit_rate
        );
    }

    #[test]
    fn compute_heavy_program_dispatch_dominates_memory() {
        use ehp_compute::dtype::DataType;
        use ehp_compute::kernel::KernelProgram;
        let mut apu = ApuSystem::new(Product::Mi300a);
        let gemm = KernelProgram::gemm_inner(DataType::Fp16, 2_000);
        let run = apu.run_program(&gemm, 228, 0);
        // GEMM streams nothing globally in this inner body.
        assert_eq!(run.bytes_streamed.as_u64(), 0);
        assert!(run.dispatch.last_retire.0 > 8_000);
    }

    #[test]
    fn power_budget_respected_at_assembly() {
        let apu = ApuSystem::new(Product::Mi300a);
        apu.power().check_budget().unwrap();
        assert_eq!(apu.power().tdp().as_watts(), 550.0);
    }
}
