//! **Figure 7**: MI300A IOD bandwidths across the interface classes
//! (3D hybrid bond, USR, HBM PHY, x16), plus a timed check that traffic
//! through the assembled fabric achieves the claimed rates.

use ehp_core::apu::ApuSystem;
use ehp_core::products::Product;
use ehp_fabric::topology::NodeKey;
use ehp_sim_core::json::Json;
use ehp_sim_core::time::SimTime;
use ehp_sim_core::units::Bytes;

use crate::experiment::ExperimentResult;
use crate::report::Report;
use crate::scenario::Scenario;

pub(crate) fn run(sc: &Scenario) -> ExperimentResult {
    let mut rep = Report::new(&sc.name);
    let product = super::product_param(sc, Product::Mi300a);
    let mut apu = ApuSystem::new(product);

    rep.section("Interface bandwidths (bidirectional)");
    let mut rows = Vec::new();
    let mut usr_aggregate_tb_s = 0.0;
    let mut hbm_aggregate_tb_s = 0.0;
    for i in apu.interface_bandwidths() {
        rep.row(format!(
            "  {:<28} x{:<3} {:>10.1} GB/s each   {:>8.2} TB/s aggregate",
            i.name,
            i.count,
            i.per_interface.as_gb_s(),
            i.aggregate().as_tb_s()
        ));
        if i.name.contains("USR") {
            usr_aggregate_tb_s = i.aggregate().as_tb_s();
        }
        if i.name.contains("HBM") {
            hbm_aggregate_tb_s = i.aggregate().as_tb_s();
        }
        rows.push(Json::object([
            ("interface", Json::from(i.name)),
            ("count", Json::from(i.count)),
            ("per_interface_gb_s", Json::Num(i.per_interface.as_gb_s())),
            ("aggregate_tb_s", Json::Num(i.aggregate().as_tb_s())),
        ]));
    }

    rep.section("Timed transfers through the assembled fabric");
    let mb = Bytes::from_mib(64);
    // The XCD times a stack at every IOD distance the package has, the
    // CCD (if the product has one) its nearest stack. Each row targets a
    // stack no earlier row used, so rows never share an HBM PHY.
    let xcd = apu
        .xcd_nodes()
        .next()
        .expect("every product has a GPU chiplet");
    let mut cases: Vec<(String, NodeKey, NodeKey)> = Vec::new();
    for (iods, reach) in REACH.iter().enumerate() {
        if let Some(stack) = free_stack_at(&apu, xcd, iods, &cases) {
            cases.push((format!("XCD -> {reach}"), xcd, stack));
        }
    }
    if let Some(ccd) = apu.ccd_nodes().next() {
        let nearest = REACH.iter().enumerate().find_map(|(iods, reach)| {
            let stack = free_stack_at(&apu, ccd, iods, &cases)?;
            Some((format!("CCD -> {reach}"), ccd, stack))
        });
        cases.extend(nearest);
    }
    let mut local_bw_gb_s = 0.0;
    for (name, from, to) in cases {
        let t = apu
            .fabric_mut()
            .send(SimTime::ZERO, from, to, mb)
            .expect("reachable");
        let bw = mb.as_f64() / t.latency().as_secs() / 1e9;
        if name == "XCD -> local HBM stack" {
            local_bw_gb_s = bw;
        }
        rep.row(format!(
            "  {name:<28} {} hops, {:>8.3} effective GB/s, {:>10.3} pJ/B",
            t.hops,
            bw,
            t.energy.as_joules() * 1e12 / mb.as_f64()
        ));
    }

    rep.kv(
        "USR aggregate (paper: 'multiple TB/s')",
        format!("{usr_aggregate_tb_s:.1} TB/s"),
    );

    let mut res = ExperimentResult::new(rep);
    res.metric("usr_aggregate_tb_s", usr_aggregate_tb_s);
    res.metric("hbm_aggregate_tb_s", hbm_aggregate_tb_s);
    res.metric("xcd_local_hbm_gb_s", local_bw_gb_s);
    res.set_payload(Json::Arr(rows));
    res
}

/// Row labels by the number of IOD-to-IOD links a transfer crosses.
const REACH: [&str; 3] = ["local HBM stack", "adjacent-IOD HBM", "diagonal-IOD HBM"];

/// The lowest-index HBM stack `iods` IOD-to-IOD links away from
/// `chiplet` that no row in `taken` targets yet, if any. Chiplets and
/// stacks both hang off IODs, so a stack on the chiplet's own IOD is 2
/// hops away and each IOD crossed adds one.
fn free_stack_at(
    apu: &ApuSystem,
    chiplet: NodeKey,
    iods: usize,
    taken: &[(String, NodeKey, NodeKey)],
) -> Option<NodeKey> {
    let topo = apu.fabric().topology();
    topo.nodes().iter().copied().find(|&n| {
        matches!(n, NodeKey::HbmStack(_))
            && topo.hops(chiplet, n) == Some(2 + iods)
            && taken.iter().all(|&(_, _, t)| t != n)
    })
}
