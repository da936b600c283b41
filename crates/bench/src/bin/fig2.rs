//! E1 / Fig. 2 — "Analytical prediction matches the simulation for a single
//! flow."
//!
//! A single tagged flow crosses the fabric; we compare, per spine-ingress
//! port at the destination leaf, three quantities: the closed-form
//! analytical prediction `d/(s−f)`, the simulation-model prediction, and
//! the volume actually observed by the (packet-level) fabric. Run twice:
//! on a clean fabric and with pre-existing admin-down cables touching the
//! source and destination leaves, which reshape the valid-spine sets.

use flowpulse::prelude::*;
use fp_bench::results::fig2::{table, Row};
use fp_bench::{header, pct, RunConfig};
use fp_collectives::runner::RunnerConfig;
use fp_collectives::schedule::{Schedule, Transfer};
use fp_netsim::prelude::*;

fn single_flow_schedule(src: HostId, dst: HostId, bytes: u64) -> Schedule {
    Schedule {
        name: "single-flow".into(),
        nodes: vec![src, dst],
        transfers: vec![Transfer {
            src,
            dst,
            bytes,
            step: 0,
        }],
        deps: vec![None],
    }
}

fn run_scenario(
    cfg: &RunConfig,
    name: &str,
    topo: &Topology,
    admin_cables: &[(u32, u32)],
    bytes: u64,
    rows: &mut Vec<Row>,
) -> f64 {
    let src = HostId(0);
    let dst_leaf = (topo.n_leaves() / 2) as u32;
    let dst = topo.hosts_of_leaf(dst_leaf).next().unwrap();
    let sched = single_flow_schedule(src, dst, bytes);
    let demand = sched.demand(topo.n_hosts());

    let mut admin_down = Vec::new();
    for &(leaf, v) in admin_cables {
        admin_down.push(topo.uplink(leaf, v));
        admin_down.push(topo.downlink(v, leaf));
    }

    let ana = AnalyticalModel::new(topo, admin_down.iter().copied()).predict(&demand);
    // Model and fabric both follow `FP_SPRAY`.
    let sim_pred = SimulationModel::new(cfg.sim()).predict(topo, &admin_down, &sched, 7);

    // The "production" fabric run: the same one-transfer schedule.
    let rcfg = RunnerConfig {
        job: 7,
        ..Default::default()
    };
    let run = Scenario {
        before: admin_down
            .iter()
            .map(|&l| (l, FaultAction::Set(FaultKind::AdminDown)))
            .collect(),
        ..Scenario::new(topo.clone(), sched, rcfg, cfg.sim(), 42)
    }
    .run();
    assert!(run.all_flows_complete, "flow must complete");
    let obs = PortLoads::from_counters(run.counters.get(7, 0).unwrap());

    let mut worst: f64 = 0.0;
    for v in 0..topo.n_vspines() as u32 {
        let a = ana.loads.get(dst_leaf, v);
        let s = sim_pred.get(dst_leaf, v);
        let o = obs.get(dst_leaf, v);
        let err = if a > 0.0 { (o - a) / a } else { 0.0 };
        worst = worst.max(err.abs());
        rows.push(Row {
            scenario: name.into(),
            vspine: v,
            analytical: a,
            simulated: s,
            observed: o,
            rel_err_analytical: err,
        });
    }
    worst
}

fn main() {
    let cfg = RunConfig::from_env();
    let (leaves, spines, bytes) = if cfg.quick {
        (8u32, 4u32, 8 * 1024 * 1024u64)
    } else {
        (32, 16, 64 * 1024 * 1024)
    };
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        ..Default::default()
    });
    let mut rows = Vec::new();

    let w1 = run_scenario(&cfg, "clean fabric", &topo, &[], bytes, &mut rows);

    // Pre-existing faults touching both ends of the flow's path:
    // one uplink cable at the source leaf, one downlink cable at the
    // destination leaf.
    let dst_leaf = leaves / 2;
    let cables = [(0u32, 1u32), (dst_leaf, spines - 1)];
    let w2 = run_scenario(
        &cfg,
        "with pre-existing faults",
        &topo,
        &cables,
        bytes,
        &mut rows,
    );

    header("Fig 2 — analytical vs simulated vs observed per-port load");
    print!("{}", table(&rows));
    cfg.save_json("fig2", &rows);
    println!(
        "\nFig 2 verdict: analytical model tracks the packet-level fabric to \
         within {} (clean) / {} (pre-existing faults).",
        pct(w1),
        pct(w2)
    );
    assert!(w1 < 0.01 && w2 < 0.01, "Fig 2 agreement regressed");
}
