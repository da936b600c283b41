//! What the readers of finished flows see once a run has drained: the
//! probe mesh's report, a scenario run's "every flow delivered" verdict,
//! and the per-flow transport outcomes of the transport edge cases. The
//! literals were taken on the engine that kept every flow it ever posted,
//! so a flow table that forgets finished flows must reproduce them.

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::config::MTU;
use fp_netsim::prelude::*;

fn fat_tree(leaves: u32, spines: u32) -> Topology {
    Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        ..Default::default()
    })
}

/// A two-round probe mesh on a 4×2 fabric with `kind` on one downlink.
fn probe_mesh(kind: FaultKind, seed: u64) -> ProbeReport {
    let cfg = SimConfig {
        rto_max_attempts: 4,
        ..Default::default()
    };
    let mut sim = Simulator::new(fat_tree(4, 2), cfg, seed);
    let bad = sim.topo.downlink(1, 2);
    sim.apply_fault_now(bad, FaultAction::Set(kind), false);
    run_probe_mesh(&mut sim, 2)
}

#[test]
fn probe_mesh_reports_hold() {
    let drop = probe_mesh(FaultKind::SilentDrop { rate: 0.3 }, 3);
    assert_eq!(format!("{drop:?}"), "ProbeReport { probes_sent: 96, bytes_injected: 393216, detected: true, lossy_dst_leaves: [(0, 1), (1, 4), (2, 5), (3, 3)] }");
    let hole = probe_mesh(FaultKind::SilentBlackhole, 4);
    assert_eq!(format!("{hole:?}"), "ProbeReport { probes_sent: 96, bytes_injected: 393216, detected: true, lossy_dst_leaves: [(0, 6), (1, 6), (2, 12), (3, 6)] }");
}

/// A two-iteration ring on a 2-leaf fabric with one spine, a blackhole on
/// its only downlink into leaf 1 when `broken`.
fn ring_run(broken: bool) -> RawRun {
    let topo = fat_tree(2, 1);
    let hosts: Vec<HostId> = (0..topo.n_hosts() as u32).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 64 * 1024);
    let rcfg = RunnerConfig {
        iterations: 2,
        ..Default::default()
    };
    let cfg = SimConfig {
        rto_max_attempts: 3,
        ..Default::default()
    };
    let down = topo.downlink(0, 1);
    let mut sc = Scenario::new(topo, sched, rcfg, cfg, 7);
    if broken {
        sc.before
            .push((down, FaultAction::Set(FaultKind::SilentBlackhole)));
    }
    sc.run()
}

#[test]
fn all_flows_complete_holds() {
    let clean = ring_run(false);
    assert!(clean.all_flows_complete);
    assert_eq!(clean.stats.flows_failed, 0);
    let broken = ring_run(true);
    assert!(!broken.all_flows_complete);
    assert_eq!(broken.stats.flows_failed, 3);
}

/// `(complete, failed, segments, retransmissions, completed at)`.
fn outcome(sim: &Simulator, f: FlowId) -> (bool, bool, u32, u32, Option<u64>) {
    let f = sim.flow(f);
    (
        f.is_complete(),
        f.failed,
        f.npkts,
        f.retx,
        f.completed_at.map(|t| t.as_ns()),
    )
}

#[test]
fn transport_edge_outcomes_hold() {
    let mut got = Vec::new();

    let mut sim = Simulator::new(fat_tree(4, 2), SimConfig::default(), 1);
    let f = sim.post_message(HostId(0), HostId(3), 1, None, Priority::MEASURED);
    sim.run();
    got.push(outcome(&sim, f));

    let mut sim = Simulator::new(fat_tree(4, 2), SimConfig::default(), 1);
    let f = sim.post_message(HostId(0), HostId(2), MTU as u64, None, Priority::MEASURED);
    sim.run();
    got.push(outcome(&sim, f));

    let mut sim = Simulator::new(fat_tree(4, 2), SimConfig::default(), 9);
    let a = sim.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
    let b = sim.post_message(HostId(3), HostId(0), 1_000_000, None, Priority::MEASURED);
    sim.run();
    got.push(outcome(&sim, a));
    got.push(outcome(&sim, b));

    let cfg = SimConfig {
        rto_max_attempts: 4,
        ..Default::default()
    };
    let mut sim = Simulator::new(fat_tree(2, 1), cfg, 5);
    let bad = sim.topo.downlink(0, 1);
    sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentBlackhole), false);
    let f = sim.post_message(HostId(0), HostId(1), 100_000, None, Priority::MEASURED);
    sim.run();
    got.push(outcome(&sim, f));

    let mut sim = Simulator::new(fat_tree(4, 2), SimConfig::default(), 13);
    let bad = sim.topo.downlink(0, 3);
    let drop = FaultKind::SilentDrop { rate: 0.2 };
    sim.apply_fault_now(bad, FaultAction::Set(drop), false);
    let lossy = sim.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
    let clean = sim.post_message(HostId(1), HostId(2), 1_000_000, None, Priority::MEASURED);
    sim.run();
    got.push(outcome(&sim, lossy));
    got.push(outcome(&sim, clean));

    assert_eq!(format!("{got:?}"), "[(true, false, 1, 0, Some(608)), (true, false, 1, 0, Some(936)), (true, false, 245, 0, Some(21478)), (true, false, 245, 0, Some(21478)), (false, true, 25, 100, None), (true, false, 245, 18, Some(26432)), (true, false, 245, 0, Some(21361))]");
}
