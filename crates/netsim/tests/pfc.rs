//! PFC backpressure and priority-scheduling integration tests.
//!
//! The fabric is lossless (paper §2): congestion must produce *pauses*,
//! never drops. These tests build a deliberate incast to exercise the
//! XOFF/XON machinery, and verify strict-priority isolation of the
//! measured traffic class.

use fp_netsim::prelude::*;

fn incast_fabric() -> Topology {
    Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 4,
        ..Default::default()
    })
}

#[test]
fn incast_triggers_pfc_not_drops() {
    let topo = incast_fabric();
    let mut cfg = SimConfig::default();
    // Small thresholds so the incast trips XOFF quickly.
    cfg.pfc.xoff_bytes = 32 * 1024;
    cfg.pfc.xon_bytes = 16 * 1024;
    let mut sim = Simulator::new(topo, cfg, 17);
    // 12 remote hosts all blast host 0: the leaf0→host0 downlink is a 12:1
    // bottleneck, its egress queue must push back on the spine ingress.
    let n = sim.topo.n_hosts() as u32;
    for src in 4..n {
        sim.post_message(HostId(src), HostId(0), 2_000_000, None, Priority::MEASURED);
    }
    let r = sim.run();
    assert_eq!(r.reason, fp_netsim::sim::RunReason::Drained);
    assert!(sim.all_flows_complete());
    assert_eq!(sim.stats.total_drops(), 0, "lossless fabric must not drop");
    assert!(
        sim.stats.pfc_pauses > 0,
        "a 12:1 incast with small thresholds must trigger PFC"
    );
    assert!(
        sim.stats.pfc_resumes > 0,
        "queues must drain and resume after the pause"
    );
    // Trace captured the pause transitions.
    let pauses = sim
        .trace
        .records()
        .filter(|(_, e)| matches!(e, fp_netsim::trace::TraceEvent::PfcState { .. }))
        .count();
    assert!(pauses > 0);
}

#[test]
fn pfc_can_be_disabled() {
    let topo = incast_fabric();
    let mut cfg = SimConfig::default();
    cfg.pfc.enabled = false;
    let mut sim = Simulator::new(topo, cfg, 18);
    let n = sim.topo.n_hosts() as u32;
    for src in 4..n {
        sim.post_message(HostId(src), HostId(0), 1_000_000, None, Priority::MEASURED);
    }
    sim.run();
    // Queues are unbounded, so still no drops — just no backpressure.
    assert!(sim.all_flows_complete());
    assert_eq!(sim.stats.pfc_pauses, 0);
    assert_eq!(sim.stats.total_drops(), 0);
}

#[test]
fn strict_priority_isolates_the_measured_class() {
    // One bottleneck link, one measured flow racing a pile of background
    // flows posted *first*: the measured flow must finish far earlier than
    // fair sharing would allow.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 2,
        spines: 1,
        hosts_per_leaf: 2,
        ..Default::default()
    });
    let mut sim = Simulator::new(topo, SimConfig::default(), 19);
    // Background: host1 floods host2 through the single spine.
    for _ in 0..8 {
        sim.post_message(HostId(1), HostId(2), 4_000_000, None, Priority::BACKGROUND);
    }
    // Measured: host0 → host3 shares every fabric link with the flood.
    let m = sim.post_message(HostId(0), HostId(3), 4_000_000, None, Priority::MEASURED);
    sim.run();
    assert!(sim.all_flows_complete());
    let m_done = sim.flow(m).completed_at.unwrap();
    let bg_last = sim
        .flow_ids()
        .filter(|&id| id != m)
        .map(|id| sim.flow(id).completed_at.unwrap())
        .max()
        .unwrap();
    assert!(
        m_done.as_ns() * 3 < bg_last.as_ns(),
        "measured {} vs background tail {}",
        m_done,
        bg_last
    );
}

#[test]
fn pause_state_is_per_priority() {
    // Saturate the BACKGROUND class hard enough to pause it, while a
    // MEASURED flow keeps flowing: pauses must not bleed across classes.
    let topo = incast_fabric();
    let mut cfg = SimConfig::default();
    cfg.pfc.xoff_bytes = 32 * 1024;
    cfg.pfc.xon_bytes = 16 * 1024;
    let mut sim = Simulator::new(topo, cfg, 23);
    let n = sim.topo.n_hosts() as u32;
    for src in 4..n {
        sim.post_message(
            HostId(src),
            HostId(0),
            1_500_000,
            None,
            Priority::BACKGROUND,
        );
    }
    let m = sim.post_message(HostId(5), HostId(1), 1_500_000, None, Priority::MEASURED);
    sim.run();
    assert!(sim.all_flows_complete());
    assert_eq!(sim.stats.total_drops(), 0);
    // The measured flow to an *uncongested* destination finished well
    // before the incast tail despite sharing its source host and leaf.
    let m_done = sim.flow(m).completed_at.unwrap();
    let tail = sim
        .flow_ids()
        .map(|id| sim.flow(id).completed_at.unwrap())
        .max()
        .unwrap();
    assert!(m_done < tail);
}
