//! Transport edge cases: tiny messages, give-up behaviour, overhead
//! accounting.

use fp_netsim::config::MTU;
use fp_netsim::prelude::*;

fn small() -> Topology {
    Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        ..Default::default()
    })
}

#[test]
fn one_byte_message() {
    let mut sim = Simulator::new(small(), SimConfig::default(), 1);
    let f = sim.post_message(HostId(0), HostId(3), 1, None, Priority::MEASURED);
    sim.run();
    assert!(sim.flow(f).is_complete());
    assert_eq!(sim.flow(f).npkts, 1);
    assert_eq!(sim.stats.bytes_delivered, 1);
}

#[test]
fn message_exactly_one_mtu() {
    let mut sim = Simulator::new(small(), SimConfig::default(), 1);
    let f = sim.post_message(HostId(0), HostId(2), MTU as u64, None, Priority::MEASURED);
    sim.run();
    assert_eq!(sim.flow(f).npkts, 1);
    assert!(sim.flow(f).is_complete());
}

#[test]
fn many_tiny_flows_all_complete() {
    let mut sim = Simulator::new(small(), SimConfig::default(), 2);
    for i in 0..200u64 {
        let src = (i % 4) as u32;
        let dst = ((i + 1) % 4) as u32;
        sim.post_message(HostId(src), HostId(dst), 64 + i, None, Priority::MEASURED);
    }
    sim.run();
    assert!(sim.all_flows_complete());
    assert_eq!(sim.stats.flows_completed, 200);
}

#[test]
fn give_up_after_max_attempts_fires_failure() {
    // A total black hole on the *only* route (1 spine) can never recover:
    // the sender must give up and report failure.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 2,
        spines: 1,
        ..Default::default()
    });
    let cfg = SimConfig {
        rto_max_attempts: 4,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, cfg, 5);
    let bad = sim.topo.downlink(0, 1);
    sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentBlackhole), false);
    let f = sim.post_message(HostId(0), HostId(1), 100_000, None, Priority::MEASURED);
    let r = sim.run();
    assert_eq!(r.reason, fp_netsim::sim::RunReason::Drained);
    assert!(sim.flow(f).failed);
    assert!(!sim.flow(f).is_complete());
    assert!(sim.stats.flows_failed >= 1);
    assert!(sim.stats.retransmits >= 4);
    // Failure shows up in the trace.
    assert!(sim
        .trace
        .records()
        .any(|(_, e)| matches!(e, fp_netsim::trace::TraceEvent::FlowFailed { .. })));
}

#[test]
fn wire_overhead_is_charged_on_the_wire_only() {
    // Counters and delivery totals are payload-only; link tx counters see
    // payload + overhead.
    let mut sim = Simulator::new(small(), SimConfig::default(), 7);
    let tag = CollectiveTag { job: 1, iter: 0 };
    sim.post_message(HostId(0), HostId(2), 40_960, Some(tag), Priority::MEASURED);
    sim.run();
    assert_eq!(sim.stats.bytes_delivered, 40_960);
    assert_eq!(sim.counters.get(1, 0).unwrap().total_bytes(), 40_960);
    // Host uplink carried 10 packets with 64 B of overhead each (plus ACK
    // wire).
    let up = sim.link(sim.topo.host_up[0]);
    assert!(up.txed_bytes >= 40_960 + 10 * 64);
}

#[test]
fn bidirectional_flows_between_same_pair() {
    let mut sim = Simulator::new(small(), SimConfig::default(), 9);
    let a = sim.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
    let b = sim.post_message(HostId(3), HostId(0), 1_000_000, None, Priority::MEASURED);
    sim.run();
    assert!(sim.flow(a).is_complete());
    assert!(sim.flow(b).is_complete());
    assert_eq!(sim.stats.bytes_delivered, 2_000_000);
}

#[test]
fn flow_failure_notifies_application() {
    use std::cell::Cell;
    use std::rc::Rc;
    struct Watch {
        failed: Rc<Cell<u32>>,
    }
    impl fp_netsim::app::Application for Watch {
        fn on_flow_failed(&mut self, _sim: &mut Simulator, _flow: FlowId) {
            self.failed.set(self.failed.get() + 1);
        }
    }
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 2,
        spines: 1,
        ..Default::default()
    });
    let cfg = SimConfig {
        rto_max_attempts: 3,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, cfg, 11);
    let failed = Rc::new(Cell::new(0));
    sim.set_app(Box::new(Watch {
        failed: failed.clone(),
    }));
    let bad = sim.topo.downlink(0, 1);
    sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentBlackhole), false);
    sim.post_message(HostId(0), HostId(1), 8_192, None, Priority::MEASURED);
    sim.run();
    assert_eq!(failed.get(), 1);
}

#[test]
fn retx_counter_tracks_per_flow_losses() {
    // One flow per source host: two same-source flows would phase-lock
    // onto disjoint uplinks under aggregate deficit balancing (the §5.1
    // multi-destination effect) and the lossy path might see no traffic.
    let mut sim = Simulator::new(small(), SimConfig::default(), 13);
    let bad = sim.topo.downlink(0, 3);
    sim.apply_fault_now(
        bad,
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.2 }),
        false,
    );
    let lossy = sim.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
    let clean = sim.post_message(HostId(1), HostId(2), 1_000_000, None, Priority::MEASURED);
    sim.run();
    assert!(sim.flow(lossy).retx > 0);
    assert_eq!(sim.flow(clean).retx, 0);
}
