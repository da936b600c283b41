//! Integration tests for flapping faults and the comparison baselines.

use flowpulse::baselines::run_probe_mesh;
use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::fault::{flap_schedule, FaultAction};
use fp_netsim::prelude::*;

#[test]
fn flapping_link_alarms_only_while_flapping() {
    // A link that silently black-holes in bursts: iterations overlapping a
    // "down" phase alarm; iterations entirely in "up" phases do not.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 8,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 4 * 1024 * 1024);
    let demand = sched.demand(8);
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);

    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), 3);
    // One iteration of this workload takes ~250 µs; flap the link with a
    // long "on" phase covering iterations 1-2, then stay healthy.
    let bad = topo.downlink(1, 5);
    for ev in flap_schedule(
        bad,
        FaultKind::SilentDrop { rate: 0.5 },
        SimTime::from_us(300),
        SimDuration::from_us(600),
        SimDuration::from_ms(100),
        1,
        false,
    ) {
        sim.schedule_fault(ev);
    }
    sim.set_app(Box::new(CollectiveRunner::new(
        sched,
        RunnerConfig {
            iterations: 6,
            jitter: JitterModel::None,
            ..Default::default()
        },
    )));
    sim.run();

    let mut mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads);
    mon.scan(&sim.counters, true);
    assert!(
        !mon.alarms.is_empty(),
        "the flap must be caught while active"
    );
    let alarmed: Vec<u32> = mon.alarms.iter().map(|a| a.iter).collect();
    // The last iterations (well after the heal) are clean.
    assert!(
        !alarmed.contains(&5),
        "iteration 5 is after the flap healed: {alarmed:?}"
    );
}

#[test]
fn baseline_comparison_on_one_scenario() {
    // One fabric, one silent fault; compare what each detector family
    // needs to see it.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 8,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 4 * 1024 * 1024);
    let demand = sched.demand(8);
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);

    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), 17);
    let bad = topo.downlink(2, 6);
    sim.apply_fault_now(
        bad,
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.05 }),
        false,
    );
    sim.set_app(Box::new(CollectiveRunner::new(
        sched,
        RunnerConfig {
            iterations: 2,
            ..Default::default()
        },
    )));
    sim.run();

    // FlowPulse: passive, catches it from existing traffic.
    let mut mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads);
    mon.scan(&sim.counters, true);
    assert!(!mon.alarms.is_empty());

    // Probe mesh: needs to inject traffic, and may take several rounds at
    // this drop rate.
    let mut probe_bytes = 0;
    let mut found = false;
    for _ in 0..20 {
        let rep = run_probe_mesh(&mut sim, 1);
        probe_bytes += rep.bytes_injected;
        if rep.detected {
            found = true;
            break;
        }
    }
    assert!(found, "probe mesh should eventually hit the faulty link");
    assert!(probe_bytes > 0, "but only by paying injection overhead");
}

#[test]
fn trial_spec_round_trips_through_json() {
    // The `trial` binary's contract: TrialSpec is fully serializable.
    let spec = TrialSpec {
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.015 },
            at_iter: 1,
            heal_at_iter: Some(3),
            bidirectional: true,
        }),
        model: ModelKind::Learned { warmup: 2 },
        ..Default::default()
    };
    let json = serde_json::to_string_pretty(&spec).unwrap();
    let back: TrialSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(back, spec);
}
