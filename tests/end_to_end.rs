//! Cross-crate integration tests: full pipeline from topology through
//! collectives to detection and localization, at sizes that keep the suite
//! fast while still exercising real packet-level behaviour.

use flowpulse::prelude::*;
use fp_collectives::jitter::JitterModel;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;

fn small() -> TrialSpec {
    TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 4 * 1024 * 1024,
        iterations: 3,
        jitter: JitterModel::None,
        ..Default::default()
    }
}

#[test]
fn temporal_symmetry_holds_end_to_end() {
    let r = run_trial(&small());
    assert!(!r.false_alarm);
    // With no jitter and deterministic adaptive spraying, observed loads
    // repeat across iterations bit-for-bit.
    assert_eq!(r.snapshots[0].bytes, r.snapshots[1].bytes);
    assert_eq!(r.snapshots[1].bytes, r.snapshots[2].bytes);
}

#[test]
fn analytical_prediction_matches_fabric() {
    let r = run_trial(&small());
    let pred = r.predicted.as_ref().unwrap();
    let dev = Detector::default().max_abs_rel(pred, &r.snapshots[0].loads());
    assert!(dev < 0.005, "model-vs-fabric deviation {:.4}%", dev * 100.0);
}

#[test]
fn detection_pipeline_catches_a_two_percent_drop() {
    let mut spec = small();
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.02 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected && !r.false_alarm);
    assert_eq!(r.localized_correctly, Some(true));
    // The alarm names the right leaf: the fault's destination leaf.
    let (fleaf, _) = r.fault_port.unwrap();
    assert!(r.alarms.iter().all(|a| a.leaf == fleaf));
}

#[test]
fn reduce_scatter_workload_works_too() {
    // The paper's "31-stage Ring-AllReduce" is an N−1-stage pipeline.
    let mut spec = small();
    spec.collective = CollectiveKind::RingReduceScatter;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.03 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected && !r.false_alarm);
}

#[test]
fn halving_doubling_collective_is_monitorable() {
    let mut spec = small();
    spec.collective = CollectiveKind::HalvingDoubling;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.05 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected, "devs: {:?}", r.iter_max_dev);
    assert!(!r.false_alarm);
}

#[test]
fn alltoall_collective_is_monitorable_via_subset() {
    // Multi-destination workloads break the analytical model's
    // per-pair-even-split assumption: adaptive spraying balances
    // *aggregate* bytes per uplink, not per destination — and the per-dst
    // split is not even stable across iterations. This is the §5.1 caveat
    // that leads the paper to measure a single non-local flow per leaf,
    // prioritized above the rest; `run_trial` applies that subset
    // treatment to AllToAll automatically, making the analytical model fit
    // and faults on the measured paths detectable.
    let mut spec = small();
    spec.collective = CollectiveKind::AllToAll;
    spec.bytes_per_node = 14 * 1024 * 1024;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.05 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected && !r.false_alarm, "devs: {:?}", r.iter_max_dev);
}

#[test]
fn alltoall_subset_measurement_fits_the_model() {
    // Clean AllToAll with subset measurement: every iteration within the
    // 1% threshold of the analytical prediction (full tagging would not
    // be — see `alltoall_full_tagging_mismatch`).
    let mut spec = small();
    spec.collective = CollectiveKind::AllToAll;
    spec.bytes_per_node = 14 * 1024 * 1024;
    let r = run_trial(&spec);
    assert!(
        r.iter_max_dev.iter().all(|&(_, d)| d < 0.01),
        "subset measurement should fit: {:?}",
        r.iter_max_dev
    );
    assert!(!r.false_alarm);
}

#[test]
fn alltoall_full_tagging_mismatch() {
    // Tag *everything* in an AllToAll and compare against the analytical
    // per-pair-even split: the aggregate-balancing adaptive spray deviates
    // beyond the threshold on later iterations. This is the effect §5.1's
    // subset selection exists to avoid.
    use fp_collectives::alltoall::alltoall_uniform;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 8,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let sched = alltoall_uniform(&hosts, 2 * 1024 * 1024);
    let demand = sched.demand(8);
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);
    let rcfg = RunnerConfig {
        iterations: 3,
        ..Default::default()
    };
    let run = Scenario::new(topo, sched, rcfg, SimConfig::default(), 31).run();
    let mut worst = 0.0f64;
    for i in run.counters.iters_of(1) {
        let obs = PortLoads::from_counters(run.counters.get(1, i).unwrap());
        worst = worst.max(Detector::default().max_abs_rel(&pred.loads, &obs));
    }
    assert!(
        worst > 0.01,
        "expected >1% mismatch for full tagging, got {:.3}%",
        worst * 100.0
    );
}

#[test]
fn transient_fault_with_learned_model_rebaselines() {
    // A black-hole transient gives a deterministic fault-period baseline
    // (random-drop faults leave sampling noise in any baseline learned
    // while they are active — a genuine limitation of learning during a
    // gray fault).
    let mut spec = small();
    spec.iterations = 6;
    spec.model = ModelKind::Learned { warmup: 1 };
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Blackhole,
        at_iter: 0,
        heal_at_iter: Some(3),
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(
        r.learned_events
            .iter()
            .any(|(_, u)| matches!(u, LearnedUpdate::Rebalanced)),
        "events: {:?}",
        r.learned_events
    );
    // After rebaselining there are no alarms (fault was only before heal,
    // and the baseline had *learned* the faulty state so no alarm then
    // either — exactly Fig. 3).
    assert!(r.alarms.is_empty(), "alarms: {:?}", r.alarms);
}

#[test]
fn parallel_links_are_virtual_spines() {
    let mut spec = small();
    spec.leaves = 4;
    spec.spines = 2;
    spec.parallel_links = 2;
    spec.bytes_per_node = 2 * 1024 * 1024;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.05 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected && !r.false_alarm);
    // The alarm singles out one *plane*, not the whole physical spine:
    // exactly one of the two planes of some spine shows a shortfall (the
    // others may show the small retransmission-overflow excess).
    let ports = r
        .alarms
        .iter()
        .flat_map(|a| {
            a.deviations
                .iter()
                .filter(|d| d.rel < 0.0)
                .map(|d| d.vspine)
        })
        .collect::<std::collections::HashSet<_>>();
    assert_eq!(ports.len(), 1);
}

#[test]
fn preexisting_faults_plus_new_fault() {
    let mut spec = small();
    spec.preexisting = 2;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.05 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert_eq!(r.preexisting_ports.len(), 2);
    assert!(r.detected && !r.false_alarm);
}

#[test]
fn simulation_model_pipeline() {
    let mut spec = small();
    spec.model = ModelKind::Simulation;
    spec.preexisting = 1;
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.03 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let r = run_trial(&spec);
    assert!(r.detected && !r.false_alarm);
}

#[test]
fn different_seeds_place_different_faults() {
    let mk = |seed| {
        let mut spec = small();
        spec.seed = seed;
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        run_trial(&spec).fault_port.unwrap()
    };
    let ports: std::collections::HashSet<_> = (0..6).map(mk).collect();
    assert!(ports.len() >= 3, "fault placement not varied: {ports:?}");
}

#[test]
fn trial_runs_are_reproducible() {
    let mut spec = small();
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.015 },
        at_iter: 1,
        heal_at_iter: None,
        bidirectional: false,
    });
    let a = run_trial(&spec);
    let b = run_trial(&spec);
    assert_eq!(a.iter_max_dev, b.iter_max_dev);
    assert_eq!(a.fault_port, b.fault_port);
    assert_eq!(a.stats.silent_drops(), b.stats.silent_drops());
}

#[test]
fn multi_job_fabric_with_background_traffic() {
    // Two tagged jobs + untagged background share a fabric; each job's
    // counters are separate and each completes.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 8,
        spines: 4,
        ..Default::default()
    });
    let even: Vec<HostId> = (0..8).filter(|h| h % 2 == 0).map(HostId).collect();
    let odd: Vec<HostId> = (0..8).filter(|h| h % 2 == 1).map(HostId).collect();
    let rcfg1 = RunnerConfig {
        job: 1,
        iterations: 2,
        ..Default::default()
    };
    let r2 = CollectiveRunner::new(
        ring_allreduce(&odd, 1024 * 1024),
        RunnerConfig {
            job: 2,
            iterations: 2,
            ..Default::default()
        },
    );
    let bg = BackgroundTraffic::new(BackgroundConfig {
        until: SimTime::from_us(500),
        msg_bytes: 128 * 1024,
        mean_interval: SimDuration::from_us(20),
    });
    let sched1 = ring_allreduce(&even, 2 * 1024 * 1024);
    let run = Scenario {
        extra: vec![Box::new(r2), Box::new(bg)],
        ..Scenario::new(topo, sched1, rcfg1, SimConfig::default(), 9)
    }
    .run();
    assert!(run.all_flows_complete);
    assert!(run.counters.get(1, 0).is_some());
    assert!(run.counters.get(1, 1).is_some());
    assert!(run.counters.get(2, 0).is_some());
    assert!(run.counters.get(2, 1).is_some());
    // Jobs' counter sets are disjoint by tag.
    let t1 = run.counters.get(1, 0).unwrap().total_bytes();
    let t2 = run.counters.get(2, 0).unwrap().total_bytes();
    assert!(t1 > t2, "job 1 moves twice the bytes of job 2");
}

#[test]
fn spatial_baseline_fails_where_flowpulse_succeeds() {
    use flowpulse::baselines::SpatialSymmetryDetector;
    // Pre-existing fault only — no new fault. FlowPulse stays silent;
    // spatial symmetry cries wolf.
    let mut spec = small();
    spec.preexisting = 2;
    let r = run_trial(&spec);
    assert!(!r.false_alarm, "FlowPulse must accept known faults");
    let alarms = SpatialSymmetryDetector.check(&r.snapshots[0].loads());
    assert!(
        !alarms.is_empty(),
        "spatial baseline should false-alarm on pre-existing faults"
    );
}

#[test]
fn snapshots_carry_the_live_cells_and_last_stamp_of_each_iteration() {
    // A ring run stepped one event at a time: whenever an iteration's
    // counters grow, `now` is its latest tagged-packet stamp so far.
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..4).map(HostId).collect();
    let mut sim = Simulator::new(topo, SimConfig::default(), 5);
    sim.set_app(Box::new(CollectiveRunner::new(
        ring_allreduce(&hosts, 256 * 1024),
        RunnerConfig {
            iterations: 3,
            ..Default::default()
        },
    )));
    let mut totals = std::collections::BTreeMap::new();
    let mut stamps = std::collections::BTreeMap::new();
    while sim.step() {
        for iter in sim.counters.iters_of(1) {
            let total = sim.counters.get(1, iter).unwrap().total_bytes();
            if totals.insert(iter, total) != Some(total) {
                stamps.insert(iter, sim.now().as_ns());
            }
        }
    }
    let snaps = CounterSnapshot::sequence_from(&sim.counters, 1);
    assert_eq!(snaps.len(), 3);
    for s in &snaps {
        let c = sim.counters.get(1, s.iter).unwrap();
        assert_eq!(s.loads(), PortLoads::from_counters(c), "iter {}", s.iter);
        assert_eq!(s.t_ns, stamps[&s.iter], "iter {}", s.iter);
    }
}
