//! End-to-end tests for 3-level Clos monitoring (paper §7 "Network
//! Topology": "FlowPulse could extend to other topologies by deploying
//! FlowPulse at both leaf and spine levels to monitor spine-leaf and
//! core-spine links respectively.")

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::topology::Clos3Spec;

fn fabric() -> Topology {
    Topology::clos3(Clos3Spec {
        pods: 4,
        leaves_per_pod: 2,
        aggs_per_pod: 2,
        cores_per_group: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    })
}

/// Run `iters` ring iterations over all hosts, with `before` applied
/// before the first event and `at_iter` at iteration starts.
fn run_ring(
    topo: Topology,
    iters: u32,
    seed: u64,
    before: Vec<(LinkId, FaultAction)>,
    at_iter: Vec<(u32, LinkId, FaultAction)>,
) -> RawRun {
    let hosts: Vec<HostId> = (0..topo.n_hosts() as u32).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 4 * 1024 * 1024);
    let rcfg = RunnerConfig {
        iterations: iters,
        ..Default::default()
    };
    Scenario {
        before,
        at_iter,
        ..Scenario::new(topo, sched, rcfg, SimConfig::default(), seed)
    }
    .run()
}

#[test]
fn both_tiers_match_analytical_predictions_when_clean() {
    let topo = fabric();
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let demand = ring_allreduce(&hosts, 4 * 1024 * 1024).demand(8);
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);
    let run = run_ring(topo, 2, 3, Vec::new(), Vec::new());

    let leaf_obs = PortLoads::from_counters(run.counters.get(1, 0).unwrap());
    let leaf_dev = Detector::default().max_abs_rel(&pred.loads, &leaf_obs);
    assert!(leaf_dev < 0.005, "leaf tier dev {:.3}%", leaf_dev * 100.0);

    let agg_obs = PortLoads::from_counters(run.agg_counters.get(1, 0).unwrap());
    let agg_pred = pred.agg_loads.as_ref().unwrap();
    let agg_dev = Detector::default().max_abs_rel(agg_pred, &agg_obs);
    assert!(agg_dev < 0.005, "agg tier dev {:.3}%", agg_dev * 100.0);
    // The ring crosses pods: the core tier genuinely carries traffic.
    assert!(agg_obs.total() > 0.0);
}

#[test]
fn silent_core_fault_caught_by_agg_monitor_and_localized_to_slot() {
    let topo = fabric();
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let demand = ring_allreduce(&hosts, 4 * 1024 * 1024).demand(8);
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);

    // Fault: 10% silent drop on core(group 0, slot 0) -> pod 2, installed
    // from iteration 1.
    let bad = topo.core_downlink(topo.core_global(0, 0), 2);
    let drop = (
        1,
        bad,
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.10 }),
    );
    let run = run_ring(topo.clone(), 3, 7, Vec::new(), vec![drop]);

    // Agg-tier monitor.
    let mut agg_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.agg_loads.clone().unwrap());
    agg_mon.scan(&run.agg_counters, true);
    assert!(
        agg_mon.alarms.iter().all(|a| a.iter >= 1),
        "no false alarms before the fault: {:?}",
        agg_mon.alarms
    );
    let shortfalls = agg_mon.shortfall_ports(1);
    // The deviating agg port is exactly (agg_global(pod2, group0), slot 0).
    let expected_port = (topo.agg_global(2, 0), 0u32);
    assert!(
        shortfalls.contains(&expected_port),
        "agg shortfalls {shortfalls:?} missing {expected_port:?}"
    );

    // Leaf-tier monitor sees the same fault (its port from agg group 0 at
    // the destination leaf is short), but cannot tell which core slot.
    let mut leaf_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads.clone());
    leaf_mon.scan(&run.counters, true);
    assert!(leaf_mon.alarms.iter().any(|a| a.iter >= 1));
}

#[test]
fn known_core_fault_is_absorbed_by_the_model() {
    let topo = fabric();
    let hosts: Vec<HostId> = (0..8).map(HostId).collect();
    let demand = ring_allreduce(&hosts, 4 * 1024 * 1024).demand(8);
    // Admin-down one core cable; the model knows, routing avoids it.
    let down = [
        topo.core_downlink(topo.core_global(1, 1), 3),
        topo.peer[topo.core_downlink(topo.core_global(1, 1), 3).idx()],
    ];
    let pred = AnalyticalModel::new(&topo, down).predict(&demand);

    let known = down.map(|l| (l, FaultAction::Set(FaultKind::AdminDown)));
    let run = run_ring(topo.clone(), 2, 5, known.to_vec(), Vec::new());

    let mut agg_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.agg_loads.unwrap());
    agg_mon.scan(&run.agg_counters, true);
    assert!(
        agg_mon.alarms.is_empty(),
        "known fault must not alarm: {:?}",
        agg_mon.alarms
    );
    let mut leaf_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads);
    leaf_mon.scan(&run.counters, true);
    assert!(leaf_mon.alarms.is_empty(), "{:?}", leaf_mon.alarms);
}
