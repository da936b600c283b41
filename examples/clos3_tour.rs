//! Tour of the 3-level Clos extension (paper §7): two-tier monitoring.
//!
//! Builds a pod-structured fabric, runs a cross-pod Ring-AllReduce, injects
//! a silent fault on a *core* link — invisible at any leaf port by
//! identity, visible as a shortfall at exactly one aggregation-switch
//! ingress slot — and shows both monitoring tiers doing their jobs.
//!
//! ```sh
//! cargo run --release --example clos3_tour
//! ```

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::topology::Clos3Spec;
use fp_netsim::units::fmt_bytes;

fn main() {
    let spec = Clos3Spec {
        pods: 4,
        leaves_per_pod: 2,
        aggs_per_pod: 2,
        cores_per_group: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    };
    let topo = Topology::clos3(spec.clone());
    println!(
        "fabric: {} pods x {} leaves x {} aggs, {} core groups x {} cores — {} hosts",
        spec.pods,
        spec.leaves_per_pod,
        spec.aggs_per_pod,
        spec.aggs_per_pod,
        spec.cores_per_group,
        topo.n_hosts()
    );

    let hosts: Vec<HostId> = (0..topo.n_hosts() as u32).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 8 * 1024 * 1024);
    let demand = sched.demand(topo.n_hosts());
    let pred = AnalyticalModel::new(&topo, []).predict(&demand);

    // Fault: silent 8% drop on core(group 1, slot 0) -> pod 3, from iter 1.
    let group = 1u32;
    let slot = 0u32;
    let dst_pod = 3u32;
    let bad = topo.core_downlink(topo.core_global(group, slot), dst_pod);
    println!(
        "injecting: 8% silent drop on core(group {group}, slot {slot}) -> pod {dst_pod} at iteration 1\n"
    );

    let rcfg = RunnerConfig {
        iterations: 3,
        ..Default::default()
    };
    let run = Scenario {
        at_iter: vec![(
            1,
            bad,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.08 }),
        )],
        ..Scenario::new(topo.clone(), sched, rcfg, SimConfig::default(), 42)
    }
    .run();

    // Tier 1: leaf monitors (spine->leaf ports).
    let mut leaf_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads.clone());
    leaf_mon.scan(&run.counters, true);
    println!("leaf-tier alarms:");
    for a in &leaf_mon.alarms {
        println!(
            "  iter {} leaf {}: ports {:?}",
            a.iter,
            a.leaf,
            a.deviations
                .iter()
                .map(|d| format!("agg{} {:+.2}%", d.vspine, d.rel * 100.0))
                .collect::<Vec<_>>()
        );
    }

    // Tier 2: agg monitors (core->agg ports) pin the slot.
    let mut agg_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.agg_loads.clone().unwrap());
    agg_mon.scan(&run.agg_counters, true);
    println!("\nagg-tier alarms:");
    for a in &agg_mon.alarms {
        println!(
            "  iter {} agg {}: slots {:?}",
            a.iter,
            a.leaf,
            a.deviations
                .iter()
                .map(|d| format!(
                    "core-slot{} exp {} obs {} ({:+.2}%)",
                    d.vspine,
                    fmt_bytes(d.expected as u64),
                    fmt_bytes(d.observed as u64),
                    d.rel * 100.0
                ))
                .collect::<Vec<_>>()
        );
    }

    let expected_port = (topo.agg_global(dst_pod, group), slot);
    let pinned = agg_mon.shortfall_ports(1).contains(&expected_port);
    println!(
        "\nverdict: leaf tier detected={}, agg tier pinned core slot {:?}: {}",
        leaf_mon.alarms.iter().any(|a| a.iter >= 1),
        expected_port,
        pinned
    );
    assert!(pinned, "agg tier must pin the faulty core slot");
}
