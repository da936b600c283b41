//! Multi-job cluster (paper §7 "Parallel Jobs"): two independent training
//! jobs plus unstructured background traffic share one fabric. FlowPulse
//! monitors each job's *own* prioritized collective independently; a fault
//! is detected by both jobs' monitors, each against its own demand matrix.
//!
//! ```sh
//! cargo run --release --example multi_job
//! ```

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;

fn main() {
    let leaves = 8u32;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..leaves).map(HostId).collect();

    // Job 1: ring over the even hosts. Job 2: ring over the odd hosts.
    let job1_hosts: Vec<HostId> = hosts.iter().copied().filter(|h| h.0 % 2 == 0).collect();
    let job2_hosts: Vec<HostId> = hosts.iter().copied().filter(|h| h.0 % 2 == 1).collect();
    let sched1 = ring_allreduce(&job1_hosts, 8 * 1024 * 1024);
    let sched2 = ring_allreduce(&job2_hosts, 4 * 1024 * 1024);
    let demand1 = sched1.demand(topo.n_hosts());
    let demand2 = sched2.demand(topo.n_hosts());

    // A silent 4% fault on spine0->leaf2, present from the start.
    let bad = FaultAction::Set(FaultKind::SilentDrop { rate: 0.04 });

    let rcfg1 = RunnerConfig {
        job: 1,
        iterations: 3,
        ..Default::default()
    };
    let runner2 = CollectiveRunner::new(
        sched2,
        RunnerConfig {
            job: 2,
            iterations: 3,
            ..Default::default()
        },
    );
    let background = BackgroundTraffic::new(BackgroundConfig {
        msg_bytes: 256 * 1024,
        mean_interval: SimDuration::from_us(10),
        until: SimTime::from_ms(2),
    });
    let run = Scenario {
        before: vec![(topo.downlink(0, 2), bad)],
        extra: vec![Box::new(runner2), Box::new(background)],
        ..Scenario::new(topo.clone(), sched1, rcfg1, SimConfig::default(), 3)
    }
    .run();

    // Each job's monitor uses its own analytical prediction; background
    // traffic is untagged and invisible to both.
    let ana = AnalyticalModel::new(&topo, []);
    for (job, demand) in [(1u32, &demand1), (2u32, &demand2)] {
        let pred = ana.predict(demand).loads;
        let mut monitor = Monitor::new_fixed(job, Detector::new(0.01), pred);
        monitor.scan(&run.counters, true);
        println!(
            "job {job}: {} iterations evaluated, {} alarms",
            monitor.iter_max_dev.len(),
            monitor.alarms.len()
        );
        for a in &monitor.alarms {
            println!(
                "  iteration {} leaf {} ports {:?}",
                a.iter,
                a.leaf,
                a.deviations
                    .iter()
                    .map(|d| (d.vspine, format!("{:+.2}%", d.rel * 100.0)))
                    .collect::<Vec<_>>()
            );
        }
        // The fault is on the downlink into leaf 2. Job 1's ring includes
        // host 2 (leaf 2), so its traffic crosses the faulty link and its
        // monitor alarms there. Job 2 runs on the odd leaves only — none
        // of its flows terminate at leaf 2, so it rightly sees nothing:
        // per-job monitoring pinpoints *which* tenants a fault affects.
        if job == 1 {
            assert!(
                !monitor.alarms.is_empty() && monitor.alarms.iter().all(|a| a.leaf == 2),
                "job 1 must alarm at leaf 2: {:?}",
                monitor.alarms
            );
        } else {
            assert!(
                monitor.alarms.is_empty(),
                "job 2's traffic never enters leaf 2: {:?}",
                monitor.alarms
            );
        }
    }
    println!(
        "\njob 1 (rides through the faulty link) alarms at leaf 2; job 2 \
         (odd leaves only) is unaffected — per-job blast-radius attribution."
    );
}
