//! A3 — measurement prioritization (paper §5.1).
//!
//! "We prioritize the target flows in the network … This prioritization
//! isolates the collective while maintaining the original load experienced
//! during training … background flows impose additional, unaccounted, load
//! on the switch and naturally alter the packet spraying pattern."
//!
//! We run the measured collective with and without background traffic, and
//! with the collective at high priority versus mixed in at background
//! priority, then compare each iteration's observed loads against the
//! analytical prediction.

use flowpulse::prelude::*;
use fp_bench::{header, pct, RunConfig};
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    background: bool,
    prioritized: bool,
    max_dev_vs_model: f64,
    collective_wall_us: u64,
}

fn scenario(cfg: &RunConfig, background: bool, prioritized: bool) -> Row {
    let leaves = cfg.pick(16u32, 8);
    let spines = leaves / 2;
    let bytes = cfg.pick(16u64, 8) * 1024 * 1024;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..leaves).map(HostId).collect();
    let sched = ring_allreduce(&hosts, bytes);
    let demand = sched.demand(topo.n_hosts());
    let prediction = flowpulse::analytical::AnalyticalModel::new(&topo, [])
        .predict(&demand)
        .loads;

    // Follows `FP_SPRAY`: the drift is a property of the backend in use.
    let mut sim = Simulator::new(topo, cfg.sim(), 11);
    let rcfg = RunnerConfig {
        job: 1,
        iterations: 3,
        prio: if prioritized {
            Priority::MEASURED
        } else {
            Priority::BACKGROUND
        },
        jitter: JitterModel::Uniform {
            max: SimDuration::from_us(1),
        },
        ..Default::default()
    };
    let runner = CollectiveRunner::new(sched, rcfg);
    let mut apps: Vec<Box<dyn Application>> = vec![Box::new(runner)];
    if background {
        apps.push(Box::new(BackgroundTraffic::new(BackgroundConfig {
            msg_bytes: 1024 * 1024,
            mean_interval: SimDuration::from_us(5),
            until: SimTime::from_ms(cfg.pick(4, 2)),
            ..Default::default()
        })));
    }
    sim.set_app(Box::new(MultiApp::new(apps)));
    sim.run();

    let detector = Detector::new(0.01);
    let mut worst: f64 = 0.0;
    let mut last_seen = 0u64;
    for i in sim.counters.iters_of(1) {
        let c = sim.counters.get(1, i).unwrap();
        let obs = PortLoads::from_counters(c);
        worst = worst.max(detector.max_abs_rel(&prediction, &obs));
        last_seen = last_seen.max(c.last_seen.iter().copied().max().unwrap_or(0));
    }
    Row {
        background,
        prioritized,
        max_dev_vs_model: worst,
        collective_wall_us: last_seen / 1000,
    }
}

fn main() {
    let cfg = RunConfig::from_env();
    header("A3 — background traffic and measurement prioritization");
    println!(
        "{:>12} {:>12} {:>16} {:>16}",
        "background", "prioritized", "max-dev-vs-model", "collective-end"
    );
    let mut rows = Vec::new();
    for (bg, prio) in [(false, true), (true, true), (true, false)] {
        let r = scenario(&cfg, bg, prio);
        println!(
            "{:>12} {:>12} {:>16} {:>14}us",
            r.background,
            r.prioritized,
            pct(r.max_dev_vs_model),
            r.collective_wall_us
        );
        rows.push(r);
    }
    cfg.save_json("ablate_priority", &rows);
    println!(
        "\nA3 verdict: prioritizing the measured collective keeps observed \
         loads on-model under background load; an unprioritized collective \
         contends with background flows and its spraying pattern drifts."
    );
}
