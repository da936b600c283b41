//! Learning demo: the Fig. 3 story, narrated. FlowPulse learns its
//! per-port baseline from live traffic while a transient fault is active;
//! when the fault heals and loads re-balance, the model recognizes the
//! improvement and rebaselines instead of alarming — then catches a *new*
//! fault against the refreshed baseline.
//!
//! ```sh
//! cargo run --release --example learning_demo
//! ```

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::units::fmt_bytes;

fn main() {
    let leaves = 8u32;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..leaves).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 8 * 1024 * 1024);

    // Transient 6% drop on spine1→leaf3, active for iterations 0..3.
    let bad_early = topo.downlink(1, 3);
    // A *new* 3% fault on spine2→leaf5 from iteration 6.
    let bad_late = topo.downlink(2, 5);
    let rcfg = RunnerConfig {
        iterations: 9,
        ..Default::default()
    };
    let run = Scenario {
        at_iter: vec![
            (
                0,
                bad_early,
                FaultAction::Set(FaultKind::SilentDrop { rate: 0.06 }),
            ),
            (3, bad_early, FaultAction::Clear),
            (
                6,
                bad_late,
                FaultAction::Set(FaultKind::SilentDrop { rate: 0.03 }),
            ),
        ],
        ..Scenario::new(topo, sched, rcfg, SimConfig::default(), 77)
    }
    .run();

    let mut monitor = Monitor::new_learned(1, Detector::new(0.01), 2);
    monitor.scan(&run.counters, true);

    println!("timeline (learned model, warmup 2):");
    println!("  iterations 0-2: transient 6% fault on spine1->leaf3 (active during learning)");
    println!("  iteration  3:   fault heals");
    println!("  iteration  6:   NEW 3% fault on spine2->leaf5\n");

    for i in run.counters.iters_of(1) {
        let c = run.counters.get(1, i).unwrap();
        let obs = PortLoads::from_counters(c);
        let verdict = monitor
            .learned_events
            .iter()
            .find(|(it, _)| *it == i)
            .map(|(_, v)| format!("{v:?}"))
            .unwrap_or_default();
        let alarm = monitor.alarms.iter().any(|a| a.iter == i);
        println!(
            "iteration {i}: leaf3/vspine1={:>9}  leaf5/vspine2={:>9}  {:<28} {}",
            fmt_bytes(obs.get(3, 1) as u64),
            fmt_bytes(obs.get(5, 2) as u64),
            verdict,
            if alarm { "ALARM" } else { "" }
        );
    }

    let rebaselines = monitor.learned().unwrap().rebaselines;
    let heal_alarms = monitor.alarms.iter().filter(|a| a.iter < 6).count();
    let new_fault_caught = monitor.alarms.iter().any(|a| a.iter >= 6 && a.leaf == 5);
    println!(
        "\nresult: {rebaselines} rebaseline(s), {heal_alarms} false alarm(s) \
         around the heal, new fault caught: {new_fault_caught}"
    );
    assert_eq!(rebaselines, 1);
    assert_eq!(heal_alarms, 0);
    assert!(new_fault_caught);
}
