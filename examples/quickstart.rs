//! Quickstart: build a fat-tree fabric, run Ring-AllReduce training
//! iterations, inject a silent fault mid-run, and watch FlowPulse detect
//! and localize it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flowpulse::prelude::*;
use fp_netsim::units::fmt_bytes;

fn main() {
    // The paper's evaluation fabric, scaled to run in a couple of seconds:
    // a non-blocking 2-level fat tree, one GPU host per leaf, running
    // Ring-AllReduce over all nodes every training iteration.
    let spec = TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 16 * 1024 * 1024,
        iterations: 4,
        // A silent fault — invisible to routing and switch counters —
        // starts dropping 2% of packets on a random leaf–spine link at
        // iteration 2.
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.02 },
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 42,
        ..Default::default()
    };

    println!(
        "fabric: {} leaves x {} spines, {} / node Ring-AllReduce, {} iterations",
        spec.leaves,
        spec.spines,
        fmt_bytes(spec.bytes_per_node),
        spec.iterations
    );
    let r = run_trial(&spec);
    let (fleaf, fv) = r.fault_port.unwrap();
    println!("injected: 2% silent drop on spine{fv} -> leaf{fleaf} from iteration 2\n");

    println!("per-iteration max deviation from the analytical model:");
    for &(iter, dev) in &r.iter_max_dev {
        let marker = if r.alarms.iter().any(|a| a.iter == iter) {
            "ALARM"
        } else {
            "ok"
        };
        println!("  iteration {iter}: {:>7.3}%  {marker}", dev * 100.0);
    }

    println!();
    for a in &r.alarms {
        for d in &a.deviations {
            println!(
                "leaf {} raised an alarm at iteration {}: port from vspine {} \
                 expected {} observed {} ({:+.2}%)",
                a.leaf,
                a.iter,
                d.vspine,
                fmt_bytes(d.expected as u64),
                fmt_bytes(d.observed as u64),
                d.rel * 100.0
            );
        }
    }

    let loc = r.localization.as_ref().unwrap();
    println!("\nlocalization: {loc:?}");
    println!(
        "verdict: detected={} localized-correctly={:?} false-alarms={}",
        r.detected, r.localized_correctly, r.false_alarm
    );
    assert!(r.detected && !r.false_alarm);

    // The same temporal symmetry FlowPulse detects with can also be
    // *exploited for speed*: a fault-free fabric converges to a steady
    // state after a couple of iterations, and once an iteration boundary
    // fingerprints identically to a recent one the engine fast-forwards
    // the rest — replaying the recorded window's deltas instead of
    // simulating them, byte-identical to the live run (`TrialSpec::memo`,
    // see DESIGN.md §11). Least-loaded spray here because the default
    // adaptive policy's deficit decay runs on an absolute time grid the
    // iteration period never realigns with, so it is refused by the
    // eligibility gate — as is the default 1 µs start jitter (per-node RNG
    // draws outside the fingerprint).
    let mut memo_spec = TrialSpec {
        fault: None,
        iterations: 12,
        jitter: fp_collectives::jitter::JitterModel::None,
        ..spec.clone()
    };
    memo_spec.sim.spray = fp_netsim::spray::SprayPolicy::LeastLoaded;
    let mut live_spec = memo_spec.clone();
    live_spec.memo = Some(false);
    memo_spec.memo = Some(true);
    let t0 = std::time::Instant::now();
    let live = run_trial(&live_spec);
    let live_wall = t0.elapsed();
    let t0 = std::time::Instant::now();
    let memo = run_trial(&memo_spec);
    let memo_wall = t0.elapsed();
    println!(
        "\nfault-free fast-forward: {} of {} iterations replayed \
         ({} of {} events), {:?} memo-on vs {:?} live",
        memo.memo_replayed_iters,
        memo_spec.iterations,
        memo.memo_replayed_events,
        memo.stats.events,
        memo_wall,
        live_wall
    );
    assert!(memo.memo_hits > 0, "steady state never fast-forwarded");
    assert_eq!(memo.memo_fallback, None);
    assert_eq!(
        format!("{:?}", live.stats),
        format!("{:?}", memo.stats),
        "fast-forward must be byte-identical to the live engine"
    );
}
