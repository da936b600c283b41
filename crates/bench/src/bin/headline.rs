//! E7 — the abstract's headline claim: "FlowPulse identifies a single
//! faulty link with 1.5% corruption rate by checking temporal symmetry in
//! a full two-level fat tree topology with 32 leaf switches while
//! performing Ring-AllReduce on all nodes."
//!
//! One end-to-end run at exactly that configuration, plus a probe-mesh
//! comparison showing the overhead FlowPulse avoids.

use flowpulse::baselines::run_probe_mesh;
use flowpulse::prelude::*;
use fp_bench::results::headline::{table, Row};
use fp_bench::{header, RunConfig};
use fp_netsim::fault::FaultAction;
use fp_netsim::prelude::*;

fn main() {
    let cfg = RunConfig::from_env();
    let spec = TrialSpec {
        leaves: cfg.pick(32, 8),
        spines: cfg.pick(16, 4),
        bytes_per_node: cfg.pick(64, 8) * 1024 * 1024,
        iterations: 3,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.015 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 2025,
        ..cfg.base_spec()
    };
    header("E7 — headline: 1.5% silent corruption, 32-leaf fat tree, Ring-AllReduce");
    // With FP_TELEMETRY=dir, ride a full RunRecorder along: link samples,
    // FCT/RTO/PFC histograms, structured events and a Chrome trace land in
    // $FP_TELEMETRY/headline/ next to the run's manifest.
    let results = cfg.run_logged(
        "headline",
        std::slice::from_ref(&spec),
        |s| s,
        |s| {
            let recorder = cfg.telemetry.as_ref().map(|d| {
                Box::new(fp_telemetry::RunRecorder::new(d.join("headline")))
                    as Box<dyn fp_telemetry::Recorder>
            });
            let (r, recorder) = run_trial_with(s, recorder);
            if let Some(mut rec) = recorder {
                rec.finish().expect("write telemetry artifacts");
            }
            r
        },
        serde::Value::Null,
    );
    let r = &results[0];
    // An exact count, not host noise: constant-delay events ride the
    // delay-class pipes (DESIGN.md §6), so a headline run that pushes more
    // than 1 % of its events through the scheduler, first-attempt RTO
    // timers aside, has lost them.
    let pushes = r.sched.pushes - r.sched.head_arms;
    assert!(
        pushes * 100 <= r.stats.events,
        "{pushes} scheduler pushes for {} events: constant-delay events are reaching the scheduler again",
        r.stats.events
    );
    let (clean, faulty) = flowpulse::eval::split_devs(r);
    let clean_max = clean.iter().cloned().fold(0.0, f64::max);
    let faulty_max = faulty.iter().cloned().fold(0.0, f64::max);
    let (fleaf, fv) = r.fault_port.unwrap();

    println!("fault:      spine{fv} → leaf{fleaf}, 1.5% silent drop from iteration 1");
    println!(
        "localized:  {:?} (expected unpaired port ({fleaf}, {fv}))",
        r.localization.as_ref().unwrap()
    );
    println!(
        "drops: {} silent, retransmits: {}",
        r.stats.silent_drops(),
        r.stats.retransmits
    );

    // Probe-mesh comparison: how many probe bytes does an active prober
    // inject to catch the same fault with ~99% confidence? Each probe
    // crosses the faulty link with probability 1/spines and is then dropped
    // with probability 1.5%.
    let mut sim = Simulator::new(
        Topology::fat_tree(FatTreeSpec {
            leaves: spec.leaves,
            spines: spec.spines,
            ..Default::default()
        }),
        // The prober crosses the fabric the trial ran on: follows `FP_SPRAY`.
        cfg.sim(),
        1,
    );
    let bad = sim.topo.downlink(fv, fleaf);
    sim.apply_fault_now(
        bad,
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.015 }),
        false,
    );
    // p(hit) per probe to the faulty leaf ≈ 0.015/spines; probes to other
    // leaves never help. Run rounds until detected.
    let mut probe_bytes = 0u64;
    let mut detected_by_probe = false;
    for _ in 0..cfg.pick(40, 10) {
        let rep = run_probe_mesh(&mut sim, 1);
        probe_bytes += rep.bytes_injected;
        if rep.detected {
            detected_by_probe = true;
            break;
        }
    }
    if !detected_by_probe {
        println!("probe mesh: gave up undetected; its bytes below are a lower bound");
    }

    let row = Row {
        drop_rate: 0.015,
        detected: r.detected,
        false_alarm: r.false_alarm,
        localized_correctly: r.localized_correctly.unwrap_or(false),
        faulty_iteration_dev: faulty_max,
        clean_iteration_dev_max: clean_max,
        probe_bytes_for_parity: probe_bytes,
        flowpulse_bytes_injected: 0,
    };
    print!("\n{}", table(&row));
    cfg.save_json("headline", &row);

    if cfg.quick {
        // Quick mode shrinks the fabric below the regime the headline
        // claim is about (1.5% signal vs 4-spine retransmit inflation);
        // report without asserting.
        println!(
            "\nE7 (quick mode): detected={} localized={:?}",
            r.detected, r.localized_correctly
        );
        return;
    }
    assert!(r.detected && !r.false_alarm, "headline claim regressed");
    assert_eq!(r.localized_correctly, Some(true));
    println!("\nE7 verdict: headline claim reproduced.");
}
