//! E3 / Fig. 5(a) — "Residual Operating Curve (ROC) for different packet
//! drop rates on a faulty link. A 1% threshold is a perfect classifier for
//! drop rates ≥ 1.5%."
//!
//! For each drop rate we run seeded trials (fault injected at iteration 1)
//! plus fault-free trials, record each iteration's max relative deviation,
//! and sweep the detection threshold offline to produce ROC points.

use flowpulse::prelude::*;
use fp_bench::{header, pct, seeds, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    drop_rate: f64,
    threshold: f64,
    fpr: f64,
    tpr: f64,
}

fn main() {
    let cfg = RunConfig::from_env();
    let drop_rates: Vec<f64> = cfg.pick(
        vec![0.005, 0.008, 0.010, 0.015, 0.020, 0.030],
        vec![0.008, 0.015],
    );
    let fault_seeds = seeds(cfg.pick(5, 2));
    let clean_seeds = seeds(cfg.pick(8, 2));
    let thresholds = [0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03];

    let base = TrialSpec {
        leaves: cfg.pick(32, 8),
        spines: cfg.pick(16, 4),
        bytes_per_node: cfg.pick(64, 8) * 1024 * 1024,
        iterations: 3,
        ..cfg.base_spec()
    };

    // The whole sweep as one spec list, in the order the serial harness ran
    // it: clean seeds first, then fault seeds per drop rate. The campaign
    // executes trials in parallel; aggregation below consumes the results
    // in input order, so the JSON is byte-identical at any FP_THREADS.
    let mut specs: Vec<TrialSpec> = Vec::new();
    for &s in &clean_seeds {
        specs.push(TrialSpec {
            seed: s,
            ..base.clone()
        });
    }
    for &rate in &drop_rates {
        for &s in &fault_seeds {
            specs.push(TrialSpec {
                seed: s,
                fault: Some(FaultSpec {
                    kind: InjectedFault::Drop { rate },
                    at_iter: 1,
                    heal_at_iter: None,
                    bidirectional: false,
                }),
                ..base.clone()
            });
        }
    }
    let mut results = cfg.run_logged("fig5a", &specs).into_iter();

    // Clean deviations: fault-free trials + pre-fault iterations of fault
    // trials all contribute.
    let mut clean_devs: Vec<f64> = Vec::new();
    for _ in &clean_seeds {
        let r = results.next().expect("one result per spec");
        let (c, _) = flowpulse::eval::split_devs(&r);
        clean_devs.extend(c);
    }

    header("Fig 5(a) — ROC");
    println!(
        "fabric {}x{}, {} MiB/node ring-allreduce, analytical model",
        base.leaves,
        base.spines,
        base.bytes_per_node / (1024 * 1024)
    );
    println!(
        "clean iterations: {} (max clean deviation {})",
        clean_devs.len(),
        pct(clean_devs.iter().cloned().fold(0.0, f64::max))
    );

    let mut rows = Vec::new();
    let mut perfect_at_1pct = Vec::new();
    for &rate in &drop_rates {
        let mut faulty_devs = Vec::new();
        for _ in &fault_seeds {
            let r = results.next().expect("one result per spec");
            let (c, f) = flowpulse::eval::split_devs(&r);
            clean_devs.extend(c);
            faulty_devs.extend(f);
        }
        let curve = roc_curve(&clean_devs, &faulty_devs, &thresholds);
        println!("\ndrop rate {}:", pct(rate));
        println!("{:>10} {:>8} {:>8}", "threshold", "FPR", "TPR");
        for p in &curve {
            println!(
                "{:>10} {:>8} {:>8}",
                pct(p.threshold),
                pct(p.fpr),
                pct(p.tpr)
            );
            rows.push(Row {
                drop_rate: rate,
                threshold: p.threshold,
                fpr: p.fpr,
                tpr: p.tpr,
            });
        }
        let p01 = curve
            .iter()
            .find(|p| (p.threshold - 0.01).abs() < 1e-12)
            .unwrap();
        if p01.fpr == 0.0 && p01.tpr == 1.0 {
            perfect_at_1pct.push(rate);
        }
    }
    cfg.save_json("fig5a", &rows);

    println!(
        "\nFig 5(a) verdict: 1% threshold is a perfect classifier for drop \
         rates {{{}}} (paper: ≥ 1.5%).",
        perfect_at_1pct
            .iter()
            .map(|r| pct(*r))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
