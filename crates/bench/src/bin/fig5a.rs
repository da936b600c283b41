//! E3 / Fig. 5(a) — "Residual Operating Curve (ROC) for different packet
//! drop rates on a faulty link. A 1% threshold is a perfect classifier for
//! drop rates ≥ 1.5%."
//!
//! For each drop rate we run seeded trials (fault injected at iteration 1)
//! plus fault-free trials, record each iteration's max relative deviation,
//! and sweep the detection threshold offline to produce ROC points.

use flowpulse::eval::split_devs;
use flowpulse::prelude::*;
use fp_bench::results::fig5a::{table, Row};
use fp_bench::{drop_fault, header, pct, seeds, Cell, RunConfig};

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

    // One cell: the fault-free trials, then each drop rate over the fault
    // seeds. Every rate is scored against one clean pool: the fault-free
    // trials plus every fault trial's pre-fault iterations.
    let cell = Cell {
        base: base.clone(),
        faults: drop_rates.iter().map(|&r| drop_fault(r, 1)).collect(),
    };
    let grid = cfg.run_grid("fig5a", &[cell], &clean_seeds, &fault_seeds);
    let pairs: Vec<_> = grid.pairs().collect();
    let pool = pairs.iter().flat_map(|p| p.faulty).chain(pairs[0].clean);
    let clean_devs: Vec<f64> = pool.flat_map(|t| split_devs(t).0).collect();

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
    for (&rate, pair) in drop_rates.iter().zip(&pairs) {
        let faulty_devs: Vec<f64> = pair.faulty.iter().flat_map(|t| split_devs(t).1).collect();
        let curve = roc_curve(&clean_devs, &faulty_devs, &thresholds);
        for p in &curve {
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
    print!("\nTPR / FPR per drop rate and threshold:\n{}", table(&rows));
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
