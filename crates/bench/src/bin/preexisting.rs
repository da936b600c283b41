//! E6 / §6 "Effect of pre-existing faults" — "FlowPulse detects new faults
//! even when known faults already exist. As the model takes these faults
//! into account, we observe perfect classification for new faults that
//! drop ≥ 2.5% of packets or more."
//!
//! Also demonstrates *why* the spatial-symmetry baseline fails here: known
//! faults permanently skew per-leaf port balance, so spatial checks alarm
//! on healthy iterations while FlowPulse's fault-aware model stays silent.

use flowpulse::baselines::SpatialSymmetryDetector;
use flowpulse::prelude::*;
use fp_bench::results::preexisting::{table, Row};
use fp_bench::{drop_fault, header, pct, seeds, Cell, RunConfig};

fn main() {
    let cfg = RunConfig::from_env();
    let preexisting_counts: Vec<u32> = cfg.pick(vec![0, 2, 4, 8], vec![0, 2]);
    let drop_rates: Vec<f64> = cfg.pick(vec![0.010, 0.015, 0.025], vec![0.025]);
    let fault_seeds = seeds(cfg.pick(3, 2));
    let clean_seeds = seeds(cfg.pick(3, 1));

    // Per pre-existing count, the clean trials once, shared by every drop
    // rate.
    let cells: Vec<Cell> = preexisting_counts
        .iter()
        .map(|&pre| Cell {
            base: TrialSpec {
                leaves: cfg.pick(32, 8),
                spines: cfg.pick(16, 4),
                bytes_per_node: cfg.pick(32, 8) * 1024 * 1024,
                preexisting: pre,
                iterations: 3,
                ..cfg.base_spec()
            },
            faults: drop_rates.iter().map(|&r| drop_fault(r, 1)).collect(),
        })
        .collect();
    let grid = cfg.run_grid("preexisting", &cells, &clean_seeds, &fault_seeds);

    let mut rows = Vec::new();
    for (&pre, pairs) in preexisting_counts.iter().zip(grid.cells()) {
        // Spatial baseline FPR: fraction of *clean* iterations it alarms on.
        let snaps: Vec<_> = pairs[0].clean.iter().flat_map(|t| &t.snapshots).collect();
        let alarmed = snaps
            .iter()
            .filter(|s| !SpatialSymmetryDetector.check(&s.loads()).is_empty());
        let spatial_fpr = alarmed.count() as f64 / snaps.len().max(1) as f64;

        for (&rate, pair) in drop_rates.iter().zip(&pairs) {
            rows.push(Row {
                preexisting: pre,
                drop_rate: rate,
                fpr: pair.rates.fpr(),
                fnr: pair.rates.fnr(),
                spatial_baseline_fpr: spatial_fpr,
            });
        }
    }
    header("E6 — new silent faults on top of pre-existing known faults");
    print!("{}", table(&rows));
    cfg.save_json("preexisting", &rows);

    let perfect: Vec<&Row> = rows
        .iter()
        .filter(|r| r.drop_rate >= 0.025 && (r.fpr > 0.0 || r.fnr > 0.0))
        .collect();
    println!(
        "\nE6 verdict: {} — spatial-symmetry baseline false-alarms on {} of \
         clean iterations once pre-existing faults exist (FlowPulse: model-aware, silent).",
        if perfect.is_empty() {
            "perfect classification at ≥2.5% drops across all pre-existing-fault counts (matches paper)".to_string()
        } else {
            format!("{} imperfect rows at ≥2.5%", perfect.len())
        },
        rows.iter()
            .filter(|r| r.preexisting > 0)
            .map(|r| pct(r.spatial_baseline_fpr))
            .next_back()
            .unwrap_or_else(|| "n/a".into())
    );
}
