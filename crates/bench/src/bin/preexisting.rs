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
use fp_bench::{header, pct, seeds, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    preexisting: u32,
    drop_rate: f64,
    fpr: f64,
    fnr: f64,
    spatial_baseline_fpr: f64,
}

fn main() {
    let cfg = RunConfig::from_env();
    let preexisting_counts: Vec<u32> = cfg.pick(vec![0, 2, 4, 8], vec![0, 2]);
    let drop_rates: Vec<f64> = cfg.pick(vec![0.010, 0.015, 0.025], vec![0.025]);
    let fault_seeds = seeds(cfg.pick(3, 2));
    let clean_seeds = seeds(cfg.pick(3, 1));

    let base_for = |pre: u32| TrialSpec {
        leaves: cfg.pick(32, 8),
        spines: cfg.pick(16, 4),
        bytes_per_node: cfg.pick(32, 8) * 1024 * 1024,
        preexisting: pre,
        iterations: 3,
        ..cfg.base_spec()
    };

    // Specs in serial-harness order: per pre-existing count, the shared
    // clean trials, then fault seeds per drop rate.
    let mut specs: Vec<TrialSpec> = Vec::new();
    for &pre in &preexisting_counts {
        let base = base_for(pre);
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
    }
    let mut results = cfg.run_logged("preexisting", &specs).into_iter();

    header("E6 — new silent faults on top of pre-existing known faults");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>14}",
        "pre", "drop", "FPR", "FNR", "spatial-FPR"
    );

    let mut rows = Vec::new();
    for &pre in &preexisting_counts {
        let clean_trials: Vec<TrialResult> = results.by_ref().take(clean_seeds.len()).collect();
        // Spatial baseline FPR: fraction of *clean* iterations it alarms on.
        let mut spatial_fp = 0u32;
        let mut spatial_n = 0u32;
        for t in &clean_trials {
            for snap in &t.snapshots {
                spatial_n += 1;
                if !SpatialSymmetryDetector.check(&snap.loads()).is_empty() {
                    spatial_fp += 1;
                }
            }
        }
        let spatial_fpr = if spatial_n > 0 {
            spatial_fp as f64 / spatial_n as f64
        } else {
            0.0
        };

        for &rate in &drop_rates {
            let mut trials = clean_trials.clone();
            trials.extend(results.by_ref().take(fault_seeds.len()));
            let r = Rates::from_trials(&trials);
            println!(
                "{pre:>6} {:>8} {:>8} {:>8} {:>14}",
                pct(rate),
                pct(r.fpr()),
                pct(r.fnr()),
                pct(spatial_fpr)
            );
            rows.push(Row {
                preexisting: pre,
                drop_rate: rate,
                fpr: r.fpr(),
                fnr: r.fnr(),
                spatial_baseline_fpr: spatial_fpr,
            });
        }
    }
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
