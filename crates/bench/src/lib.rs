//! # fp-bench — experiment harness for the FlowPulse reproduction
//!
//! One binary per paper artifact (`EXPERIMENTS.md` gives each its
//! parameters and numbers):
//!
//! | binary                 | artifact                                        |
//! |------------------------|-------------------------------------------------|
//! | `fig2`                 | Fig. 2 — analytical vs simulated per-port load  |
//! | `fig3`                 | Fig. 3 — learning model heal rebaseline         |
//! | `fig5a`                | Fig. 5(a) — ROC across thresholds × drop rates  |
//! | `fig5b`                | Fig. 5(b) — FPR/FNR vs switch radix             |
//! | `fig5c`                | Fig. 5(c) — FPR/FNR vs collective size          |
//! | `preexisting`          | §6 — new faults on top of pre-existing ones     |
//! | `headline`             | abstract — 1.5% drop, 32-leaf fabric, detected  |
//! | `threelevel`           | E8 — 3-level Clos, two-tier monitoring          |
//! | `mitigation`           | E9 — closed-loop mitigation vs baseline         |
//! | `monitord_sweep`       | E10 — monitor-service ingest scaling            |
//! | `e11_spray_mitigation` | E11 — spray backend × mitigation verb           |
//! | `ablate_spray`         | A1 — spray-policy ablation                      |
//! | `ablate_jitter`        | A2 — jitter sensitivity                         |
//! | `ablate_priority`      | A3 — measurement prioritization                 |
//! | `ablate_localize`      | A4 — localization accuracy                      |
//! | `ablate_model`         | prediction-model comparison                     |
//! | `trial`                | one `TrialSpec` read from a JSON file           |
//! | `docs`                 | EXPERIMENTS.md's result blocks from `results/`  |
//!
//! The detection sweeps (fig5a–c, preexisting, A1, A2, the model
//! comparison, A4's ring half) each run one [`grid`] of clean and faulty
//! trials. The two closed-loop sweeps (E9, E11) run through one
//! [`closed_loop`] door.
//!
//! Every sweep writes machine-readable JSON rows under `results/` and
//! prints them as the table [`results`] defines for that file, the same
//! table `docs` renders into EXPERIMENTS.md. Each reads its `FP_*` knobs once, first
//! thing in `main`, into a [`RunConfig`] it passes on explicitly:
//! `FP_QUICK=1` for reduced sweeps (used by smoke tests), `FP_THREADS` for
//! the [`Campaign`] worker-pool size (default: all cores) without changing
//! a byte of the output.

pub mod campaign;
pub mod closed_loop;
pub mod config;
pub mod grid;
pub mod results;

pub use campaign::Campaign;
pub use config::RunConfig;
pub use grid::{drop_fault, Cell};

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a rate as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Standard seeds for a sweep.
pub fn seeds(n: u64) -> Vec<u64> {
    (0..n).map(|i| 1000 + i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.015), "1.50%");
        assert_eq!(pct(0.0), "0.00%");
    }

    #[test]
    fn seeds_are_stable() {
        assert_eq!(seeds(3), vec![1000, 1001, 1002]);
    }
}
