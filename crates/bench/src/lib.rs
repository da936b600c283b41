//! # fp-bench — experiment harness for the FlowPulse reproduction
//!
//! One binary per paper artifact (see `DESIGN.md` §4 for the index):
//!
//! | binary            | artifact                                        |
//! |-------------------|-------------------------------------------------|
//! | `fig2`            | Fig. 2 — analytical vs simulated per-port load  |
//! | `fig3`            | Fig. 3 — learning model heal rebaseline          |
//! | `fig5a`           | Fig. 5(a) — ROC across thresholds × drop rates  |
//! | `fig5b`           | Fig. 5(b) — FPR/FNR vs switch radix             |
//! | `fig5c`           | Fig. 5(c) — FPR/FNR vs collective size          |
//! | `preexisting`     | §6 — new faults on top of pre-existing ones     |
//! | `headline`        | abstract — 1.5% drop, 32-leaf fabric, detected  |
//! | `ablate_spray`    | A1 — spray-policy ablation                      |
//! | `ablate_jitter`   | A2 — jitter sensitivity                         |
//! | `ablate_priority` | A3 — measurement prioritization                 |
//! | `ablate_localize` | A4 — localization accuracy                      |
//! | `ablate_model`    | prediction-model comparison                     |
//!
//! Every binary prints a human-readable table and writes machine-readable
//! JSON rows under `results/`. Set `FP_QUICK=1` for reduced sweeps (used by
//! smoke tests). Sweeps run their trials on a [`Campaign`] worker pool —
//! `FP_THREADS` sets the pool size (default: all cores) without changing a
//! byte of the output.

pub mod campaign;

pub use campaign::Campaign;

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// Reduced sweep sizes for smoke runs (`FP_QUICK=1`; an unrecognised value
/// panics, see [`fp_telemetry::env_toggle`]).
pub fn quick() -> bool {
    fp_telemetry::env_toggle("FP_QUICK")
}

/// `full` normally, `quick_v` under `FP_QUICK=1`.
pub fn pick<T>(full: T, quick_v: T) -> T {
    if quick() {
        quick_v
    } else {
        full
    }
}

/// Where `FP_RESULTS` points: the given directory, or `results` when the
/// variable is unset or empty (an empty path would be the current
/// directory). Any non-empty value is taken as is, UTF-8 or not.
fn results_dir(var: Option<std::ffi::OsString>) -> PathBuf {
    var.filter(|v| !v.is_empty())
        .map_or_else(|| "results".into(), PathBuf::from)
}

/// Output directory for JSON result rows (`FP_RESULTS`, default `results`).
pub fn out_dir() -> PathBuf {
    let d = results_dir(std::env::var_os("FP_RESULTS"));
    std::fs::create_dir_all(&d).expect("create results dir");
    d
}

/// Write `rows` as pretty JSON to `results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, rows: &T) {
    let path = out_dir().join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create result file");
    serde_json::to_writer_pretty(&mut f, rows).expect("serialize results");
    writeln!(f).ok();
    println!("\n[saved {}]", path.display());
}

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
    fn pick_honours_quick_env() {
        if !quick() {
            assert_eq!(pick(10, 2), 10);
        } else {
            assert_eq!(pick(10, 2), 2);
        }
    }

    #[test]
    fn results_dir_defaults_when_unset_or_empty() {
        assert_eq!(results_dir(None), PathBuf::from("results"));
        assert_eq!(results_dir(Some("".into())), PathBuf::from("results"));
        assert_eq!(results_dir(Some("out/x".into())), PathBuf::from("out/x"));
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let raw = std::ffi::OsString::from_vec(vec![b'r', 0xff]);
            assert_eq!(results_dir(Some(raw.clone())), PathBuf::from(raw));
        }
    }

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
