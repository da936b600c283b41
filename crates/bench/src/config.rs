//! Configuration is a value: the `FP_*` knobs of the fp-bench binaries,
//! read from the process environment once, first thing in `main`
//! ([`RunConfig::from_env`]), and passed on explicitly. No library crate
//! reads the environment — `SimConfig::default()` and `TrialSpec::default()`
//! are constants — so what `FP_SPRAY` asks for reaches a trial through
//! [`RunConfig::sim`] / [`RunConfig::base_spec`], and the spec a manifest
//! echoes is the spec that ran.

use crate::campaign::Campaign;
use flowpulse::prelude::TrialSpec;
use fp_netsim::config::SimConfig;
use fp_netsim::spray::SprayPolicy;
use fp_telemetry::parse_setting as get;
use serde::{JsonWriter, Serialize};
use std::ffi::OsString;
use std::io::Write;
use std::path::PathBuf;

/// Every knob an fp-bench binary honours, resolved (defaults included).
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// `FP_QUICK`: reduced sweep sizes for smoke runs (default off).
    pub quick: bool,
    /// `FP_THREADS`: campaign worker-pool size (default: every core).
    pub threads: usize,
    /// `FP_RESULTS`: where the JSON result rows land (default `results`).
    pub results: PathBuf,
    /// `FP_SPRAY`: spray backend of every trial that does not pin its own
    /// (default [`SprayPolicy::Adaptive`]).
    pub(crate) spray: SprayPolicy,
    /// `FP_TELEMETRY`: directory for manifests and recorder artifacts
    /// (default none: nothing is written).
    pub telemetry: Option<PathBuf>,
}

/// What every on/off knob accepts.
fn toggle(v: &str) -> Option<bool> {
    match v {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// What every counting knob accepts: a whole number above zero.
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

impl RunConfig {
    /// The configuration `lookup` describes, each knob by
    /// [`fp_telemetry::parse_setting`]'s rule. The two directories are
    /// taken as they are, UTF-8 or not; empty means unset there too (an
    /// empty path would be the current directory).
    pub fn from_vars(lookup: impl Fn(&str) -> Option<OsString>) -> Result<RunConfig, String> {
        let var = |key: &str| lookup(key).map(|v| v.to_string_lossy().into_owned());
        let dir = |key| lookup(key).filter(|v| !v.is_empty()).map(PathBuf::from);
        let on_off = "1|on|true|yes or 0|off|false|no";
        let count = "a positive integer";
        let policies = "random|rr|adaptive|least_loaded|ecmp|prime|reps|reps_failover";
        Ok(RunConfig {
            quick: get(&var, "FP_QUICK", on_off, toggle)?.unwrap_or(false),
            threads: get(&var, "FP_THREADS", count, positive)?
                .unwrap_or_else(|| crate::campaign::host_parallelism() as usize),
            results: dir("FP_RESULTS").unwrap_or_else(|| "results".into()),
            spray: get(&var, "FP_SPRAY", policies, SprayPolicy::parse)?.unwrap_or_default(),
            telemetry: dir("FP_TELEMETRY"),
        })
    }

    /// [`from_vars`](RunConfig::from_vars) on the process environment: exit
    /// status 2 and the error line on a value that is not recognised, else
    /// the resolved configuration echoed on stderr as one `[config …]` line
    /// (the object a manifest carries).
    #[allow(clippy::disallowed_methods)]
    pub fn from_env() -> RunConfig {
        let cfg = RunConfig::from_vars(|key| std::env::var_os(key)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let echo = serde_json::to_string(&cfg).expect("serialize configuration");
        eprintln!("[config {echo}]");
        cfg
    }

    /// `full` normally, `quick` under `FP_QUICK`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The default fabric under the configured spray backend.
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            spray: self.spray,
            ..SimConfig::default()
        }
    }

    /// The default trial under the configured spray backend: what a sweep
    /// spreads where a library caller spreads `Default::default()`. Fields
    /// the sweep sets itself still win.
    pub fn base_spec(&self) -> TrialSpec {
        TrialSpec {
            sim: self.sim(),
            ..TrialSpec::default()
        }
    }

    /// A worker pool of the configured size.
    pub(crate) fn campaign(&self) -> Campaign {
        Campaign::with_threads(self.threads)
    }

    /// The results directory, created if needed.
    pub fn out_dir(&self) -> PathBuf {
        std::fs::create_dir_all(&self.results).expect("create results dir");
        self.results.clone()
    }

    /// Write `rows` as pretty JSON to `<results>/<name>.json`.
    pub fn save_json<T: Serialize>(&self, name: &str, rows: &T) {
        let path = self.out_dir().join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path).expect("create result file");
        serde_json::to_writer_pretty(&mut f, rows).expect("serialize results");
        writeln!(f).ok();
        println!("\n[saved {}]", path.display());
    }
}

/// What a manifest echoes of a [`RunConfig`]: one flat object, a key per
/// knob (paths lossily, as displayed).
#[derive(Serialize)]
struct Echo {
    quick: bool,
    threads: usize,
    results: String,
    spray: SprayPolicy,
    telemetry: Option<String>,
}

impl Serialize for RunConfig {
    fn write_json(&self, w: &mut JsonWriter) {
        let path = |p: &PathBuf| p.display().to_string();
        let echo = Echo {
            quick: self.quick,
            threads: self.threads,
            results: path(&self.results),
            spray: self.spray,
            telemetry: self.telemetry.as_ref().map(path),
        };
        echo.write_json(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over `pairs`, as [`RunConfig::from_vars`] takes it.
    fn with(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<OsString> {
        let pairs: Vec<(String, OsString)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), OsString::from(v)))
            .collect();
        move |key| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    fn defaults() -> RunConfig {
        RunConfig::from_vars(|_| None).expect("nothing set, nothing to refuse")
    }

    #[test]
    fn nothing_set_means_every_default() {
        let d = defaults();
        assert!(!d.quick);
        assert!(d.threads >= 1, "every core the host exposes");
        assert_eq!(d.results, PathBuf::from("results"));
        assert_eq!(d.spray, SprayPolicy::Adaptive);
        assert_eq!(d.telemetry, None);
        assert_eq!(d.sim(), SimConfig::default());
        assert_eq!(d.base_spec().sim, TrialSpec::default().sim);
    }

    /// Every knob with a grammar × {empty, whitespace, valid, typo}.
    #[test]
    fn each_knob_applies_its_value_or_refuses_by_name_and_value() {
        type Check = fn(&RunConfig) -> bool;
        let knobs: [(&str, &[&str], Check, &[&str]); 3] = [
            (
                "FP_QUICK",
                &["1", "on", "true", " yes "],
                |c| c.quick,
                &["ture", "On", "2"],
            ),
            (
                "FP_THREADS",
                &["3", " 3 "],
                |c| c.threads == 3,
                &["0", "four", "-1", "2.5"],
            ),
            (
                "FP_SPRAY",
                &["reps", "REPS", " reps "],
                |c| c.spray == SprayPolicy::Reps,
                &["ecpm", "adaptive,ecmp"],
            ),
        ];
        for (key, valid, applied, typos) in knobs {
            for unset in ["", "  "] {
                let cfg = RunConfig::from_vars(with(&[(key, unset)]));
                assert_eq!(cfg, Ok(defaults()), "{key}={unset:?} means unset");
            }
            for v in valid {
                let cfg = RunConfig::from_vars(with(&[(key, v)])).expect(v);
                assert!(applied(&cfg), "{key}={v:?} did not apply: {cfg:?}");
            }
            for bad in typos {
                let err = RunConfig::from_vars(with(&[(key, bad)])).expect_err(bad);
                assert!(
                    err.starts_with(&format!("{key}={bad:?} not recognized (expected ")),
                    "{key}={bad}: error must name both: {err}"
                );
            }
        }
        for off in ["0", "off", "false", "no"] {
            let cfg = RunConfig::from_vars(with(&[("FP_QUICK", off)]));
            assert_eq!(cfg, Ok(defaults()), "{off:?} is off, not on");
        }
    }

    #[test]
    fn directories_are_taken_as_they_are() {
        for (key, dir) in [("FP_RESULTS", "out/x"), ("FP_TELEMETRY", " ")] {
            let cfg = RunConfig::from_vars(with(&[(key, dir)])).unwrap();
            let got = match key {
                "FP_RESULTS" => Some(cfg.results),
                _ => cfg.telemetry,
            };
            assert_eq!(got, Some(PathBuf::from(dir)), "{key}={dir:?}");
            let empty = RunConfig::from_vars(with(&[(key, "")]));
            assert_eq!(empty, Ok(defaults()), "{key}= means unset");
        }
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let raw = OsString::from_vec(vec![b'r', 0xff]);
            let lookup = |key: &str| (key == "FP_RESULTS").then(|| raw.clone());
            let cfg = RunConfig::from_vars(lookup).expect("not UTF-8, still a path");
            assert_eq!(cfg.results, PathBuf::from(raw.clone()));
        }
    }

    #[test]
    fn pick_and_base_spec_follow_the_configuration() {
        let full = defaults();
        assert_eq!(full.pick(10, 2), 10);
        let cfg = RunConfig::from_vars(with(&[("FP_QUICK", "1"), ("FP_SPRAY", "ecmp")])).unwrap();
        assert_eq!(cfg.pick(10, 2), 2);
        assert_eq!(cfg.sim().spray, SprayPolicy::Ecmp);
        assert_eq!(cfg.base_spec().sim.spray, SprayPolicy::Ecmp);
        // A sweep that pins a field itself still wins.
        let pinned = TrialSpec {
            memo: Some(true),
            ..cfg.base_spec()
        };
        assert_eq!(pinned.memo, Some(true));
    }
}
