//! The closed-loop door: every sweep that runs cells with or without an
//! `fp-ctrl` controller (E9 `mitigation`, E11 `e11_spray_mitigation`)
//! dispatches the controller, logs the controller sweep in the manifest and
//! reduces each goodput trajectory to its phases here, once.

use crate::config::RunConfig;
use flowpulse::prelude::{goodput_phases, run_trial, GoodputPhases, TrialResult, TrialSpec};
use fp_ctrl::{run_ctrl_trial, CtrlConfig};
use serde::{Serialize, Value};

/// One sweep cell: a labelled spec and the controller riding it (`None`:
/// a controller-less baseline).
pub struct Case {
    /// Unique within the sweep: the cell's key in the manifest's `ctrl` map.
    pub label: String,
    /// The trial.
    pub spec: TrialSpec,
    /// The controller riding it, if any.
    pub ctrl: Option<CtrlConfig>,
}

/// What one cell yields.
pub struct LoopRun {
    /// The trial; its `ctrl` record is `Some` exactly when the case carried
    /// a controller.
    pub result: TrialResult,
    /// Pre-fault / during-fault / post-mitigation goodput (a fault-free run
    /// counts its whole trajectory as "pre").
    pub goodput: GoodputPhases,
}

impl RunConfig {
    /// Run every case on the configured pool, results in input order,
    /// through [`RunConfig::run_logged`]: with `FP_TELEMETRY` set, the
    /// manifest's `ctrl` map has one key per label, the controller's
    /// settings or `Null` for a controller-less case.
    pub fn run_closed_loop(&self, name: &str, cases: &[Case]) -> Vec<LoopRun> {
        let ctrl = cases
            .iter()
            .map(|c| {
                (
                    c.label.clone(),
                    c.ctrl.map_or(Value::Null, |cfg| cfg.to_value()),
                )
            })
            .collect();
        let results = self.run_logged(
            name,
            cases,
            |c| &c.spec,
            |c| match c.ctrl {
                Some(cfg) => run_ctrl_trial(&c.spec, cfg),
                None => run_trial(&c.spec),
            },
            Value::Map(ctrl),
        );
        results
            .into_iter()
            .map(|r| {
                let mitigated = r.ctrl.as_ref().and_then(|c| c.mitigate_iter);
                let goodput = goodput_phases(&r.iter_goodput, r.fault_iter.unwrap_or(0), mitigated);
                LoopRun { result: r, goodput }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowpulse::prelude::{FaultSpec, InjectedFault};
    use std::path::PathBuf;

    fn case(label: &str, seed: u64, ctrl: Option<CtrlConfig>) -> Case {
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            bytes_per_node: 256 * 1024,
            iterations: 4,
            fault: Some(FaultSpec {
                kind: InjectedFault::Blackhole,
                at_iter: 2,
                heal_at_iter: None,
                bidirectional: false,
            }),
            seed,
            ..TrialSpec::default()
        };
        Case {
            label: label.into(),
            spec,
            ctrl,
        }
    }

    /// Results come back in input order, `ctrl` is `Some` exactly for the
    /// cases that carry a controller, and the manifest keeps one key per
    /// label with `Null` for the controller-less ones.
    #[test]
    fn door_keeps_order_controllers_and_manifest_keys() {
        let dir = std::env::temp_dir().join(format!("fp_closed_loop_{}", std::process::id()));
        let cfg = RunConfig {
            threads: 2,
            telemetry: Some(dir.clone()),
            ..RunConfig::from_vars(|_| None).unwrap()
        };
        let cases = [
            case("b ctrl", 11, Some(CtrlConfig::default())),
            case("a baseline", 12, None),
            case("c ctrl", 13, Some(CtrlConfig::default())),
        ];
        let runs = cfg.run_closed_loop("closed_loop_door", &cases);
        assert_eq!(runs.len(), cases.len());
        for (c, run) in cases.iter().zip(&runs) {
            let (got, want) = (format!("{:?}", run.result), format!("{:?}", run_one(c)));
            assert_eq!(got, want, "{}: not in input order", c.label);
            assert_eq!(run.result.ctrl.is_some(), c.ctrl.is_some(), "{}", c.label);
            let mitigated = run.result.ctrl.as_ref().and_then(|c| c.mitigate_iter);
            let want = goodput_phases(&run.result.iter_goodput, 2, mitigated);
            assert_eq!(run.goodput, want, "{}", c.label);
        }

        let path: PathBuf = dir.join("closed_loop_door").join("manifest.json");
        let text = std::fs::read_to_string(&path).expect("manifest written");
        std::fs::remove_dir_all(&dir).ok();
        let m: Value = serde_json::from_str(&text).expect("manifest parses");
        let ctrl = m
            .as_map()
            .expect("object")
            .iter()
            .find(|(k, _)| k == "ctrl");
        let ctrl = ctrl.and_then(|(_, v)| v.as_map()).expect("ctrl is a map");
        let keys: Vec<&str> = ctrl.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b ctrl", "a baseline", "c ctrl"]);
        for ((_, v), c) in ctrl.iter().zip(&cases) {
            assert_eq!(*v == Value::Null, c.ctrl.is_none(), "{}", c.label);
        }
    }

    fn run_one(c: &Case) -> TrialResult {
        match c.ctrl {
            Some(cfg) => run_ctrl_trial(&c.spec, cfg),
            None => run_trial(&c.spec),
        }
    }
}
