//! # fp-ctrl — closed-loop fault remediation
//!
//! The FlowPulse paper stops at localization: the operator learns *which*
//! leaf–spine cable went bad. This crate closes the loop inside the
//! simulation — an online control plane that rides a trial
//! ([`flowpulse::eval::run_trial_ctl`]), consumes the in-switch counters as
//! each training iteration closes, and feeds remediation back into the
//! fabric:
//!
//! 1. **Detect** — a [`Monitor`](flowpulse::monitor::Monitor) with a
//!    learned baseline scans the just-closed iteration; hysteresis means
//!    one *fresh* alarm per fault episode, not one per iteration.
//! 2. **Localize** — ring correlation over the fresh alarms' shortfall
//!    ports names culprit cables.
//! 3. **Mitigate** — each culprit is admin-downed
//!    ([`ControlAction::admin_down_cable`]) via
//!    [`Simulator::schedule_control`] after a configurable reaction
//!    latency, modelling the detect→ticket→drain delay of a real NOC. The
//!    engine applies the action deterministically on its own clock, so
//!    controller-enabled trials stay byte-identical across scheduler
//!    backends and worker-thread counts.
//! 4. **Rebaseline** — once the remediation lands, the monitor relearns its
//!    baseline against the post-mitigation `d/(s−f)` load shape and the
//!    iteration the action landed mid-flight in (partly faulty, partly
//!    healed) is skipped so it cannot poison the new baseline. Detection is
//!    then re-armed for the *next* fault.
//!
//! The controller is deliberately trusting of its localizer: a wrong
//! verdict admin-downs a healthy cable, which the harness counts as a
//! *false mitigation* ([`flowpulse::eval::CtrlOutcome::false_mitigations`]).
//! A budget ([`CtrlConfig::max_mitigations`]) bounds the damage a confused
//! controller can do to the fabric.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use flowpulse::detector::Detector;
use flowpulse::eval::{
    CtrlAction, CtrlPhase, CtrlSummary, TrialController, TrialResult, TrialSpec,
};
use flowpulse::localizer::Localizer;
use flowpulse::monitor::{Alarm, Monitor};
use fp_netsim::control::ControlAction;
use fp_netsim::sim::Simulator;
use fp_netsim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which remediation verb the controller schedules on a localized cable.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug, Default)]
pub enum Mitigation {
    /// Admin-down the cable (the paper's remediation): hard, drains
    /// queues, removes capacity until an operator restores it.
    #[default]
    AdminDown,
    /// Entropy-recycle quarantine
    /// ([`fp_netsim::control::ControlVerb::RecycleEntropy`]): the cable
    /// stays up but sprayers steer away from it — REPS-style soft
    /// failover with no capacity cliff and no queue drain.
    RecycleEntropy,
    /// Detect and localize but schedule nothing (ablation baseline).
    None,
}

/// Knobs of the closed loop.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlConfig {
    /// Detection threshold for the online monitor (paper: 0.01).
    pub threshold: f64,
    /// Iterations the learned baseline averages before detection arms —
    /// both at job start and after every post-mitigation rebaseline.
    pub warmup: u32,
    /// Simulated delay between the localization verdict and the remediation
    /// landing in the fabric (detect → ticket → drain in a real NOC).
    pub reaction_latency: SimDuration,
    /// Most cables this controller will ever admin-down in one run; a wrong
    /// localization chain cannot take the fabric apart.
    pub max_mitigations: u32,
    /// Remediation verb scheduled on localized culprits. Serde-defaulted
    /// so specs and configs that predate the mitigation zoo keep their
    /// admin-down behaviour.
    #[serde(default)]
    pub mitigation: Mitigation,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            threshold: 0.01,
            warmup: 1,
            reaction_latency: SimDuration::from_us(50),
            max_mitigations: 4,
            mitigation: Mitigation::default(),
        }
    }
}

/// The online detect→localize→mitigate→rebaseline state machine.
///
/// Construct one per trial ([`Controller::for_spec`]) and hand it to
/// [`flowpulse::eval::run_trial_ctl`] — or use [`run_ctrl_trial`] which does
/// both. Campaigns fan controller-enabled trials across threads by building
/// the controller *inside* the worker closure; nothing here is `Send`.
pub struct Controller {
    cfg: CtrlConfig,
    job: u32,
    leaves: u32,
    monitor: Monitor,
    summary: CtrlSummary,
    /// Remediations scheduled but not yet applied: control-event index
    /// (from [`Simulator::schedule_control`]) → `(leaf, vspine)` cable.
    in_flight: BTreeMap<u32, (u32, u32)>,
    /// Harvest cursor into [`Simulator::applied_controls`].
    applied_seen: usize,
    /// Cables admin-downed so far, against the budget.
    mitigations: u32,
}

impl Controller {
    /// Controller for `job` on a fabric with `leaves` leaf switches.
    pub fn new(job: u32, leaves: u32, cfg: CtrlConfig) -> Controller {
        Controller {
            cfg,
            job,
            leaves,
            monitor: Monitor::new_learned(job, Detector::new(cfg.threshold), cfg.warmup),
            summary: CtrlSummary::default(),
            in_flight: BTreeMap::new(),
            applied_seen: 0,
            mitigations: 0,
        }
    }

    /// Controller matching a trial spec (the harness runs the measured
    /// collective as job 1).
    pub fn for_spec(spec: &TrialSpec, cfg: CtrlConfig) -> Controller {
        Controller::new(1, spec.leaves, cfg)
    }

    fn act(&mut self, t_ns: u64, phase: CtrlPhase, detail: String) {
        self.summary.actions.push(CtrlAction {
            t_ns,
            phase,
            detail,
        });
    }

    /// Record remediations the engine applied since the last callback.
    /// Returns `(any_applied, mixed)`: `mixed` is `true` if one landed
    /// mid-iteration `iter` (making that iteration's counters a
    /// faulty/healed mix).
    fn harvest_applied(&mut self, sim: &Simulator, iter: u32) -> (bool, bool) {
        let applied = sim.applied_controls()[self.applied_seen..].to_vec();
        self.applied_seen += applied.len();
        if applied.is_empty() {
            return (false, false);
        }
        let iter_start_ns = sim
            .iter_spans()
            .iter()
            .find(|s| s.job == self.job && s.iter == iter)
            .map(|s| s.start.as_ns())
            .unwrap_or(0);
        let mut mixed = false;
        for ac in &applied {
            let Some(cable) = self.in_flight.remove(&ac.idx) else {
                continue; // not ours (another controller / scripted event)
            };
            if self.summary.mitigate_ns.is_none() {
                self.summary.mitigate_ns = Some(ac.at.as_ns());
                self.summary.mitigate_iter = Some(iter);
            }
            self.summary.mitigated_ports.push(cable);
            self.act(
                ac.at.as_ns(),
                CtrlPhase::Mitigate,
                format!("{} cable ({},{})", ac.action.verb.name(), cable.0, cable.1),
            );
            mixed |= ac.at.as_ns() > iter_start_ns;
        }
        (true, mixed)
    }

    /// Culprit cables from the fresh alarms' shortfall ports, via ring
    /// correlation (paired and unpaired verdicts both name a cable to pull).
    fn localize(&self, fresh: &[Alarm]) -> Vec<(u32, u32)> {
        let loc = Localizer::default().localize_ring_alarms(fresh, self.leaves);
        let mut culprits = loc.cables;
        culprits.extend(loc.unpaired);
        culprits.sort_unstable();
        culprits.dedup();
        culprits
    }
}

impl TrialController for Controller {
    fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32) {
        // 1. Harvest remediations that landed since the last callback; each
        //    batch re-arms detection against the post-mitigation shape.
        let (harvested, mixed) = self.harvest_applied(sim, iter);
        if harvested {
            self.monitor.rebaseline();
            self.summary.rebaselines += 1;
            self.act(
                sim.now().as_ns(),
                CtrlPhase::Rebaseline,
                "relearn baseline post-mitigation".into(),
            );
        }
        if mixed {
            // The iteration the action landed in is part-faulty,
            // part-healed; evaluating it would poison the fresh baseline.
            self.monitor.skip_to(iter + 1);
        }

        // 2. Scan the just-closed iteration. No iteration-`iter+1` packet
        //    exists yet, so `iter` is complete — flush evaluates it now.
        let before = self.monitor.alarms.len();
        self.monitor.scan(&sim.counters, true);
        let fresh: Vec<Alarm> = self.monitor.alarms[before..]
            .iter()
            .filter(|a| a.fresh)
            .cloned()
            .collect();
        if fresh.is_empty() || !self.in_flight.is_empty() {
            // Nothing new, or a remediation is already in flight — alarms
            // raised while it travels are the same fault still burning.
            return;
        }
        let now = sim.now();
        if self.summary.detect_ns.is_none() {
            self.summary.detect_ns = Some(now.as_ns());
        }
        self.act(
            now.as_ns(),
            CtrlPhase::Detect,
            format!("{} fresh alarm(s) at iter {iter}", fresh.len()),
        );

        // 3. Localize and schedule remediation after the reaction latency.
        for (leaf, v) in self.localize(&fresh) {
            if self.mitigations >= self.cfg.max_mitigations {
                self.act(
                    now.as_ns(),
                    CtrlPhase::Localize,
                    format!("cable ({leaf},{v}) named, mitigation budget exhausted"),
                );
                continue;
            }
            if self.cfg.mitigation == Mitigation::None {
                self.act(
                    now.as_ns(),
                    CtrlPhase::Localize,
                    format!("cable ({leaf},{v}) named, mitigation disabled"),
                );
                continue;
            }
            self.mitigations += 1;
            let link = sim.topo.downlink(v, leaf);
            let at = now + self.cfg.reaction_latency;
            let action = match self.cfg.mitigation {
                Mitigation::AdminDown => ControlAction::admin_down_cable(link),
                Mitigation::RecycleEntropy => ControlAction::recycle_entropy_cable(link),
                Mitigation::None => unreachable!("handled above"),
            };
            let idx = sim.schedule_control(at, action);
            self.in_flight.insert(idx, (leaf, v));
            self.act(
                now.as_ns(),
                CtrlPhase::Localize,
                format!(
                    "cable ({leaf},{v}) → {} at {}ns",
                    action.verb.name(),
                    at.as_ns()
                ),
            );
        }
    }

    fn summary(&self) -> CtrlSummary {
        self.summary.clone()
    }
}

/// Run one trial closed-loop: a fresh [`Controller`] built from `cfg` rides
/// the simulation and its record lands in [`TrialResult::ctrl`].
pub fn run_ctrl_trial(spec: &TrialSpec, cfg: CtrlConfig) -> TrialResult {
    let ctl = Rc::new(RefCell::new(Controller::for_spec(spec, cfg)));
    flowpulse::eval::run_trial_ctl(spec, None, Some(ctl)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowpulse::eval::{FaultSpec, InjectedFault};

    fn small_spec() -> TrialSpec {
        TrialSpec {
            leaves: 8,
            spines: 4,
            bytes_per_node: 8 * 1024 * 1024,
            iterations: 6,
            ..Default::default()
        }
    }

    #[test]
    fn config_defaults_match_the_paper_loop() {
        let cfg = CtrlConfig::default();
        assert_eq!(cfg.threshold, 0.01);
        assert_eq!(cfg.warmup, 1);
        assert_eq!(cfg.reaction_latency, SimDuration::from_us(50));
        assert_eq!(cfg.max_mitigations, 4);
    }

    #[test]
    fn clean_run_takes_no_action() {
        let r = run_ctrl_trial(&small_spec(), CtrlConfig::default());
        let c = r.ctrl.expect("controller rode the trial");
        assert_eq!(c.false_mitigations, 0);
        assert!(c.mitigated_ports.is_empty());
        assert!(c.time_to_detect_ns.is_none());
        assert!(c.time_to_mitigate_ns.is_none());
        assert!(c.actions.is_empty(), "{:?}", c.actions);
    }

    #[test]
    fn blackhole_is_detected_localized_and_mitigated() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_ctrl_trial(&spec, CtrlConfig::default());
        let c = r.ctrl.as_ref().expect("controller rode the trial");
        assert!(c.time_to_detect_ns.is_some(), "{c:?}");
        assert!(c.time_to_mitigate_ns.is_some(), "{c:?}");
        assert!(c.time_to_mitigate_ns >= c.time_to_detect_ns);
        assert_eq!(c.mitigated_ports, vec![r.fault_port.unwrap()]);
        assert_eq!(c.false_mitigations, 0);
        assert_eq!(c.rebaselines, 1);
        // The loop ran all four phases, in order.
        let phases: Vec<CtrlPhase> = c.actions.iter().map(|a| a.phase).collect();
        assert_eq!(
            phases,
            vec![
                CtrlPhase::Detect,
                CtrlPhase::Localize,
                CtrlPhase::Mitigate,
                CtrlPhase::Rebaseline,
            ]
        );
    }

    #[test]
    fn budget_bounds_the_damage() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        });
        let cfg = CtrlConfig {
            max_mitigations: 0,
            ..CtrlConfig::default()
        };
        let r = run_ctrl_trial(&spec, cfg);
        let c = r.ctrl.expect("controller rode the trial");
        assert!(c.mitigated_ports.is_empty(), "budget 0 admin-downs nothing");
        assert!(c.time_to_detect_ns.is_some(), "detection still reports");
        assert!(c
            .actions
            .iter()
            .any(|a| a.detail.contains("budget exhausted")));
    }
}
