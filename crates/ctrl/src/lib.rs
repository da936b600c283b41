//! # fp-ctrl — closed-loop fault remediation
//!
//! The FlowPulse paper stops at localization: the operator learns *which*
//! leaf–spine cable went bad. This crate closes the loop inside the
//! simulation — an online control plane that rides a trial
//! ([`flowpulse::eval::run_trial_ctl`]), consumes the in-switch counters as
//! each training iteration closes, and feeds remediation back into the
//! fabric:
//!
//! 1. **Detect** — a [`Monitor`] with a learned baseline (one warm-up
//!    iteration, the paper's 1 % threshold) scans the just-closed
//!    iteration; hysteresis means one *fresh* alarm per fault episode, not
//!    one per iteration.
//! 2. **Localize** — ring correlation over the fresh alarms' shortfall
//!    ports names culprit cables.
//! 3. **Mitigate** — each culprit gets the configured verb
//!    ([`ControlAction::cable`]) via
//!    [`Simulator::schedule_control`] after a configurable reaction
//!    latency, modelling the detect→ticket→drain delay of a real NOC. The
//!    engine applies the action deterministically on its own clock, so
//!    controller-enabled trials stay byte-identical across worker-thread
//!    counts.
//! 4. **Rebaseline** — once the remediation lands, the monitor relearns its
//!    baseline against the post-mitigation `d/(s−f)` load shape and the
//!    iteration the action landed mid-flight in (partly faulty, partly
//!    healed) is skipped so it cannot poison the new baseline. Detection is
//!    then re-armed for the *next* fault.
//!
//! Every step goes into one action log ([`CtrlAction`]: time, iteration,
//! phase, cable, verb), which the harness reads every closed-loop fact off
//! ([`flowpulse::eval::CtrlOutcome`]); the controller keeps no tally of its
//! own beside it.
//!
//! The controller is deliberately trusting of its localizer: a wrong
//! verdict admin-downs a healthy cable, which the harness counts as a
//! *false mitigation* ([`flowpulse::eval::CtrlOutcome::false_mitigations`]).
//! A budget ([`CtrlConfig::max_mitigations`]) bounds the damage a confused
//! controller can do to the fabric.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use flowpulse::detector::Detector;
use flowpulse::eval::{CtrlAction, CtrlPhase, TrialController, TrialResult, TrialSpec, JOB};
use flowpulse::localizer::Localizer;
use flowpulse::monitor::{Alarm, Monitor};
use fp_netsim::control::{ControlAction, ControlVerb};
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

impl Mitigation {
    /// The verb this remediation schedules; `None` schedules nothing.
    fn verb(self) -> Option<ControlVerb> {
        match self {
            Mitigation::AdminDown => Some(ControlVerb::AdminDown),
            Mitigation::RecycleEntropy => Some(ControlVerb::RecycleEntropy),
            Mitigation::None => None,
        }
    }
}

/// Detection threshold for the online monitor (paper: 0.01).
const THRESHOLD: f64 = 0.01;
/// Iterations the learned baseline averages before detection arms — both
/// at job start and after every post-mitigation rebaseline.
const WARMUP: u32 = 1;

/// Knobs of the closed loop.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlConfig {
    /// Simulated delay between the localization verdict and the remediation
    /// landing in the fabric (detect → ticket → drain in a real NOC).
    pub reaction_latency: SimDuration,
    /// Most verbs this controller will ever schedule in one run; a wrong
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
            reaction_latency: SimDuration::from_us(50),
            max_mitigations: 4,
            mitigation: Mitigation::default(),
        }
    }
}

/// The online detect→localize→mitigate→rebaseline state machine.
///
/// Construct one per trial (`Controller::new`) and hand it to
/// [`flowpulse::eval::run_trial_ctl`] — or use [`run_ctrl_trial`] which does
/// both. Campaigns fan controller-enabled trials across threads by building
/// the controller *inside* the worker closure; nothing here is `Send`.
pub(crate) struct Controller {
    cfg: CtrlConfig,
    monitor: Monitor,
    /// Every step, in order: the one record of what the loop did.
    log: Vec<CtrlAction>,
    /// Remediations scheduled but not yet applied: control-event index
    /// (from [`Simulator::schedule_control`]) → `(leaf, vspine)` cable.
    in_flight: BTreeMap<u32, (u32, u32)>,
    /// Harvest cursor into [`Simulator::applied_controls`].
    applied_seen: usize,
}

impl Controller {
    /// Controller watching the measured collective ([`JOB`]).
    fn new(cfg: CtrlConfig) -> Controller {
        Controller {
            cfg,
            monitor: Monitor::new_learned(JOB, Detector::new(THRESHOLD), WARMUP),
            log: Vec::new(),
            in_flight: BTreeMap::new(),
            applied_seen: 0,
        }
    }

    /// Log one step taken at the end of iteration `iter`.
    fn act(
        &mut self,
        t_ns: u64,
        iter: u32,
        phase: CtrlPhase,
        cable: Option<(u32, u32)>,
        verb: Option<ControlVerb>,
        detail: String,
    ) {
        self.log.push(CtrlAction {
            t_ns,
            iter,
            phase,
            cable,
            verb,
            detail,
        });
    }

    /// Log remediations the engine applied since the last callback.
    /// Returns `(any_applied, mixed)`: `mixed` is `true` if one landed
    /// mid-iteration `iter` (making that iteration's counters a
    /// faulty/healed mix).
    fn harvest_applied(&mut self, sim: &Simulator, iter: u32) -> (bool, bool) {
        let applied = &sim.applied_controls()[self.applied_seen..];
        self.applied_seen += applied.len();
        if applied.is_empty() {
            return (false, false);
        }
        let iter_start_ns = sim
            .iter_spans()
            .iter()
            .find(|s| s.job == JOB && s.iter == iter)
            .map(|s| s.start.as_ns())
            .unwrap_or(0);
        let mut mixed = false;
        for ac in applied {
            let Some(cable) = self.in_flight.remove(&ac.idx) else {
                continue; // not ours (another controller / scripted event)
            };
            let (at, verb) = (ac.at.as_ns(), ac.action.verb);
            let detail = format!("{} cable ({},{})", verb.name(), cable.0, cable.1);
            self.act(
                at,
                iter,
                CtrlPhase::Mitigate,
                Some(cable),
                Some(verb),
                detail,
            );
            mixed |= at > iter_start_ns;
        }
        (true, mixed)
    }
}

/// Culprit cables from the fresh alarms' shortfall ports, via ring
/// correlation: paired and unpaired verdicts (disjoint, each without
/// repeats) both name a cable to pull.
fn localize(fresh: &[Alarm], leaves: u32) -> Vec<(u32, u32)> {
    let loc = Localizer::default().localize_ring_alarms(fresh, leaves);
    let mut culprits = loc.cables;
    culprits.extend(loc.unpaired);
    culprits.sort_unstable();
    culprits
}

impl TrialController for Controller {
    fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32) {
        // 1. Harvest remediations that landed since the last callback; each
        //    batch re-arms detection against the post-mitigation shape.
        let (harvested, mixed) = self.harvest_applied(sim, iter);
        let now = sim.now();
        if harvested {
            self.monitor.rebaseline();
            let detail = "relearn baseline post-mitigation".into();
            self.act(now.as_ns(), iter, CtrlPhase::Rebaseline, None, None, detail);
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
        let detail = format!("{} fresh alarm(s) at iter {iter}", fresh.len());
        self.act(now.as_ns(), iter, CtrlPhase::Detect, None, None, detail);

        // 3. Localize and schedule remediation after the reaction latency.
        for cable @ (leaf, v) in localize(&fresh, sim.topo.spec.leaves) {
            let scheduled = self.log.iter().filter_map(CtrlAction::scheduled).count();
            let (verb, detail) = match self.cfg.mitigation.verb() {
                _ if scheduled >= self.cfg.max_mitigations as usize => (
                    None,
                    format!("cable ({leaf},{v}) named, mitigation budget exhausted"),
                ),
                None => (
                    None,
                    format!("cable ({leaf},{v}) named, mitigation disabled"),
                ),
                Some(verb) => {
                    let at = now + self.cfg.reaction_latency;
                    let link = sim.topo.downlink(v, leaf);
                    let idx = sim.schedule_control(at, ControlAction::cable(link, verb));
                    self.in_flight.insert(idx, cable);
                    let detail =
                        format!("cable ({leaf},{v}) → {} at {}ns", verb.name(), at.as_ns());
                    (Some(verb), detail)
                }
            };
            self.act(
                now.as_ns(),
                iter,
                CtrlPhase::Localize,
                Some(cable),
                verb,
                detail,
            );
        }
    }

    fn take_log(&mut self) -> Vec<CtrlAction> {
        std::mem::take(&mut self.log)
    }
}

/// Run one trial closed-loop: a fresh `Controller` built from `cfg` rides
/// the simulation and its record lands in [`TrialResult::ctrl`].
pub fn run_ctrl_trial(spec: &TrialSpec, cfg: CtrlConfig) -> TrialResult {
    let ctl = Rc::new(RefCell::new(Controller::new(cfg)));
    flowpulse::eval::run_trial_ctl(spec, None, Some(ctl)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowpulse::eval::{FaultSpec, InjectedFault};
    use fp_netsim::spray::SprayPolicy;
    use fp_netsim::trace::TraceEvent;

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
        let named: Vec<_> = c.actions.iter().filter(|a| a.cable.is_some()).collect();
        assert!(!named.is_empty(), "localization still names the cable");
        assert!(named
            .iter()
            .all(|a| a.phase == CtrlPhase::Localize && a.verb.is_none()));
    }

    /// The late-verb residual, pinned to its extent (E11's PRIME
    /// `admin_down` cell): the controller schedules a second `admin_down`,
    /// on healthy cable (0,0), at the end of the last iteration; the
    /// engine applies it after the last iteration-end callback, so it is
    /// never harvested and the outcome counts neither the cable nor a
    /// false mitigation.
    #[test]
    fn a_verb_scheduled_after_the_last_iteration_lands_unharvested() {
        let mut spec = small_spec();
        spec.iterations = 8;
        spec.seed = 44;
        spec.sim.spray = SprayPolicy::Prime;
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_ctrl_trial(&spec, CtrlConfig::default());
        let c = r.ctrl.as_ref().expect("controller rode the trial");
        let scheduled: Vec<_> = c
            .actions
            .iter()
            .filter(|a| a.scheduled().is_some())
            .map(|a| (a.t_ns, a.iter, a.cable))
            .collect();
        assert_eq!(
            scheduled[1],
            (5_073_688, 7, Some((0, 0))),
            "the second verb: {scheduled:?}"
        );
        assert_eq!(scheduled.len(), 2, "{:?}", c.actions);
        let harvested = c.actions.iter().filter(|a| a.phase == CtrlPhase::Mitigate);
        assert_eq!(harvested.count(), 1, "{:?}", c.actions);
        assert_eq!(c.mitigated_ports, vec![(7, 3)]);
        assert_eq!(r.fault_port, Some((7, 3)));
        assert_eq!(c.false_mitigations, 0);
        // The engine did apply it, after the run's last callback.
        let applied: Vec<(u64, u32)> = r
            .trace
            .records()
            .filter_map(|(at, e)| match e {
                TraceEvent::ControlApplied { link } => Some((at.as_ns(), link.0)),
                _ => None,
            })
            .collect();
        assert_eq!(applied.len(), 2, "{applied:?}");
        assert_eq!(applied[1], (5_123_688, 17));
    }
}
