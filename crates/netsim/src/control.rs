//! The control-plane action API: scheduled remediation, deterministically.
//!
//! Faults ([`crate::fault`]) model what the *network* does to the job; this
//! module models what an *operator* (or an automated control loop, see
//! `fp-ctrl`) does back. A [`ControlAction`] is a remediation primitive —
//! take a suspect link out of routing, quarantine it for spraying, or
//! restore it — that a controller schedules into the simulation with
//! [`crate::sim::Simulator::schedule_control`].
//!
//! A remediation is a silent fault made *known* — the paper's story: once
//! it is known, spraying routes around it and the analytical `d/(s−f)`
//! load shape applies again. So each verb is a
//! [`FaultAction`] (`ControlVerb::action`) and rides the simulator's one
//! link-change schedule with faults and heals, applied in `(time, seq)`
//! order; a controller-enabled run stays byte-identical across scheduler
//! backends and thread counts. All that sets it apart is what is logged
//! when it lands: a `ControlApplied` trace record and an [`AppliedControl`].

use crate::fault::{FaultAction, FaultKind};
use crate::ids::LinkId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// What a control action does to its target link.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum ControlVerb {
    /// Administratively remove the link from routing (both the silent fault
    /// and healthy traffic stop using it; spray sets are recomputed).
    AdminDown,
    /// Restore the link to routing, clearing any fault state (models a
    /// repaired cable being re-admitted). Also lifts any entropy-recycle
    /// quarantine ([`ControlVerb::RecycleEntropy`]) on the link.
    Restore,
    /// Entropy-recycle remediation: keep the link admin-up but quarantine
    /// it for spray decisions — sprayers stop recycling (or freshly
    /// drawing) entropies that cross it whenever an alternative uplink
    /// exists. The REPS-style soft mitigation: no drain, no capacity
    /// cliff, reversible by [`ControlVerb::Restore`].
    RecycleEntropy,
}

impl ControlVerb {
    /// Stable lowercase label for telemetry.
    pub fn name(self) -> &'static str {
        match self {
            ControlVerb::AdminDown => "admin_down",
            ControlVerb::Restore => "restore",
            ControlVerb::RecycleEntropy => "recycle_entropy",
        }
    }

    /// The link change this verb is.
    pub(crate) fn action(self) -> FaultAction {
        match self {
            ControlVerb::AdminDown => FaultAction::Set(FaultKind::AdminDown),
            ControlVerb::Restore => FaultAction::Clear,
            ControlVerb::RecycleEntropy => FaultAction::Quarantine,
        }
    }
}

/// One remediation primitive aimed at a directed link (optionally both
/// directions of the physical cable).
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct ControlAction {
    /// Target directed link.
    pub(crate) link: LinkId,
    /// Apply to the reverse direction as well (physical-cable semantics —
    /// an operator pulls the cable, not one lane of it).
    pub(crate) bidirectional: bool,
    /// What to do.
    pub verb: ControlVerb,
}

impl ControlAction {
    /// `verb` on both directions of `link`'s physical cable.
    pub fn cable(link: LinkId, verb: ControlVerb) -> Self {
        ControlAction {
            link,
            bidirectional: true,
            verb,
        }
    }
}

/// An applied control action, as logged by the engine: what landed, when,
/// and which schedule entry it came from. Controllers poll this log (it is
/// append-only and indexed by application order) to learn that their
/// scheduled remediation actually took effect.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct AppliedControl {
    /// Simulated time the action was applied.
    pub at: SimTime,
    /// Index into the link-change schedule (return value of
    /// `schedule_control`).
    pub idx: u32,
    /// The action that was applied.
    pub action: ControlAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_names_are_stable() {
        assert_eq!(ControlVerb::AdminDown.name(), "admin_down");
        assert_eq!(ControlVerb::Restore.name(), "restore");
        assert_eq!(ControlVerb::RecycleEntropy.name(), "recycle_entropy");
    }

    #[test]
    fn a_cable_verb_is_bidirectional() {
        for verb in [
            ControlVerb::AdminDown,
            ControlVerb::Restore,
            ControlVerb::RecycleEntropy,
        ] {
            let a = ControlAction::cable(LinkId(7), verb);
            assert!(a.bidirectional);
            assert_eq!((a.link, a.verb), (LinkId(7), verb));
        }
    }

    #[test]
    fn every_verb_is_a_link_change() {
        assert_eq!(
            ControlVerb::AdminDown.action(),
            FaultAction::Set(FaultKind::AdminDown)
        );
        assert_eq!(ControlVerb::Restore.action(), FaultAction::Clear);
        assert_eq!(
            ControlVerb::RecycleEntropy.action(),
            FaultAction::Quarantine
        );
    }
}
