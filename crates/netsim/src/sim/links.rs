//! Timed link changes: one schedule, one event kind, one apply function.
//!
//! A remediation is a silent fault made *known* (paper §1/§4): an
//! admin-down link the spray sets exclude. So a control-plane verb is a
//! [`FaultAction`] (`ControlVerb::action`), and faults, heals and
//! remediations share the link-change schedule, [`EventKind::LinkChange`]
//! and [`Simulator::apply_fault_now`]. What sets a remediation apart is
//! only what is logged when it lands: a `ControlApplied` trace record
//! before the change and an [`AppliedControl`] after it.

use super::Simulator;
use crate::control::{AppliedControl, ControlAction, ControlVerb};
use crate::engine::EventKind;
use crate::fault::{FaultAction, FaultEvent, FaultKind};
use crate::ids::LinkId;
use crate::stats::DropCause;
use crate::time::SimTime;
use crate::trace::TraceEvent;

impl Simulator {
    /// Schedule a fault (or a heal) to land at `ev.at`.
    pub fn schedule_fault(&mut self, ev: FaultEvent) {
        self.schedule_link_change(ev, None);
    }

    /// Schedule a control-plane action (remediation) to land at `at`.
    ///
    /// It joins the link-change schedule as the fault action its verb is,
    /// riding the same agenda as every other event, so a controller-enabled
    /// run stays byte-identical across thread counts. Returns the schedule
    /// index, which reappears in [`Simulator::applied_controls`] once the
    /// action has taken effect.
    pub fn schedule_control(&mut self, at: SimTime, action: ControlAction) -> u32 {
        let ev = FaultEvent::new(at, action.link, action.verb.action(), action.bidirectional);
        self.schedule_link_change(ev, Some(action.verb))
    }

    fn schedule_link_change(&mut self, ev: FaultEvent, verb: Option<ControlVerb>) -> u32 {
        let idx = self.link_changes.len() as u32;
        self.at(ev.at, EventKind::LinkChange { idx });
        self.link_changes.push((ev, verb));
        idx
    }

    /// Append-only log of control actions that have been applied.
    pub fn applied_controls(&self) -> &[AppliedControl] {
        &self.applied_controls
    }

    /// Entry `idx` of the link-change schedule is due.
    pub(super) fn apply_link_change(&mut self, idx: u32) {
        let (ev, verb) = self.link_changes[idx as usize];
        let (link, bidirectional) = (ev.link, ev.bidirectional);
        if verb.is_some() {
            self.trace
                .push(self.now, TraceEvent::ControlApplied { link });
        }
        self.apply_fault_now(link, ev.action, bidirectional);
        if let Some(verb) = verb {
            let action = ControlAction {
                link,
                bidirectional,
                verb,
            };
            let at = self.now;
            self.applied_controls
                .push(AppliedControl { at, idx, action });
        }
    }

    /// Apply a link change right now.
    pub fn apply_fault_now(&mut self, link: LinkId, action: FaultAction, bidirectional: bool) {
        self.apply_fault_action(link, action);
        if bidirectional {
            let peer = self.topo.peer[link.idx()];
            self.apply_fault_action(peer, action);
        }
    }

    fn apply_fault_action(&mut self, link: LinkId, action: FaultAction) {
        match action {
            FaultAction::Set(kind) => {
                self.trace
                    .push(self.now, TraceEvent::FaultSet { link, kind });
                if kind == FaultKind::AdminDown {
                    self.links[link.idx()].admin_up = false;
                    self.links[link.idx()].fault = None;
                    self.drain_link_queues(link);
                    self.switches.recompute_routing(&self.topo, &self.links);
                } else {
                    self.links[link.idx()].fault = Some(kind);
                }
            }
            FaultAction::Clear => {
                self.trace.push(self.now, TraceEvent::FaultCleared { link });
                let was_down = !self.links[link.idx()].admin_up;
                self.links[link.idx()].fault = None;
                self.links[link.idx()].admin_up = true;
                // A healed/restored link also sheds any entropy-recycle
                // quarantine — it is trustworthy again.
                self.switches
                    .set_spray_avoid(&mut self.links[link.idx()], false);
                if was_down {
                    self.switches.recompute_routing(&self.topo, &self.links);
                }
                self.try_start_tx(link);
            }
            // Soft mitigation: no admin state change, no queue drain, no
            // routing recompute — queued and in-flight packets finish
            // normally.
            FaultAction::Quarantine => {
                self.switches
                    .set_spray_avoid(&mut self.links[link.idx()], true);
            }
        }
    }

    /// Drop everything queued on a link that just went admin-down,
    /// releasing PFC accounting for each dropped packet.
    fn drain_link_queues(&mut self, link: LinkId) {
        while let Some((pkt, wire)) = self.links[link.idx()].drain_next(self.cfg.wire_overhead) {
            self.trace_drop(link, DropCause::AdminDown, &pkt);
            self.pfc_release(&pkt, wire);
        }
    }
}
