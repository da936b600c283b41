//! Structured event export: what happened, when, machine-readable.
//!
//! Every exceptional occurrence the simulator traces — plus monitor alarms
//! and run milestones from the evaluation harness — is normalized into one
//! [`Event`] and written to `events.jsonl` as a single-line JSON object
//! (serde external tagging: `{"t_ns": 123, "event": {"Drop": {...}}}`).

use serde::{Deserialize, Serialize};

/// One structured telemetry event.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum Event {
    /// A packet was dropped.
    Drop {
        /// Link where the drop occurred.
        link: u32,
        /// Drop cause label (mirrors `fp_netsim::DropCause`).
        cause: String,
        /// Owning flow for data packets.
        flow: Option<u64>,
    },
    /// A fault was installed on a link.
    FaultSet {
        /// Target link.
        link: u32,
        /// Fault kind label (mirrors `fp_netsim::FaultKind`).
        kind: String,
    },
    /// A fault was cleared.
    FaultCleared {
        /// Target link.
        link: u32,
    },
    /// PFC pause state changed at the transmitter of `link`.
    Pfc {
        /// Affected link.
        link: u32,
        /// Priority class.
        prio: u8,
        /// New state.
        paused: bool,
    },
    /// A flow gave up retransmitting.
    FlowFailed {
        /// The abandoned flow.
        flow: u64,
    },
    /// The FlowPulse monitor raised an alarm.
    Alarm {
        /// Collective iteration the alarm fired on.
        iter: u32,
        /// Leaf whose counters deviated.
        leaf: u32,
        /// Worst relative deviation across the leaf's ports.
        worst_rel: f64,
        /// Localization verdict for this alarm, when a localizer ran —
        /// e.g. `"cable(3,1)"` or `"unpaired(3,1)"`. Absent on legacy
        /// records and when localization found nothing for this leaf.
        verdict: Option<String>,
    },
    /// A named run milestone (fault installed/healed, detection, ...).
    Milestone {
        /// Short machine-stable name, e.g. `"fault_installed"`.
        name: String,
        /// Free-form detail for humans.
        detail: String,
    },
    /// A control-plane step (closed-loop remediation: detect, localize,
    /// mitigate, rebaseline, apply).
    Control {
        /// Short machine-stable phase name, e.g. `"mitigate"`.
        phase: String,
        /// Free-form detail for humans.
        detail: String,
    },
    /// The simulator fast-forwarded a steady-state span instead of
    /// simulating it (temporal-symmetry memoization, `TrialSpec::memo`). One event
    /// per replayed span, stamped at the boundary where the replay began.
    MemoFastForward {
        /// Collective iterations replayed in this span.
        iters: u32,
        /// Engine events the replayed span accounts for.
        events: u64,
    },
}

/// A timestamped [`Event`] — one line of `events.jsonl`.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub(crate) struct EventRecord {
    /// Simulated time, nanoseconds.
    pub(crate) t_ns: u64,
    /// The event.
    pub(crate) event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_as_json_lines() {
        let recs = vec![
            EventRecord {
                t_ns: 5,
                event: Event::Drop {
                    link: 3,
                    cause: "SilentFault".into(),
                    flow: Some(9),
                },
            },
            EventRecord {
                t_ns: 7,
                event: Event::Alarm {
                    iter: 2,
                    leaf: 1,
                    worst_rel: 0.25,
                    verdict: Some("cable(1,0)".into()),
                },
            },
            EventRecord {
                t_ns: 9,
                event: Event::Control {
                    phase: "mitigate".into(),
                    detail: "admin_down leaf 1 vspine 0".into(),
                },
            },
        ];
        for r in &recs {
            let line = serde_json::to_string(r).unwrap();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let back: EventRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
        }
    }
}
