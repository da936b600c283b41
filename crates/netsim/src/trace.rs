//! Lightweight event tracing for debugging and forensics.
//!
//! Tracing records *exceptional* events only (drops, faults, PFC state
//! changes, flow failures) into a bounded ring buffer, so it can stay
//! enabled in tests without distorting performance. The hot path (every
//! packet delivery) is never traced.

use crate::fault::FaultKind;
use crate::ids::LinkId;
use crate::packet::FlowId;
use crate::stats::DropCause;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One traced occurrence.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum TraceEvent {
    /// A packet was dropped.
    Drop {
        /// Link where the drop occurred (or was detected).
        link: LinkId,
        /// Why.
        cause: DropCause,
        /// Owning flow if it was a data packet.
        flow: Option<FlowId>,
    },
    /// A fault was installed on a link.
    FaultSet {
        /// Target link.
        link: LinkId,
        /// The fault.
        kind: FaultKind,
    },
    /// A fault was cleared.
    FaultCleared {
        /// Target link.
        link: LinkId,
    },
    /// PFC pause state changed at the transmitter of `link`.
    PfcState {
        /// Affected link.
        link: LinkId,
        /// Priority class.
        prio: u8,
        /// New state.
        paused: bool,
    },
    /// A flow gave up retransmitting.
    FlowFailed {
        /// The abandoned flow.
        flow: FlowId,
    },
    /// A control-plane action (remediation) was applied to a link.
    ControlApplied {
        /// Target link.
        link: LinkId,
    },
    /// Temporal-symmetry fast-forward replayed a steady-state span instead
    /// of simulating it (one record per replayed span, stamped at the
    /// boundary where the replay began).
    MemoFastForward {
        /// Collective iterations replayed in this span.
        iters: u32,
        /// Engine events the replayed span accounts for.
        events: u64,
    },
}

impl TraceEvent {
    /// Normalize into the telemetry crate's engine-agnostic [`Event`]
    /// (fault kinds and drop causes become their `Debug` labels).
    ///
    /// [`Event`]: fp_telemetry::Event
    pub fn to_telemetry(&self) -> fp_telemetry::Event {
        use fp_telemetry::Event;
        match *self {
            TraceEvent::Drop { link, cause, flow } => Event::Drop {
                link: link.0,
                cause: format!("{cause:?}"),
                flow: flow.map(u64::from),
            },
            TraceEvent::FaultSet { link, kind } => Event::FaultSet {
                link: link.0,
                kind: format!("{kind:?}"),
            },
            TraceEvent::FaultCleared { link } => Event::FaultCleared { link: link.0 },
            TraceEvent::PfcState { link, prio, paused } => Event::Pfc {
                link: link.0,
                prio,
                paused,
            },
            TraceEvent::FlowFailed { flow } => Event::FlowFailed {
                flow: u64::from(flow),
            },
            TraceEvent::ControlApplied { link } => Event::Control {
                phase: "apply".into(),
                detail: format!("link {}", link.0),
            },
            TraceEvent::MemoFastForward { iters, events } => {
                Event::MemoFastForward { iters, events }
            }
        }
    }
}

/// A serializable `(time, event)` trace record — what harnesses export.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct TraceRecord {
    /// Simulated time, nanoseconds.
    pub(crate) t_ns: u64,
    /// The traced event.
    pub event: TraceEvent,
}

/// Bounded ring buffer of `(time, event)` records.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    cap: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
    /// Total events offered (including evicted ones).
    pub offered: u64,
}

impl TraceBuffer {
    /// Buffer keeping the most recent `cap` events. It allocates on the
    /// first push, not here: most runs trace nothing, and a finished
    /// trial's result keeps its buffer.
    pub fn new(cap: usize) -> Self {
        TraceBuffer {
            cap,
            buf: VecDeque::new(),
            offered: 0,
        }
    }

    /// Append, evicting the oldest record if full.
    pub(crate) fn push(&mut self, at: SimTime, ev: TraceEvent) {
        self.offered += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((at, ev));
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True if the ring evicted records (`offered` exceeds what is
    /// retained) — exports should surface this explicitly.
    pub fn truncated(&self) -> bool {
        self.offered > self.buf.len() as u64
    }

    /// Snapshot the retained records as serializable [`TraceRecord`]s,
    /// oldest first.
    pub fn to_records(&self) -> Vec<TraceRecord> {
        self.buf
            .iter()
            .map(|&(at, event)| TraceRecord {
                t_ns: at.as_ns(),
                event,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = TraceBuffer::new(2);
        for i in 0..4 {
            t.push(
                SimTime::from_ns(i),
                TraceEvent::FaultCleared { link: LinkId(0) },
            );
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.offered, 4);
        let times: Vec<u64> = t.records().map(|(at, _)| at.as_ns()).collect();
        assert_eq!(times, vec![2, 3]);
    }

    #[test]
    fn zero_capacity_discards() {
        let mut t = TraceBuffer::new(0);
        t.push(SimTime::ZERO, TraceEvent::FlowFailed { flow: 1 });
        assert!(t.is_empty());
        assert_eq!(t.offered, 1);
        assert!(t.truncated());
    }

    #[test]
    fn truncation_is_flagged_only_after_eviction() {
        let mut t = TraceBuffer::new(2);
        t.push(SimTime::from_ns(1), TraceEvent::FlowFailed { flow: 1 });
        t.push(SimTime::from_ns(2), TraceEvent::FlowFailed { flow: 2 });
        assert!(!t.truncated());
        t.push(SimTime::from_ns(3), TraceEvent::FlowFailed { flow: 3 });
        assert!(t.truncated());
    }

    #[test]
    fn records_snapshot_and_telemetry_export_agree() {
        let mut t = TraceBuffer::new(8);
        t.push(
            SimTime::from_ns(10),
            TraceEvent::FaultSet {
                link: LinkId(4),
                kind: FaultKind::SilentBlackhole,
            },
        );
        t.push(
            SimTime::from_ns(20),
            TraceEvent::PfcState {
                link: LinkId(2),
                prio: 1,
                paused: true,
            },
        );
        let recs = t.to_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t_ns, 10);
        assert_eq!(recs[1].event, t.records().nth(1).unwrap().1);
        assert_eq!(
            recs[0].event.to_telemetry(),
            fp_telemetry::Event::FaultSet {
                link: 4,
                kind: "SilentBlackhole".into()
            }
        );
        assert_eq!(
            recs[1].event.to_telemetry(),
            fp_telemetry::Event::Pfc {
                link: 2,
                prio: 1,
                paused: true
            }
        );
        // A snapshot does not consume the buffer.
        assert_eq!(t.len(), 2);
    }
}
