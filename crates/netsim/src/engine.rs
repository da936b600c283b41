//! The discrete-event core: the deterministic future-event list.
//!
//! [`EventQueue`] is a binary min-heap. Events at equal timestamps are
//! processed in insertion order (a sequence number breaks ties), so runs
//! are bit-for-bit reproducible for a given seed regardless of platform.
//! Most pending events never reach it: packets and constant-delay timers
//! wait in the agenda's pipes ([`crate::pipeline`]).

use crate::ids::{HostId, LinkId};
use crate::packet::FlowId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Every kind of event the simulator processes.
#[derive(Copy, Clone, Debug)]
pub enum EventKind {
    /// A link finished serializing its current packet.
    TxDone {
        /// The transmitting directed link.
        link: LinkId,
    },
    /// Retransmission timer for one segment.
    ///
    /// RTO events are *lazily cancelled*: nothing searches the agenda when
    /// a segment is acknowledged or its flow gives up; a timer that
    /// surfaces for such a segment is discarded without being dispatched
    /// (it never counts as a processed event and never advances the
    /// clock). A flow keeps only one first-attempt timer (`attempt` 0)
    /// armed at a time, for its oldest segment still in doubt
    /// (`crate::transport`); every backoff timer is armed on its own.
    Rto {
        /// Owning flow.
        flow: FlowId,
        /// Segment sequence.
        seq: u32,
        /// How many times this segment has been retransmitted already.
        attempt: u32,
    },
    /// Application wake-up (workload-scheduled).
    Wake {
        /// Host being woken.
        host: HostId,
        /// Opaque application token.
        token: u64,
    },
    /// Apply entry `idx` of the link-change schedule: a fault, a heal or a
    /// control plane's remediation.
    LinkChange {
        /// Index into the schedule.
        idx: u32,
    },
    /// A PFC pause/resume frame takes effect at the transmitter of `link`.
    Pfc {
        /// The directed link whose transmitter is being paused/resumed.
        link: LinkId,
        /// Priority class affected.
        prio: u8,
        /// `true` = pause, `false` = resume.
        pause: bool,
    },
    /// Flush a partially-filled coalesced ACK for `flow`.
    AckFlush {
        /// Flow whose receiver has a pending ACK accumulation.
        flow: FlowId,
    },
    /// Periodic telemetry sampler tick, scheduled only while a recorder
    /// with a nonzero sampling interval is attached.
    ///
    /// Like lazily-cancelled RTO pops, sampler ticks advance the clock but
    /// are *not* charged to `stats.events` or the `max_events` guard, so an
    /// attached recorder never perturbs event accounting. The tick
    /// reschedules itself only while other events remain, so it cannot keep
    /// an otherwise-drained agenda alive.
    Sample,
}

impl EventKind {
    /// Rebase the flow id this event references by `dflow` — the temporal-
    /// symmetry fast-forward shifts every residual timer onto the replayed
    /// iteration's flow block (`crate::sim::memo`). Events that reference no
    /// flow pass through unchanged. Variants that must never appear in a
    /// memoized residual (`Wake`, `LinkChange`, `Pfc`, `Sample` — the
    /// eligibility scan refuses boundaries holding them) debug-panic here.
    pub(crate) fn memo_shift_flow(self, dflow: u32) -> EventKind {
        match self {
            EventKind::Rto { flow, seq, attempt } => EventKind::Rto {
                flow: flow + dflow,
                seq,
                attempt,
            },
            EventKind::AckFlush { flow } => EventKind::AckFlush { flow: flow + dflow },
            EventKind::TxDone { .. } => self,
            _ => {
                debug_assert!(false, "memo rebase over ineligible event {self:?}");
                self
            }
        }
    }
}

// Scheduler entries are moved on every sift of the heap, so growing
// `EventKind` silently taxes every push and pop. Deliveries — which used
// to carry the 64-byte `Packet` by value — no longer exist as scheduler
// events at all: packets ride per-link FIFO pipelines (`crate::pipeline`)
// and only tiny timer / control events go through the heap. The largest
// variants today are `Wake` (tag, host and the 8-byte token) and `Rto`
// (tag + three `u32`s): two words, which is also what a delay-class pipe
// entry packs an event into (`crate::pipeline`). If a variant ever needs
// more, box its payload instead of raising this.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);

/// Inert: kept because `benchmark/` pins it; every value runs the one
/// [`EventQueue`].
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum SchedKind {
    /// Inert: the binary heap every simulator runs on.
    Heap,
    /// Inert: once the timing wheel, now the same binary heap.
    Wheel,
}

/// Occupancy / traffic counters of one agenda over its lifetime.
///
/// These are *observability only*: they are reported through telemetry
/// manifests, never through trial result rows.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug, Default)]
pub struct SchedStats {
    /// Events actually pushed into the heap (excludes sequence numbers
    /// that were merely *reserved* for pipe entries — see
    /// [`Scheduler::reserve_seq`]). This is the "scheduler traffic" number
    /// the delivery and delay-class pipes shrink.
    pub pushes: u64,
    /// Events popped back out of the heap. Counts every pop the engine
    /// performs — including lazily-cancelled RTO timers that are then
    /// discarded *without* being dispatched — so `pushes == pops + len`
    /// holds at any quiescent point, while the engine's `stats.events`
    /// (events *executed*) stays a separate number.
    pub pops: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Inert: kept because `benchmark/` reads it; always 0.
    pub cascaded_entries: u64,
    /// Events appended to a delay-class pipe instead of the heap (see
    /// [`crate::pipeline`]). Filled in by `Simulator::sched_stats`; a bare
    /// queue reports zero.
    pub class_pushes: u64,
    /// Events popped off a delay-class pipe — like `pops`, including
    /// lazily-cancelled RTO timers that are then discarded. On a drained,
    /// recorder-free run `pops + class_pops + head_pops == events -
    /// pipeline_deliveries + rto_stale_skips`.
    pub class_pops: u64,
    /// First-attempt retransmission timers armed in the agenda's
    /// head-of-line set (one at a time per flow, see `crate::transport`).
    pub head_arms: u64,
    /// Head-of-line timers that surfaced (live or lazily cancelled).
    pub head_pops: u64,
}

impl SchedStats {
    /// Accumulate another trial's scheduler counters (totals over the
    /// trials of a campaign or of a benchmark unit); `max_pending` is a
    /// high-water mark, every other field a sum.
    pub fn merge(&mut self, other: &SchedStats) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.max_pending = self.max_pending.max(other.max_pending);
        self.class_pushes += other.class_pushes;
        self.class_pops += other.class_pops;
        self.head_arms += other.head_arms;
        self.head_pops += other.head_pops;
    }
}

/// The future-event list's surface.
///
/// Inert: [`EventQueue`] is its one implementor; kept because `benchmark/`
/// imports it to call these methods.
///
/// Every `pop` yields the earliest *currently pending* event, and events
/// with equal timestamps come out in insertion order. (The popped sequence
/// is not globally nondecreasing: popping a lazily-cancelled RTO timer
/// consumes a future timestamp without advancing the simulator clock, so a
/// later push may legally be earlier than an already-popped stale timer.)
pub trait Scheduler {
    /// Schedule `kind` at absolute time `at`. Any `at` is legal, including
    /// one below previously popped timestamps (see the trait docs).
    fn push(&mut self, at: SimTime, kind: EventKind);
    /// Consume the next global sequence number *without pushing anything*.
    ///
    /// Per-link pipeline entries (`crate::pipeline`) reserve their
    /// tie-break sequence at insert time — exactly where the per-packet
    /// `Delivery` push used to consume one — so every other event's
    /// sequence number, and therefore every equal-timestamp ordering
    /// decision, is identical to the per-packet-event engine.
    fn reserve_seq(&mut self) -> u64;
    /// Pop the earliest event.
    fn pop(&mut self) -> Option<(SimTime, EventKind)>;
    /// `(timestamp, sequence)` of the next event without removing it — the
    /// pair the event loop compares against an armed pipe front to decide
    /// which dispatches first at equal timestamps.
    fn peek_next(&self) -> Option<(SimTime, u64)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if nothing is scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Lifetime occupancy counters.
    fn stats(&self) -> SchedStats;
}

struct HeapEntry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list: a binary min-heap on `(time, seq)`.
///
/// The head is mirrored into a plain field so the event loop's
/// peek-then-pop pattern reads one word instead of dereferencing the heap
/// root on every iteration.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    /// Next global sequence number; advanced by pushes *and* reservations.
    seq: u64,
    /// Cached copy of `heap.peek()`'s `(at, seq)`; `None` iff empty.
    next: Option<(SimTime, u64)>,
    /// Events actually pushed (`seq` minus reservations).
    pushed: u64,
    /// Events popped back out.
    popped: u64,
    /// High-water mark of pending events.
    max_pending: u64,
}

impl EventQueue {
    /// Empty queue. Inert: `kind` is ignored, there is one backend.
    pub fn new(_kind: SchedKind) -> EventQueue {
        EventQueue::default()
    }

    /// Visit every pending entry, in no particular order (memo snapshot).
    pub(crate) fn memo_for_each(&self, f: &mut dyn FnMut(SimTime, u64, EventKind)) {
        for e in self.heap.iter() {
            f(e.at, e.seq, e.kind);
        }
    }

    /// Shift every pending entry by `dt` in time, `dseq` in tie-break
    /// sequence and `dflow` in flow id, and advance the sequence counter by
    /// `dseq` — the in-place state rebase the temporal-symmetry fast-forward
    /// applies at an iteration boundary. A uniform shift preserves the heap
    /// order exactly, so the rebuilt heap pops in the same relative order.
    pub(crate) fn memo_rebase(&mut self, dt: crate::time::SimDuration, dseq: u64, dflow: u32) {
        let v: Vec<HeapEntry> = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .map(|e| HeapEntry {
                at: e.at + dt,
                seq: e.seq + dseq,
                kind: e.kind.memo_shift_flow(dflow),
            })
            .collect();
        self.heap = BinaryHeap::from(v);
        self.seq += dseq;
        if let Some((t, s)) = self.next {
            self.next = Some((t + dt, s + dseq));
        }
    }

    /// Account `reps` repetitions of one recorded window's scheduler
    /// traffic without touching pending entries. `max_pending` is a
    /// high-water mark and a matched steady-state window sets no new one,
    /// so it is deliberately left alone.
    pub(crate) fn memo_add_stats(&mut self, d: &SchedStats, reps: u64) {
        self.pushed += d.pushes * reps;
        self.popped += d.pops * reps;
    }

    /// Current sequence-counter value (pushes + reservations so far).
    pub(crate) fn memo_seq(&self) -> u64 {
        self.seq
    }
}

impl Scheduler for EventQueue {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.pushed += 1;
        if self.next.is_none_or(|(t, s)| (at, seq) < (t, s)) {
            self.next = Some((at, seq));
        }
        self.heap.push(HeapEntry { at, seq, kind });
        self.max_pending = self.max_pending.max(self.heap.len() as u64);
    }
    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let popped = self.heap.pop()?;
        self.popped += 1;
        // Refresh the cached head only while the heap is nonempty; when the
        // pop emptied it, `peek()` would dereference just to store `None`.
        self.next = if self.heap.is_empty() {
            None
        } else {
            self.heap.peek().map(|e| (e.at, e.seq))
        };
        Some((popped.at, popped.kind))
    }
    #[inline]
    fn peek_next(&self) -> Option<(SimTime, u64)> {
        self.next
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn stats(&self) -> SchedStats {
        SchedStats {
            pushes: self.pushed,
            pops: self.popped,
            max_pending: self.max_pending,
            ..SchedStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(t: u64, token: u64) -> (SimTime, EventKind) {
        (
            SimTime::from_ns(t),
            EventKind::Wake {
                host: HostId(0),
                token,
            },
        )
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventQueue::default();
        for (t, k) in [wake(30, 0), wake(10, 1), wake(20, 2)] {
            h.push(t, k);
        }
        let times: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(t, _)| t.as_ns())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut h = EventQueue::default();
        for i in 0..10u64 {
            let (t, k) = wake(100, i);
            h.push(t, k);
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| {
            h.pop().map(|(_, k)| match k {
                EventKind::Wake { token, .. } => token,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventQueue::default();
        let (t, k) = wake(55, 0);
        h.push(t, k);
        assert_eq!(h.peek_next(), Some((SimTime::from_ns(55), 0)));
        assert_eq!(h.len(), 1);
        h.pop();
        assert!(h.is_empty());
        assert_eq!(h.peek_next(), None);
    }

    #[test]
    fn cached_peek_tracks_pushes_and_pops() {
        let mut h = EventQueue::default();
        assert_eq!(h.peek_next(), None);
        let (t, k) = wake(50, 0);
        h.push(t, k);
        let (t, k) = wake(10, 1);
        h.push(t, k);
        let (t, k) = wake(30, 2);
        h.push(t, k);
        assert_eq!(h.peek_next(), Some((SimTime::from_ns(10), 1)));
        h.pop();
        assert_eq!(h.peek_next(), Some((SimTime::from_ns(30), 2)));
        h.pop();
        h.pop();
        assert_eq!(h.peek_next(), None);
    }

    #[test]
    fn pushes_count_every_push_ever_made() {
        let mut h = EventQueue::default();
        for i in 0..5u64 {
            let (t, k) = wake(i, i);
            h.push(t, k);
        }
        h.pop();
        assert_eq!(h.stats().pushes, 5);
    }

    #[test]
    fn cached_peek_cleared_when_pop_empties_heap() {
        let mut h = EventQueue::default();
        let (t, k) = wake(7, 0);
        h.push(t, k);
        assert_eq!(h.pop().map(|(t, _)| t.as_ns()), Some(7));
        assert_eq!(h.peek_next(), None);
        assert!(h.pop().is_none());
        assert_eq!(h.peek_next(), None);
    }

    #[test]
    fn heap_stats_track_high_water_mark() {
        let mut h = EventQueue::default();
        for i in 0..4u64 {
            let (t, k) = wake(i, i);
            h.push(t, k);
        }
        h.pop();
        h.pop();
        let (t, k) = wake(9, 9);
        h.push(t, k);
        assert_eq!(h.stats().max_pending, 4);
        assert_eq!(h.stats().cascaded_entries, 0);
    }

    #[test]
    fn sched_stats_merge_sums_and_maxes() {
        let a = SchedStats {
            pushes: 100,
            pops: 90,
            max_pending: 10,
            cascaded_entries: 0,
            class_pushes: 30,
            class_pops: 25,
            head_arms: 9,
            head_pops: 8,
        };
        let mut m = SchedStats {
            pushes: 20,
            pops: 20,
            max_pending: 3,
            cascaded_entries: 0,
            class_pushes: 3,
            class_pops: 3,
            head_arms: 2,
            head_pops: 1,
        };
        m.merge(&a);
        assert_eq!(m.pushes, 120);
        assert_eq!(m.pops, 110);
        assert_eq!(m.max_pending, 10);
        assert_eq!(m.class_pushes, 33);
        assert_eq!(m.class_pops, 28);
        assert_eq!((m.head_arms, m.head_pops), (11, 9));
    }

    #[test]
    fn reserved_seqs_gap_the_tie_break_but_not_the_push_count() {
        // A reservation consumes a sequence number (so a later push ties
        // *after* the reserved slot) without counting as scheduler traffic.
        let mut q = EventQueue::default();
        let (t, k) = wake(10, 0);
        q.push(t, k);
        assert_eq!(q.reserve_seq(), 1);
        let (t, k) = wake(10, 2);
        q.push(t, k);
        assert_eq!(q.stats().pushes, 2, "reservation must not count as a push");
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(10), 0)));
        q.pop();
        assert_eq!(q.peek_next().map(|(_, s)| s), Some(2));
        q.pop();
        assert_eq!(q.stats().pops, 2);
        assert_eq!(q.peek_next(), None);
    }

    #[test]
    fn pushes_equal_pops_plus_len_at_any_point() {
        let mut q = EventQueue::default();
        for i in 0..6u64 {
            let (t, k) = wake(10 * i, i);
            q.push(t, k);
        }
        q.pop();
        q.pop();
        let s = q.stats();
        assert_eq!(s.pushes, s.pops + q.len() as u64);
    }

    fn token(k: EventKind) -> u64 {
        match k {
            EventKind::Wake { token, .. } => token,
            _ => unreachable!(),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|(t, k)| (t.as_ns(), token(k)))).collect()
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Times past 2^32 ns (about 4.3 s of simulated time) order like
        // any other, ties included.
        let far = 1u64 << 32;
        let mut q = EventQueue::default();
        for (t, tok) in [(far + 7, 0), (3, 1), (far + 7, 2), (far + 5, 3)] {
            let (at, k) = wake(t, tok);
            q.push(at, k);
        }
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(3), 1)));
        assert_eq!(
            drain(&mut q),
            vec![(3, 1), (far + 5, 3), (far + 7, 0), (far + 7, 2)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_sorted_order() {
        // The simulator's steady state: bursts at fixed offsets from the
        // clock (serialization, latency, RTO) while the backlog drains two
        // at a time. Tokens are push order, so sorting by (time, token) is
        // the FIFO-at-equal-times reference.
        let mut q = EventQueue::default();
        let (mut expected, mut got) = (Vec::new(), Vec::new());
        let (mut now, mut next_token) = (0u64, 0u64);
        for _ in 0..200 {
            for off in [1, 257, 5_000, 70_000] {
                let (t, k) = wake(now + off, next_token);
                q.push(t, k);
                expected.push((now + off, next_token));
                next_token += 1;
            }
            for _ in 0..2 {
                if let Some((t, k)) = q.pop() {
                    now = t.as_ns();
                    got.push((now, token(k)));
                }
            }
        }
        got.extend(drain(&mut q));
        expected.sort_unstable();
        assert_eq!(got, expected);
        let s = q.stats();
        assert_eq!((s.pushes, s.pops), (800, 800));
        assert!(s.max_pending >= 400, "backlog never built: {s:?}");
    }

    #[test]
    fn push_below_peeked_head_comes_out_first() {
        // The cached head must move when a push orders before it, and the
        // pushes must come out in time order, FIFO at equal times.
        let mut q = EventQueue::default();
        let (t, k) = wake(10, 0);
        q.push(t, k);
        let (t, k) = wake(1_000, 1);
        q.push(t, k);
        assert_eq!(q.pop().map(|(t, k)| (t.as_ns(), token(k))), Some((10, 0)));
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(1_000), 1)));
        for (t, tok) in [(500, 2), (200, 3), (500, 4)] {
            let (at, k) = wake(t, tok);
            q.push(at, k);
        }
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(200), 3)));
        assert_eq!(
            drain(&mut q),
            vec![(200, 3), (500, 2), (500, 4), (1_000, 1)]
        );
    }

    #[test]
    fn push_below_popped_timestamp_is_legal() {
        // The lazy-RTO shape: a stale timer pops at a *future* timestamp
        // without advancing the simulator clock, then the engine schedules
        // a wire event off its own, earlier, clock. The backdated event
        // must come straight back out first.
        let mut q = EventQueue::default();
        let (t, k) = wake(378_076, 0);
        q.push(t, k);
        assert_eq!(
            q.pop().map(|(t, k)| (t.as_ns(), token(k))),
            Some((378_076, 0))
        );
        let (t, k) = wake(375_124, 1);
        q.push(t, k);
        let (t, k) = wake(379_000, 2);
        q.push(t, k);
        assert_eq!(drain(&mut q), vec![(375_124, 1), (379_000, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_new_ignores_its_kind() {
        // `SchedKind` is inert: both values build the same queue, with the
        // same order, the same counters and `cascaded_entries` at 0.
        let run = |mut q: EventQueue| {
            for (t, tok) in [(30u64, 0u64), (10, 1), (30, 2), (1 << 33, 3)] {
                let (at, k) = wake(t, tok);
                q.push(at, k);
            }
            q.reserve_seq();
            let (at, k) = wake(10, 4);
            q.push(at, k);
            let head = q.peek_next();
            (head, drain(&mut q), q.stats())
        };
        let default = run(EventQueue::default());
        assert_eq!(run(EventQueue::new(SchedKind::Heap)), default);
        assert_eq!(run(EventQueue::new(SchedKind::Wheel)), default);
        let (head, order, stats) = default;
        assert_eq!(head, Some((SimTime::from_ns(10), 1)));
        assert_eq!(
            order,
            vec![(10, 1), (10, 4), (30, 0), (30, 2), (1 << 33, 3)]
        );
        assert_eq!((stats.pushes, stats.pops, stats.max_pending), (5, 5, 5));
        assert_eq!(stats.cascaded_entries, 0);
    }

    /// The three kinds a memoized residual may hold.
    fn residual(flow: FlowId) -> [EventKind; 3] {
        [
            EventKind::Rto {
                flow,
                seq: 4,
                attempt: 1,
            },
            EventKind::AckFlush { flow },
            EventKind::TxDone { link: LinkId(5) },
        ]
    }

    fn pending(q: &EventQueue) -> Vec<(u64, u64, String)> {
        let mut v = Vec::new();
        q.memo_for_each(&mut |at, seq, kind| v.push((at.as_ns(), seq, format!("{kind:?}"))));
        v.sort();
        v
    }

    #[test]
    fn memo_shift_flow_moves_only_flow_references() {
        let shifted = residual(10).map(|k| format!("{:?}", k.memo_shift_flow(7)));
        let expected = residual(17).map(|k| format!("{k:?}"));
        assert_eq!(shifted[..2], expected[..2]);
        // TxDone names a link, not a flow: it passes through unchanged.
        assert_eq!(shifted[2], format!("{:?}", residual(10)[2]));
    }

    #[test]
    fn memo_for_each_visits_every_pending_entry() {
        let mut q = EventQueue::default();
        for (i, k) in residual(2).into_iter().enumerate() {
            q.push(SimTime::from_ns(40 - 10 * i as u64), k);
        }
        q.reserve_seq();
        let (t, k) = wake(5, 9);
        q.push(t, k);
        q.pop();
        let seen = pending(&q);
        assert_eq!(seen.len(), q.len());
        let at_seq: Vec<(u64, u64)> = seen.iter().map(|&(t, s, _)| (t, s)).collect();
        assert_eq!(at_seq, vec![(20, 2), (30, 1), (40, 0)]);
    }

    #[test]
    fn memo_rebase_shifts_time_seq_and_flow() {
        let dt = crate::time::SimDuration::from_ns(1_000);
        let mut q = EventQueue::default();
        for (i, k) in residual(3).into_iter().enumerate() {
            q.push(SimTime::from_ns(100 + i as u64), k);
        }
        q.reserve_seq();
        let before = pending(&q);
        q.memo_rebase(dt, 50, 8);
        assert_eq!(q.memo_seq(), 4 + 50);
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(1_100), 50)));
        let after = pending(&q);
        let kinds = residual(11).map(|k| format!("{k:?}"));
        for (i, ((t0, s0, _), (t1, s1, k1))) in before.iter().zip(&after).enumerate() {
            assert_eq!((*t1, *s1), (t0 + 1_000, s0 + 50));
            assert_eq!(*k1, kinds[i]);
        }
        // A push after the rebase ties after every shifted entry.
        let (t, k) = wake(1_100, 0);
        q.push(t, k);
        assert_eq!(q.peek_next(), Some((SimTime::from_ns(1_100), 50)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_ns())).collect();
        assert_eq!(order, vec![1_100, 1_100, 1_101, 1_102]);
        assert_eq!(q.stats().pushes, 4, "a rebase is not scheduler traffic");
    }

    #[test]
    fn memo_rebase_of_an_empty_queue_advances_only_the_counter() {
        let mut q = EventQueue::default();
        let (t, k) = wake(10, 0);
        q.push(t, k);
        q.pop();
        let stats = q.stats();
        q.memo_rebase(crate::time::SimDuration::from_ns(500), 7, 3);
        assert!(q.is_empty());
        assert_eq!(q.peek_next(), None);
        assert_eq!(q.memo_seq(), 1 + 7);
        assert_eq!(q.stats(), stats);
        assert_eq!(q.reserve_seq(), 8);
    }

    #[test]
    fn memo_add_stats_scales_pushes_and_pops_not_max_pending() {
        let mut q = EventQueue::default();
        for i in 0..3u64 {
            let (t, k) = wake(i, i);
            q.push(t, k);
        }
        q.pop();
        let window = SchedStats {
            pushes: 4,
            pops: 5,
            max_pending: 99,
            ..SchedStats::default()
        };
        q.memo_add_stats(&window, 10);
        let s = q.stats();
        assert_eq!((s.pushes, s.pops), (3 + 40, 1 + 50));
        assert_eq!(
            s.max_pending, 3,
            "a replayed window sets no new high-water mark"
        );
        assert_eq!(q.len(), 2, "pending entries are untouched");
    }
}
