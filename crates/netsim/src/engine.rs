//! The discrete-event core: deterministic future-event schedulers.
//!
//! Two interchangeable backends implement the [`Scheduler`] trait: the
//! original binary min-heap ([`EventHeap`]) and the hierarchical timing
//! wheel ([`TimingWheel`], the default — see [`crate::wheel`]). Events at
//! equal timestamps are processed in insertion order (a per-scheduler
//! sequence number breaks ties), so runs are bit-for-bit reproducible for a
//! given seed regardless of platform *and of scheduler backend*. The
//! backend is chosen per simulator via [`SchedKind`]
//! ([`crate::config::SimConfig::sched`]).

use crate::ids::{HostId, LinkId};
use crate::packet::FlowId;
use crate::time::SimTime;
use crate::wheel::TimingWheel;
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

// Scheduler entries are moved into slot buckets and copied again on every
// timing-wheel cascade, so growing `EventKind` silently taxes the hottest
// path in the simulator. Deliveries — which used to carry the 64-byte
// `Packet` by value — no longer exist as scheduler events at all: packets
// ride per-link FIFO pipelines (`crate::pipeline`) and only tiny timer /
// control events go through the wheel or heap. The largest variants today
// are `Wake` (tag, host and the 8-byte token) and `Rto` (tag + three
// `u32`s): two words, which is also what a delay-class pipe entry packs an
// event into (`crate::pipeline`). If a variant ever needs more, box its
// payload instead of raising this.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);

/// Which future-event scheduler backs a simulator.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug, Default)]
pub enum SchedKind {
    /// Binary min-heap (`O(log n)` push/pop) — the original backend, the
    /// reference the lockstep tests compare the wheel against.
    Heap,
    /// Hierarchical timing wheel (`O(1)` near-future push/pop) — the
    /// default.
    #[default]
    Wheel,
}

impl SchedKind {
    /// Stable lowercase name (`"heap"` / `"wheel"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Heap => "heap",
            SchedKind::Wheel => "wheel",
        }
    }
}

/// Occupancy / traffic counters a scheduler accumulates over its lifetime.
///
/// These are *observability only*: they are reported through telemetry
/// manifests, never through trial result rows, so heap and wheel runs stay
/// byte-identical where determinism is asserted.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug, Default)]
pub struct SchedStats {
    /// Events actually pushed into the backend (excludes sequence numbers
    /// that were merely *reserved* for pipe entries — see
    /// [`Scheduler::reserve_seq`]). This is the "scheduler traffic" number
    /// the delivery and delay-class pipes shrink.
    pub pushes: u64,
    /// Events popped back out of the backend. Counts every pop the engine
    /// performs — including lazily-cancelled RTO timers that are then
    /// discarded *without* being dispatched — so `pushes == pops + len`
    /// holds at any quiescent point on both backends, while the engine's
    /// `stats.events` (events *executed*) stays a separate number.
    pub pops: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Slot insertions per wheel level (direct pushes *and* cascade
    /// re-files). All zero for the heap backend.
    pub level_pushes: [u64; crate::wheel::WHEEL_LEVELS],
    /// Events filed beyond the wheel horizon into the overflow spill.
    pub spill_pushes: u64,
    /// Higher-level slots drained and re-filed one level down.
    pub cascades: u64,
    /// Entries moved by those cascades.
    pub cascaded_entries: u64,
    /// Pushes that landed below a peek-advanced cursor and were spliced
    /// straight into the due buffer (rare; see [`crate::wheel`]).
    pub due_splices: u64,
    /// Events appended to a delay-class pipe instead of the backend (see
    /// [`crate::pipeline`]). Filled in by `Simulator::sched_stats`; a bare
    /// scheduler reports zero.
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
        for (a, b) in self.level_pushes.iter_mut().zip(other.level_pushes) {
            *a += b;
        }
        self.spill_pushes += other.spill_pushes;
        self.cascades += other.cascades;
        self.cascaded_entries += other.cascaded_entries;
        self.due_splices += other.due_splices;
        self.class_pushes += other.class_pushes;
        self.class_pops += other.class_pops;
        self.head_arms += other.head_arms;
        self.head_pops += other.head_pops;
    }
}

/// Common surface of the future-event list backends.
///
/// Implementations must be deterministic: every `pop` yields the earliest
/// *currently pending* event, and events with equal timestamps come out in
/// global insertion order regardless of how they were internally filed.
/// (The popped sequence is not globally nondecreasing: popping a
/// lazily-cancelled RTO timer consumes a future timestamp without
/// advancing the simulator clock, so a later push may legally be earlier
/// than an already-popped stale timer.)
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
    /// which dispatches first at equal timestamps. Takes `&mut self`
    /// because the wheel advances its cursor lazily on peek.
    fn peek_next(&mut self) -> Option<(SimTime, u64)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if nothing is scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Which backend this is.
    fn kind(&self) -> SchedKind;
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

/// Deterministic future-event list.
///
/// The head timestamp is mirrored into a plain field so the event loop's
/// peek-then-pop pattern reads one word instead of dereferencing the heap
/// root on every iteration.
#[derive(Default)]
pub struct EventHeap {
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

impl EventHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
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

impl Scheduler for EventHeap {
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
    fn peek_next(&mut self) -> Option<(SimTime, u64)> {
        self.next
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn kind(&self) -> SchedKind {
        SchedKind::Heap
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

/// Statically-dispatched scheduler selection.
///
/// The event loop is the hottest code in the workspace; an enum over the
/// two [`Scheduler`] backends keeps every call site a direct (inlinable)
/// match instead of a vtable hop through `dyn Scheduler`.
pub enum EventQueue {
    /// Binary min-heap backend.
    Heap(EventHeap),
    /// Hierarchical timing-wheel backend.
    Wheel(Box<TimingWheel>),
}

impl EventQueue {
    /// Empty queue of the requested backend.
    pub fn new(kind: SchedKind) -> EventQueue {
        match kind {
            SchedKind::Heap => EventQueue::Heap(EventHeap::new()),
            SchedKind::Wheel => EventQueue::Wheel(Box::default()),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $q:ident => $e:expr) => {
        match $self {
            EventQueue::Heap($q) => $e,
            EventQueue::Wheel($q) => $e,
        }
    };
}

impl EventQueue {
    /// Visit every pending entry (memo snapshot; order is backend-defined).
    pub(crate) fn memo_for_each(&self, f: &mut dyn FnMut(SimTime, u64, EventKind)) {
        dispatch!(self, q => q.memo_for_each(f))
    }

    /// In-place fast-forward rebase: shift pending entries by `dt`/`dseq`/
    /// `dflow` and advance the sequence counter by `dseq`.
    pub(crate) fn memo_rebase(&mut self, dt: crate::time::SimDuration, dseq: u64, dflow: u32) {
        dispatch!(self, q => q.memo_rebase(dt, dseq, dflow))
    }

    /// Account `reps` repetitions of one recorded window's scheduler
    /// traffic.
    pub(crate) fn memo_add_stats(&mut self, d: &SchedStats, reps: u64) {
        dispatch!(self, q => q.memo_add_stats(d, reps))
    }

    /// Current sequence-counter value (pushes + reservations so far).
    pub(crate) fn memo_seq(&self) -> u64 {
        dispatch!(self, q => q.memo_seq())
    }
}

impl Scheduler for EventQueue {
    #[inline]
    fn push(&mut self, at: SimTime, kind: EventKind) {
        dispatch!(self, q => q.push(at, kind))
    }
    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        dispatch!(self, q => q.reserve_seq())
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        dispatch!(self, q => q.pop())
    }
    #[inline]
    fn peek_next(&mut self) -> Option<(SimTime, u64)> {
        dispatch!(self, q => q.peek_next())
    }
    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, q => q.len())
    }
    #[inline]
    fn is_empty(&self) -> bool {
        dispatch!(self, q => q.is_empty())
    }
    fn kind(&self) -> SchedKind {
        dispatch!(self, q => q.kind())
    }
    fn stats(&self) -> SchedStats {
        dispatch!(self, q => q.stats())
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
        let mut h = EventHeap::new();
        for (t, k) in [wake(30, 0), wake(10, 1), wake(20, 2)] {
            h.push(t, k);
        }
        let times: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(t, _)| t.as_ns())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut h = EventHeap::new();
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
        let mut h = EventHeap::new();
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
        let mut h = EventHeap::new();
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
        let mut h = EventHeap::new();
        for i in 0..5u64 {
            let (t, k) = wake(i, i);
            h.push(t, k);
        }
        h.pop();
        assert_eq!(h.stats().pushes, 5);
    }

    #[test]
    fn cached_peek_cleared_when_pop_empties_heap() {
        let mut h = EventHeap::new();
        let (t, k) = wake(7, 0);
        h.push(t, k);
        assert_eq!(h.pop().map(|(t, _)| t.as_ns()), Some(7));
        assert_eq!(h.peek_next(), None);
        assert!(h.pop().is_none());
        assert_eq!(h.peek_next(), None);
    }

    #[test]
    fn heap_stats_track_high_water_mark() {
        let mut h = EventHeap::new();
        for i in 0..4u64 {
            let (t, k) = wake(i, i);
            h.push(t, k);
        }
        h.pop();
        h.pop();
        let (t, k) = wake(9, 9);
        h.push(t, k);
        assert_eq!(h.stats().max_pending, 4);
        assert_eq!(h.stats().cascades, 0);
    }

    #[test]
    fn sched_kind_names_and_default() {
        assert_eq!(SchedKind::default(), SchedKind::Wheel);
        assert_eq!(SchedKind::Heap.name(), "heap");
        assert_eq!(SchedKind::Wheel.name(), "wheel");
    }

    #[test]
    fn sched_stats_merge_sums_and_maxes() {
        let a = SchedStats {
            pushes: 100,
            pops: 90,
            max_pending: 10,
            level_pushes: [1, 2, 3, 4],
            spill_pushes: 5,
            cascades: 6,
            cascaded_entries: 7,
            due_splices: 1,
            class_pushes: 30,
            class_pops: 25,
            head_arms: 9,
            head_pops: 8,
        };
        let mut m = SchedStats {
            pushes: 20,
            pops: 20,
            max_pending: 3,
            level_pushes: [10, 0, 0, 0],
            spill_pushes: 1,
            cascades: 1,
            cascaded_entries: 1,
            due_splices: 0,
            class_pushes: 3,
            class_pops: 3,
            head_arms: 2,
            head_pops: 1,
        };
        m.merge(&a);
        assert_eq!(m.pushes, 120);
        assert_eq!(m.pops, 110);
        assert_eq!(m.max_pending, 10);
        assert_eq!(m.level_pushes, [11, 2, 3, 4]);
        assert_eq!(m.spill_pushes, 6);
        assert_eq!(m.cascades, 7);
        assert_eq!(m.cascaded_entries, 8);
        assert_eq!(m.due_splices, 1);
        assert_eq!(m.class_pushes, 33);
        assert_eq!(m.class_pops, 28);
        assert_eq!((m.head_arms, m.head_pops), (11, 9));
    }

    #[test]
    fn reserved_seqs_gap_the_tie_break_but_not_the_push_count() {
        // A reservation consumes a sequence number (so a later push ties
        // *after* the reserved slot) without counting as scheduler traffic.
        for kind in [SchedKind::Heap, SchedKind::Wheel] {
            let mut q = EventQueue::new(kind);
            let (t, k) = wake(10, 0);
            q.push(t, k);
            let reserved = q.reserve_seq();
            assert_eq!(reserved, 1, "kind={kind:?}");
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
    }

    #[test]
    fn pushes_equal_pops_plus_len_at_any_point() {
        for kind in [SchedKind::Heap, SchedKind::Wheel] {
            let mut q = EventQueue::new(kind);
            for i in 0..6u64 {
                let (t, k) = wake(10 * i, i);
                q.push(t, k);
            }
            q.pop();
            q.pop();
            let s = q.stats();
            assert_eq!(s.pushes, s.pops + q.len() as u64, "kind={kind:?}");
        }
    }

    #[test]
    fn event_queue_dispatches_to_both_backends() {
        for kind in [SchedKind::Heap, SchedKind::Wheel] {
            let mut q = EventQueue::new(kind);
            assert_eq!(q.kind(), kind);
            assert!(q.is_empty());
            for (t, tok) in [(30u64, 0u64), (10, 1), (30, 2)] {
                let (at, k) = wake(t, tok);
                q.push(at, k);
            }
            assert_eq!(q.len(), 3);
            assert_eq!(q.stats().pushes, 3);
            assert_eq!(q.peek_next(), Some((SimTime::from_ns(10), 1)));
            let order: Vec<(u64, u64)> = std::iter::from_fn(|| {
                q.pop().map(|(t, k)| match k {
                    EventKind::Wake { token, .. } => (t.as_ns(), token),
                    _ => unreachable!(),
                })
            })
            .collect();
            assert_eq!(order, vec![(10, 1), (30, 0), (30, 2)], "kind={kind:?}");
            assert_eq!(q.stats().max_pending, 3);
        }
    }
}
