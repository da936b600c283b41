//! Event pipes: FIFOs of pending events that bypass the scheduler.
//!
//! Almost everything the engine schedules lands at `now + d` for one of a
//! handful of constants `d`, and the engine clock `now` is monotone across
//! dispatches — so events that share a delay are already in `(time, seq)`
//! order when they are created. A sorted stream needs no priority queue:
//! it lives in a contiguous FIFO (a "pipe"), and only its *head* competes
//! for dispatch. A single armed [`PipeFront`] per nonempty pipe sits in a
//! small [`FrontHeap`]; the event loop dispatches whichever of (scheduler
//! head, front head) orders first by `(time, seq)`.
//!
//! Two families of pipes share the one front heap:
//!
//! * **Delivery pipes** carry packets on the wire ([`InFlight`]), one pipe
//!   per link *latency class* (two in a fat tree: host↔leaf, leaf↔spine).
//!   The FIFO argument holds per link — a link serializes in order and has
//!   a fixed latency — and therefore for any set of links sharing a latency
//!   value. Per-link order is a subsequence of its class pipe, so the
//!   per-link FIFO invariant is preserved by construction (and
//!   property-tested in `tests/pipeline_fifo.rs`).
//! * **Delay-class pipes** ([`ClassPipes`]) carry timer and control events
//!   ([`Timed`]): `TxDone` (one class per serialization time), `Rto` (the
//!   base timeout and each backoff multiple), `AckFlush` and `Pfc`
//!   frames. Classes are keyed by the delay *value* and discovered on first
//!   use, up to a small bound; a delay past the bound simply goes to the
//!   scheduler, which remains the general future-event list for everything
//!   scheduled at an absolute time (faults, controls, wake-ups, sampler
//!   ticks).
//!
//! ## Pipe granularity
//!
//! One pipe per *delay value* — not per link, and not per event kind.
//! Per-link pipes are equally FIFO but put hundreds of entries in the front
//! heap, and measured slower than the timing wheel they replaced; per-kind
//! pipes are not FIFO at all (a 3 ns ACK serialization overtakes an 84 ns
//! data one). Keying on the delay keeps the front heap at a handful of
//! entries and every insert/dispatch an O(1) push/pop on a contiguous ring
//! buffer — the cache behaviour that lets this beat the timing wheel's
//! bucketed hot path.
//!
//! ## Determinism
//!
//! Every pipe insert *reserves* a sequence number from the scheduler at
//! exactly the program point where a scheduler push would have consumed one
//! ([`Scheduler::reserve_seq`](crate::engine::Scheduler::reserve_seq)) and
//! stores it in the entry. Each pipe is sorted by `(at, seq)` by
//! construction, the front heap orders pipe heads by the same pair, and
//! the event loop compares that pair against the scheduler's head — so the
//! global dispatch order, and therefore every RNG draw and every output
//! byte, is identical to the all-scheduler engine on both scheduler
//! backends. Which container an event waits in is unobservable.

use crate::engine::EventKind;
use crate::ids::LinkId;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One packet on the wire.
#[derive(Copy, Clone, Debug)]
pub struct InFlight {
    /// Arrival time at the far end (serialization end + link latency).
    pub at: SimTime,
    /// Global scheduler sequence number reserved at pipe insert; breaks
    /// equal-timestamp ties exactly like a scheduler push would.
    pub seq: u64,
    /// The link whose wire the packet is on.
    pub link: LinkId,
    /// The packet itself.
    pub pkt: Packet,
}

/// The armed head-of-pipe arrival of one delivery pipe.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PipeFront {
    /// Head arrival time.
    pub at: SimTime,
    /// Reserved sequence number of the head entry.
    pub seq: u64,
    /// Dense index of the pipe this is the front of. Delay-class pipes
    /// carry [`CLASS_PIPE`] in the high bit; delivery pipes do not.
    pub pipe: u32,
}

/// Marks a [`PipeFront::pipe`] index as a delay-class pipe of
/// [`ClassPipes`] rather than a delivery pipe.
pub const CLASS_PIPE: u32 = 1 << 31;

/// Delay classes a simulator discovers before further delays fall back to
/// the scheduler. The default configuration uses about a dozen (three
/// serialization times, the RTO and its eight backoff multiples, the ACK
/// flush delay, one PFC latency per link class); the bound only keeps a
/// workload with many distinct tail-segment sizes from growing the front
/// heap without limit.
pub const MAX_DELAY_CLASSES: usize = 16;

/// One timer or control event waiting in a delay-class pipe.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    /// Due time (`now + delay` at scheduling).
    pub at: SimTime,
    /// Global scheduler sequence number reserved at scheduling.
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// Delay-class pipes: one FIFO of [`Timed`] events per distinct constant
/// delay (see the module docs). The owner arms and re-arms the shared
/// [`FrontHeap`]; this type only keeps the FIFOs and their counters.
#[derive(Debug)]
pub struct ClassPipes {
    /// Delay of class `i`, nanoseconds. At most `bound` entries, scanned
    /// linearly — the hot delays are discovered first.
    delays: Vec<u64>,
    pipes: Vec<VecDeque<Timed>>,
    bound: usize,
    pushes: u64,
    pops: u64,
}

impl Default for ClassPipes {
    fn default() -> Self {
        ClassPipes::with_bound(MAX_DELAY_CLASSES)
    }
}

impl ClassPipes {
    /// Empty set that will discover at most `bound` classes (0 sends every
    /// event to the scheduler).
    pub fn with_bound(bound: usize) -> Self {
        ClassPipes {
            delays: Vec::new(),
            pipes: Vec::new(),
            bound,
            pushes: 0,
            pops: 0,
        }
    }

    /// The class of `delay`, opening a new one on first sight. `None` once
    /// the bound is exhausted: the caller schedules the event normally.
    #[inline]
    pub fn class_of(&mut self, delay: SimDuration) -> Option<u32> {
        let d = delay.as_ns();
        if let Some(i) = self.delays.iter().position(|&x| x == d) {
            return Some(i as u32);
        }
        if self.delays.len() >= self.bound {
            return None;
        }
        self.delays.push(d);
        self.pipes.push(VecDeque::new());
        Some((self.delays.len() - 1) as u32)
    }

    /// Append `e` to `class`. Returns true when the pipe was empty, i.e.
    /// the caller must arm its front.
    #[inline]
    pub fn push(&mut self, class: u32, e: Timed) -> bool {
        let pipe = &mut self.pipes[class as usize];
        debug_assert!(
            pipe.back().is_none_or(|b| (b.at, b.seq) < (e.at, e.seq)),
            "delay-class pipe must be FIFO"
        );
        let was_empty = pipe.is_empty();
        pipe.push_back(e);
        self.pushes += 1;
        was_empty
    }

    /// Pop the head of `class` and report the `(at, seq)` of the entry
    /// behind it, if any (the caller re-arms or disarms the front).
    #[inline]
    pub fn pop(&mut self, class: u32) -> (Timed, Option<(SimTime, u64)>) {
        let pipe = &mut self.pipes[class as usize];
        let head = pipe.pop_front().expect("armed class pipe has an entry");
        self.pops += 1;
        (head, pipe.front().map(|n| (n.at, n.seq)))
    }

    /// Events waiting across all classes.
    pub fn len(&self) -> usize {
        self.pipes.iter().map(VecDeque::len).sum()
    }

    /// True if no class holds an event.
    pub fn is_empty(&self) -> bool {
        self.pipes.iter().all(VecDeque::is_empty)
    }

    /// Classes discovered so far.
    pub fn classes(&self) -> usize {
        self.delays.len()
    }

    /// Events ever appended (monotonic).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Events ever popped (monotonic).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Visit every waiting entry (memo snapshot; class order, then FIFO).
    pub(crate) fn memo_for_each(&self, f: &mut dyn FnMut(SimTime, u64, EventKind)) {
        for e in self.pipes.iter().flatten() {
            f(e.at, e.seq, e.kind);
        }
    }

    /// Temporal-symmetry fast-forward: the same uniform `(dt, dseq, dflow)`
    /// shift the scheduler's entries get. FIFO order survives untouched.
    pub(crate) fn memo_rebase(&mut self, dt: SimDuration, dseq: u64, dflow: u32) {
        for e in self.pipes.iter_mut().flatten() {
            e.at += dt;
            e.seq += dseq;
            e.kind = e.kind.memo_shift_flow(dflow);
        }
    }

    /// Account `reps` repetitions of one recorded window's traffic.
    pub(crate) fn memo_add_stats(&mut self, pushes: u64, pops: u64, reps: u64) {
        self.pushes += pushes * reps;
        self.pops += pops * reps;
    }
}

/// The armed [`PipeFront`] of each nonempty pipe, with the earliest by
/// `(at, seq)` on top.
///
/// Holds at most one entry per pipe, so its size is bounded by the number
/// of *busy pipes* (two latency classes in a fat tree plus at most
/// [`MAX_DELAY_CLASSES`] delay classes), not by the number of packets in
/// flight or timers pending — the pipes absorb the depth. At that size a
/// linear scan for the minimum after each change (a run of compare/select
/// over three cache lines) beats sifting a binary heap, whose few levels
/// cost a mispredicted branch each; the name is kept for the callers.
/// Sequence numbers are globally unique, so the order is total and
/// deterministic.
#[derive(Default, Debug)]
pub struct FrontHeap {
    /// Armed fronts in no particular order.
    fronts: Vec<PipeFront>,
    /// Index of the earliest front (0 when nothing is armed).
    top: usize,
    /// High-water mark of armed pipes.
    max_armed: u64,
}

/// `(at, seq)` as one integer: the order the event loop dispatches in.
#[inline]
fn key(f: &PipeFront) -> u128 {
    (f.at.as_ns() as u128) << 64 | f.seq as u128
}

impl FrontHeap {
    /// Nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The earliest armed front, if any pipe is busy.
    #[inline]
    pub fn peek(&self) -> Option<PipeFront> {
        self.fronts.get(self.top).copied()
    }

    /// Number of armed pipes (pipes with a packet in flight).
    pub fn len(&self) -> usize {
        self.fronts.len()
    }

    /// True if no pipe has packets in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fronts.is_empty()
    }

    /// High-water mark of simultaneously armed pipes.
    pub fn max_armed(&self) -> u64 {
        self.max_armed
    }

    /// Arm a pipe that just went empty → nonempty.
    #[inline]
    pub fn arm(&mut self, f: PipeFront) {
        if self.fronts.is_empty() || key(&f) < key(&self.fronts[self.top]) {
            self.top = self.fronts.len();
        }
        self.fronts.push(f);
        self.max_armed = self.max_armed.max(self.fronts.len() as u64);
    }

    /// Replace the just-delivered top with the same pipe's next head
    /// (which never sorts before the old top: a pipe's arrivals strictly
    /// increase).
    #[inline]
    pub fn replace_top(&mut self, f: PipeFront) {
        debug_assert!(!self.fronts.is_empty(), "replace_top with nothing armed");
        debug_assert!(
            key(&f) >= key(&self.fronts[self.top]),
            "pipe arrivals regressed"
        );
        self.fronts[self.top] = f;
        self.find_top();
    }

    /// The top's pipe just gave up its head: re-arm it for the entry behind
    /// (`next`, that entry's `(at, seq)`) or disarm it if the pipe emptied.
    #[inline]
    pub fn advance_top(&mut self, next: Option<(SimTime, u64)>) {
        match next {
            Some((at, seq)) => {
                let pipe = self.fronts[self.top].pipe;
                self.replace_top(PipeFront { at, seq, pipe });
            }
            None => {
                self.pop_top();
            }
        }
    }

    /// All armed fronts in internal order (memo fingerprinting sorts a
    /// copy itself).
    pub(crate) fn memo_entries(&self) -> &[PipeFront] {
        &self.fronts
    }

    /// Temporal-symmetry fast-forward: shift every armed front by `dt` in
    /// time and `dseq` in sequence. A uniform shift preserves the `(at,
    /// seq)` order, so the top stays the top. `max_armed` is a high-water
    /// mark — a matched steady-state window arms no new maximum.
    pub(crate) fn memo_shift(&mut self, dt: crate::time::SimDuration, dseq: u64) {
        for f in &mut self.fronts {
            f.at += dt;
            f.seq += dseq;
        }
    }

    /// Remove the top after delivering the last packet of its pipe.
    #[inline]
    pub fn pop_top(&mut self) -> Option<PipeFront> {
        if self.fronts.is_empty() {
            return None;
        }
        let top = self.fronts.swap_remove(self.top);
        self.find_top();
        Some(top)
    }

    #[inline]
    fn find_top(&mut self) {
        let (mut top, mut best) = (0, u128::MAX);
        for (i, f) in self.fronts.iter().enumerate() {
            let k = key(f);
            if k < best {
                (top, best) = (i, k);
            }
        }
        self.top = top;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn front(at: u64, seq: u64, pipe: u32) -> PipeFront {
        PipeFront {
            at: SimTime::from_ns(at),
            seq,
            pipe,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut h = FrontHeap::new();
        h.arm(front(30, 5, 0));
        h.arm(front(10, 9, 1));
        h.arm(front(10, 2, 2));
        h.arm(front(20, 1, 3));
        let order: Vec<u64> = std::iter::from_fn(|| h.pop_top().map(|f| f.seq)).collect();
        assert_eq!(order, vec![2, 9, 1, 5]);
        assert!(h.is_empty());
        assert_eq!(h.max_armed(), 4);
    }

    #[test]
    fn replace_top_is_a_single_resort() {
        let mut h = FrontHeap::new();
        h.arm(front(10, 0, 0));
        h.arm(front(15, 1, 1));
        // Pipe 0 delivers its head at t=10; its next head arrives at t=20.
        assert_eq!(h.peek().unwrap().pipe, 0);
        h.replace_top(front(20, 2, 0));
        assert_eq!(h.peek().unwrap(), front(15, 1, 1));
        h.pop_top();
        assert_eq!(h.peek().unwrap(), front(20, 2, 0));
    }

    #[test]
    fn equal_times_break_by_reserved_seq() {
        let mut h = FrontHeap::new();
        for (seq, pipe) in [(7u64, 0u32), (3, 1), (5, 2)] {
            h.arm(front(100, seq, pipe));
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop_top().map(|f| f.pipe)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    fn timed(at: u64, seq: u64) -> Timed {
        Timed {
            at: SimTime::from_ns(at),
            seq,
            kind: EventKind::AckFlush { flow: seq as u32 },
        }
    }

    #[test]
    fn classes_are_discovered_up_to_the_bound() {
        let mut p = ClassPipes::with_bound(2);
        let d = SimDuration::from_ns;
        assert_eq!(p.class_of(d(84)), Some(0));
        assert_eq!(p.class_of(d(5_000)), Some(1));
        assert_eq!(p.class_of(d(84)), Some(0), "known delay keeps its class");
        assert_eq!(p.class_of(d(3)), None, "past the bound: scheduler");
        assert_eq!(p.classes(), 2);
        assert_eq!(ClassPipes::with_bound(0).class_of(d(84)), None);
    }

    #[test]
    fn class_pipe_is_fifo_and_counts_exactly() {
        let mut p = ClassPipes::default();
        let c = p.class_of(SimDuration::from_ns(500)).unwrap();
        assert!(p.push(c, timed(510, 0)), "empty pipe: arm the front");
        assert!(!p.push(c, timed(510, 3)));
        assert!(!p.push(c, timed(620, 4)));
        assert_eq!((p.len(), p.pushes(), p.pops()), (3, 3, 0));
        let (head, next) = p.pop(c);
        assert_eq!((head.at.as_ns(), head.seq), (510, 0));
        assert_eq!(next, Some((SimTime::from_ns(510), 3)));
        p.pop(c);
        let (_, next) = p.pop(c);
        assert_eq!(next, None, "caller disarms the front");
        assert!(p.is_empty());
        assert_eq!((p.pushes(), p.pops()), (3, 3));
    }

    proptest! {
        /// The front heap agrees with a sort over arbitrary interleavings
        /// of arm / replace-top / pop-top, with per-pipe monotone arrivals
        /// — the exact contract the simulator relies on.
        #[test]
        fn front_heap_matches_reference_model(script in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
            let mut h = FrontHeap::new();
            // Per-pipe next arrival time; None = idle (not armed).
            let mut armed: [Option<(u64, u64)>; 8] = [None; 8];
            let mut next_seq = 0u64;
            let mut clock = 0u64;
            for raw in script {
                // Decode one raw word into (pipe, dt); the vendored
                // proptest has no tuple-of-ranges strategy.
                let pipe = (raw % 8) as u32;
                let dt = (raw >> 3) % 50;
                // Advance: deliver every front due before arming more.
                // Half the steps deliver instead of arm.
                if dt % 2 == 0 {
                    if let Some(f) = h.peek() {
                        // Model: the armed minimum over (at, seq).
                        let (mpipe, &m) = armed
                            .iter()
                            .enumerate()
                            .filter_map(|(l, a)| a.as_ref().map(|v| (l, v)))
                            .min_by_key(|&(_, &(at, seq))| (at, seq))
                            .unwrap();
                        prop_assert_eq!(f.pipe as usize, mpipe);
                        prop_assert_eq!((f.at.as_ns(), f.seq), m);
                        clock = clock.max(f.at.as_ns());
                        // Re-arm with a later arrival or go idle.
                        if dt % 4 == 0 {
                            let at = clock + 1 + dt;
                            h.replace_top(front(at, next_seq, f.pipe));
                            armed[f.pipe as usize] = Some((at, next_seq));
                            next_seq += 1;
                        } else {
                            h.pop_top();
                            armed[f.pipe as usize] = None;
                        }
                    }
                } else if armed[pipe as usize].is_none() {
                    let at = clock + dt;
                    h.arm(front(at, next_seq, pipe));
                    armed[pipe as usize] = Some((at, next_seq));
                    next_seq += 1;
                }
            }
            // Drain: global (at, seq) order, each pipe at most once.
            let mut last = (SimTime::ZERO, 0u64);
            let mut seen = [false; 8];
            while let Some(f) = h.pop_top() {
                prop_assert!((f.at, f.seq) >= last);
                prop_assert!(!seen[f.pipe as usize], "pipe armed twice");
                seen[f.pipe as usize] = true;
                last = (f.at, f.seq);
            }
        }
    }
}
