//! The agenda: where every pending event waits, and which goes next.
//!
//! Almost everything the engine schedules lands at `now + d` for one of a
//! handful of constants `d`, and the engine clock `now` is monotone across
//! dispatches — so events that share a delay are already in `(time, seq)`
//! order when they are created. A sorted stream needs no priority queue:
//! it lives in a contiguous FIFO (a "pipe"), and only its *head* competes
//! for dispatch. A single armed [`PipeFront`] per nonempty pipe sits in a
//! small [`FrontHeap`]; whichever of (scheduler head, front head) orders
//! first by `(time, seq)` is the next event.
//!
//! `Agenda` owns all of it — the scheduler (and with it the one sequence
//! counter), both pipe families, the head-of-line timer set, the front
//! set, the cached scheduler head and the link → latency-class map — and
//! the rest of the engine sees five entry points: `at` (absolute time),
//! `after` (constant delay), `deliver` (a packet on a wire),
//! `reserve_after` / `arm_reserved` (a place in the order now, an event
//! there later or never) and the `peek` / `pop` pair. Which container an
//! event waits in is this module's business and nobody else's; the memo
//! fast-forward reaches pending events only through the `memo_*` trio.
//!
//! Two families of pipes and one set share the one front set:
//!
//! * **Delivery pipes** carry packets on the wire, one pipe per link
//!   *latency class* (two in a fat tree: host↔leaf, leaf↔spine). The FIFO
//!   argument holds per link — a link serializes in order and has a fixed
//!   latency — and therefore for any set of links sharing a latency value.
//!   Per-link order is a subsequence of its class pipe, so the per-link
//!   FIFO invariant is preserved by construction (and property-tested in
//!   `tests/pipeline_fifo.rs`).
//! * **Delay-class pipes** carry timer and control events: `TxDone` (one
//!   class per serialization time), `Rto` backoff timers (one class per
//!   backoff multiple), `AckFlush` and `Pfc` frames. Classes are keyed by
//!   the delay *value* and discovered on first use, up to a small bound; a
//!   delay past the bound simply goes to the scheduler, which remains the
//!   general future-event list for everything scheduled at an absolute
//!   time (faults, controls, wake-ups, sampler ticks).
//! * **Head-of-line timers** are the first-attempt `Rto`s. The transport
//!   reserves a slot — `(deadline, sequence number)` — for every segment
//!   it sends but arms only one per flow at a time (`crate::transport`),
//!   later and out of FIFO order, so these wait in a small heap of their
//!   own whose minimum competes through one more front. A reserved slot
//!   nobody arms costs nothing beyond its sequence number.
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
//! Every pipe insert and every reservation takes a sequence number from
//! the scheduler at exactly the program point where a scheduler push would
//! have consumed one ([`Scheduler::reserve_seq`]) and stores it in the
//! entry. Each pipe is sorted by `(at, seq)` by construction, the front
//! heap orders pipe heads by the same pair, and `peek` compares that pair
//! against the scheduler's head — so the global dispatch order, and
//! therefore every RNG draw and every output byte, is identical to the
//! all-scheduler engine on both scheduler backends. Which container an
//! event waits in is unobservable.
//!
//! ## Entries are written once, where they wait
//!
//! A pipe is a power-of-two ring whose `push` stores the due time, the
//! sequence number and the item straight into the slot, and a timer entry
//! holds its [`EventKind`] packed into two words with shifts and ors. An
//! enum built on the stack field by field (byte and dword stores) and then
//! copied into a queue with one 16-byte load cannot be store-forwarded;
//! two such copies held 13 % of the engine's samples (DESIGN.md §6).

use crate::engine::{EventKind, EventQueue, SchedKind, SchedStats, Scheduler};
use crate::ids::{HostId, LinkId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The armed head-of-pipe entry of one pipe.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PipeFront {
    /// Head due time.
    pub at: SimTime,
    /// Reserved sequence number of the head entry.
    pub seq: u64,
    /// Dense index of the pipe this is the front of (the agenda marks its
    /// delay-class pipes with the high bit; delivery pipes carry none).
    pub pipe: u32,
}

/// Marks a [`PipeFront::pipe`] index as a delay-class pipe rather than a
/// delivery pipe.
const CLASS_PIPE: u32 = 1 << 31;

/// Delay classes a simulator discovers before further delays fall back to
/// the scheduler. The default configuration uses about a dozen (three
/// serialization times, the RTO and its eight backoff multiples, the ACK
/// flush delay, one PFC latency per link class); the bound only keeps a
/// workload with many distinct tail-segment sizes from growing the front
/// heap without limit.
pub const MAX_DELAY_CLASSES: usize = 16;

/// The front of the head-of-line timer set, among the [`PipeFront::pipe`]
/// indices (past every delay class; carries the [`CLASS_PIPE`] mark, as
/// its entries are timers too).
const HEAD_PIPE: u32 = u32::MAX;

/// One pending entry of a pipe: due time, the global sequence number
/// reserved at insert (it breaks equal-timestamp ties exactly like a
/// scheduler push would), and what is waiting. Ordered by `(at, seq)`;
/// sequence numbers are unique, so the item never decides.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

/// An [`EventKind`] as two words: the variant's tag in the low byte of the
/// first and its `u32` identifier (link, flow, host, index) in the high
/// half, everything else in the second. No field is narrowed.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Packed(u64, u64);

// Every pipe push writes one of these and every pop reads it back; a field
// added to either entry is paid for on each of them.
const _: () = assert!(std::mem::size_of::<Entry<Packed>>() == 32);
const _: () = assert!(std::mem::size_of::<Entry<(LinkId, Packet)>>() <= 96);

const TX_DONE: u64 = 0;
const RTO: u64 = 1;
const WAKE: u64 = 2;
const FAULT_UPDATE: u64 = 3;
const CONTROL_UPDATE: u64 = 4;
const PFC: u64 = 5;
const ACK_FLUSH: u64 = 6;
const SAMPLE: u64 = 7;

#[inline(always)]
fn pack(kind: EventKind) -> Packed {
    let tagged = |tag: u64, id: u32, rest: u64| Packed(tag | (id as u64) << 32, rest);
    match kind {
        EventKind::TxDone { link } => tagged(TX_DONE, link.0, 0),
        EventKind::Rto { flow, seq, attempt } => {
            tagged(RTO, flow, seq as u64 | (attempt as u64) << 32)
        }
        EventKind::Wake { host, token } => tagged(WAKE, host.0, token),
        EventKind::FaultUpdate { idx } => tagged(FAULT_UPDATE, idx, 0),
        EventKind::ControlUpdate { idx } => tagged(CONTROL_UPDATE, idx, 0),
        EventKind::Pfc { link, prio, pause } => {
            tagged(PFC, link.0, prio as u64 | (pause as u64) << 8)
        }
        EventKind::AckFlush { flow } => tagged(ACK_FLUSH, flow, 0),
        EventKind::Sample => tagged(SAMPLE, 0, 0),
    }
}

#[inline(always)]
fn unpack(Packed(head, rest): Packed) -> EventKind {
    let id = (head >> 32) as u32;
    match head & 0xff {
        TX_DONE => EventKind::TxDone { link: LinkId(id) },
        RTO => EventKind::Rto {
            flow: id,
            seq: rest as u32,
            attempt: (rest >> 32) as u32,
        },
        WAKE => EventKind::Wake {
            host: HostId(id),
            token: rest,
        },
        FAULT_UPDATE => EventKind::FaultUpdate { idx: id },
        CONTROL_UPDATE => EventKind::ControlUpdate { idx: id },
        PFC => EventKind::Pfc {
            link: LinkId(id),
            prio: rest as u8,
            pause: rest >> 8 != 0,
        },
        ACK_FLUSH => EventKind::AckFlush { flow: id },
        SAMPLE => EventKind::Sample,
        tag => unreachable!("no event kind packs to tag {tag}"),
    }
}

/// A place in the dispatch order taken now for an event that may be armed
/// later, or never: the due time and the sequence number an insert at this
/// program point would have been given ([`Agenda::reserve_after`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Reserved {
    at: SimTime,
    seq: u64,
}

impl Reserved {
    /// `(at, seq)`, for the memo fingerprint.
    pub(crate) fn memo_parts(self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    /// Temporal-symmetry fast-forward: the same slot `dt` later and `dseq`
    /// sequence numbers on.
    pub(crate) fn memo_shift(&mut self, dt: SimDuration, dseq: u64) {
        self.at += dt;
        self.seq += dseq;
    }
}

/// A FIFO in a power-of-two ring: the `len` entries from `head` on, indices
/// taken modulo the capacity with a mask.
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<Entry<T>>,
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    const fn new() -> Self {
        Ring {
            slots: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, at: SimTime, seq: u64, item: T) {
        if self.len == self.slots.len() {
            self.grow(Entry { at, seq, item });
        }
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[(self.head + self.len) & mask];
        slot.at = at;
        slot.seq = seq;
        slot.item = item;
        self.len += 1;
    }

    /// Double the capacity (16 to start with), unwrapping the entries to
    /// the bottom of the new buffer. Spare slots hold copies of `fill`:
    /// safe code needs every slot initialised, and nothing reads them.
    #[cold]
    fn grow(&mut self, fill: Entry<T>) {
        let cap = (2 * self.slots.len()).max(16);
        let mut slots = Vec::with_capacity(cap);
        slots.extend(self.iter().copied());
        slots.resize(cap, fill);
        (self.slots, self.head) = (slots, 0);
    }

    #[inline(always)]
    fn pop(&mut self) -> Option<Entry<T>> {
        if self.len == 0 {
            return None;
        }
        let e = self.slots[self.head];
        self.head = (self.head + 1) & (self.slots.len() - 1);
        self.len -= 1;
        Some(e)
    }

    #[inline(always)]
    fn front(&self) -> Option<&Entry<T>> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    fn back(&self) -> Option<&Entry<T>> {
        (self.len > 0).then(|| &self.slots[(self.head + self.len - 1) & (self.slots.len() - 1)])
    }

    /// How many entries sit before the buffer's end, and how many wrapped
    /// around to its start.
    fn spans(&self) -> (usize, usize) {
        let first = self.len.min(self.slots.len() - self.head);
        (first, self.len - first)
    }

    /// Head first.
    fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        let (first, wrapped) = self.spans();
        self.slots[self.head..self.head + first]
            .iter()
            .chain(&self.slots[..wrapped])
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry<T>> {
        let (first, wrapped) = self.spans();
        let (low, high) = self.slots.split_at_mut(self.head);
        high[..first].iter_mut().chain(&mut low[..wrapped])
    }
}

/// One FIFO per class, each sorted by `(at, seq)` by construction. The
/// owner arms and re-arms the shared [`FrontHeap`].
#[derive(Debug)]
struct Pipes<T>(Vec<Ring<T>>);

impl<T: Copy> Pipes<T> {
    /// Add an empty pipe; returns its class index.
    fn open(&mut self) -> u32 {
        self.0.push(Ring::new());
        (self.0.len() - 1) as u32
    }

    /// Append to `class`. Returns true when the pipe was empty, i.e. the
    /// caller must arm its front.
    #[inline(always)]
    fn push(&mut self, class: u32, at: SimTime, seq: u64, item: T) -> bool {
        let pipe = &mut self.0[class as usize];
        debug_assert!(
            pipe.back().is_none_or(|b| (b.at, b.seq) < (at, seq)),
            "a pipe must be FIFO"
        );
        let was_empty = pipe.len == 0;
        pipe.push(at, seq, item);
        was_empty
    }

    /// Pop the head of `class` and report the `(at, seq)` of the entry
    /// behind it, if any (the caller re-arms or disarms the front).
    #[inline(always)]
    fn pop(&mut self, class: u32) -> (Entry<T>, Option<(SimTime, u64)>) {
        let pipe = &mut self.0[class as usize];
        let head = pipe.pop().expect("armed pipe has an entry");
        (head, pipe.front().map(|n| (n.at, n.seq)))
    }

    /// Entries waiting across all classes.
    fn len(&self) -> usize {
        self.0.iter().map(|p| p.len).sum()
    }

    /// Every waiting entry, class order then FIFO.
    fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        self.0.iter().flat_map(Ring::iter)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Entry<T>> {
        self.0.iter_mut().flat_map(Ring::iter_mut)
    }
}

/// The armed [`PipeFront`] of each nonempty pipe, with the earliest by
/// `(at, seq)` on top.
///
/// Holds at most one entry per pipe, so its size is bounded by the number
/// of *busy pipes* (two latency classes in a fat tree, at most
/// [`MAX_DELAY_CLASSES`] delay classes and the head-of-line timer set), not
/// by the number of packets in flight or timers pending — the pipes absorb
/// the depth. At that size a linear scan for the minimum after each change
/// (a run of compare/select over three cache lines) beats sifting a binary
/// heap, whose few levels cost a mispredicted branch each; the name is kept
/// for the callers.
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

    /// Move the front of `f.pipe` (armed, not necessarily the top) to `f`,
    /// which may sort before it — a set, unlike a FIFO, can gain a new
    /// minimum while it waits.
    pub fn rearm(&mut self, f: PipeFront) {
        let armed = self.fronts.iter_mut().find(|a| a.pipe == f.pipe);
        *armed.expect("rearm of a pipe that is not armed") = f;
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

    /// Temporal-symmetry fast-forward: shift every armed front by `dt` in
    /// time and `dseq` in sequence. A uniform shift preserves the `(at,
    /// seq)` order, so the top stays the top. `max_armed` is a high-water
    /// mark — a matched steady-state window arms no new maximum.
    pub(crate) fn memo_shift(&mut self, dt: SimDuration, dseq: u64) {
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

/// What [`Agenda::pop`] hands the event loop.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Due {
    /// A timed event, from the scheduler or a delay-class pipe.
    Event(EventKind),
    /// A packet reaching the far end of `LinkId`'s wire.
    Delivery(LinkId, Packet),
}

/// The earliest pending entry as [`Agenda::peek`] found it; hand it back to
/// [`Agenda::pop`] to take that entry.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Next {
    /// When it is due.
    pub(crate) at: SimTime,
    /// The armed front it sits behind; `None` for the scheduler's head.
    front: Option<PipeFront>,
}

/// Every pending event of one simulator (see the module docs).
pub(crate) struct Agenda {
    /// Future-event list for absolute-time events (faults, controls,
    /// wake-ups, sampler ticks) and for delays past the class bound. Also
    /// the one source of tie-break sequence numbers for every pipe.
    sched: EventQueue,
    /// `sched`'s head `(time, seq)` as of the last refresh, and whether
    /// `sched` changed since (see [`Self::peek`]).
    head: Option<(SimTime, u64)>,
    head_stale: bool,
    /// Armed pipe heads, one per nonempty delivery or delay-class pipe.
    front: FrontHeap,
    /// Delivery pipes, one per link latency class.
    wire: Pipes<(LinkId, Packet)>,
    /// Latency class of each link (index into `wire`).
    link_class: Vec<u32>,
    /// Delay-class pipes: `TxDone`, `Rto` backoff, `AckFlush` and `Pfc`
    /// events.
    timers: Pipes<Packed>,
    /// Head-of-line timers: reserved slots that were armed, earliest on
    /// top. One per flow with a first attempt in doubt, so a heap: an
    /// all-to-all keeps hosts² flows open.
    heads: BinaryHeap<Reverse<Entry<Packed>>>,
    /// Delay of timer class `i`, nanoseconds. At most `class_bound`
    /// entries, scanned linearly — the hot delays are discovered first.
    delays: Vec<u64>,
    class_bound: usize,
    class_pushes: u64,
    class_pops: u64,
    head_arms: u64,
    head_pops: u64,
}

impl Agenda {
    /// Empty agenda on scheduler backend `sched` for links with the given
    /// latencies, in link order. One delivery pipe per distinct latency;
    /// class order follows first appearance, which is deterministic.
    pub(crate) fn new(sched: SchedKind, latencies: impl Iterator<Item = SimDuration>) -> Self {
        let mut wire = Pipes(Vec::new());
        let mut classes: Vec<SimDuration> = Vec::new();
        let link_class = latencies
            .map(|l| match classes.iter().position(|&d| d == l) {
                Some(i) => i as u32,
                None => {
                    classes.push(l);
                    wire.open()
                }
            })
            .collect();
        Agenda {
            sched: EventQueue::new(sched),
            head: None,
            head_stale: false,
            front: FrontHeap::new(),
            wire,
            link_class,
            timers: Pipes(Vec::new()),
            heads: BinaryHeap::new(),
            delays: Vec::new(),
            class_bound: MAX_DELAY_CLASSES,
            class_pushes: 0,
            class_pops: 0,
            head_arms: 0,
            head_pops: 0,
        }
    }

    /// Schedule `kind` at absolute time `at`.
    #[inline]
    pub(crate) fn at(&mut self, at: SimTime, kind: EventKind) {
        self.sched.push(at, kind);
        self.head_stale = true;
    }

    /// Schedule `kind` to fire `delay` after `now`.
    ///
    /// The clock is monotone, so events sharing one `delay` are created in
    /// `(time, seq)` order: they wait in that delay's class pipe and only
    /// the pipe head competes for dispatch. The sequence number is reserved
    /// here, exactly where a scheduler push would consume it, so dispatch
    /// order — and with it stale-RTO skipping, event accounting, RNG draws
    /// and every output byte — is the same whichever container the event
    /// waits in. A delay past the class bound goes to the scheduler.
    #[inline(always)]
    pub(crate) fn after(&mut self, now: SimTime, delay: SimDuration, kind: EventKind) {
        let at = now + delay;
        let d = delay.as_ns();
        let class = match self.delays.iter().position(|&x| x == d) {
            Some(i) => i as u32,
            None if self.delays.len() < self.class_bound => {
                self.delays.push(d);
                self.timers.open()
            }
            None => return self.at(at, kind),
        };
        let seq = self.sched.reserve_seq();
        self.class_pushes += 1;
        if self.timers.push(class, at, seq, pack(kind)) {
            let pipe = CLASS_PIPE | class;
            self.front.arm(PipeFront { at, seq, pipe });
        }
    }

    /// Take the place in the dispatch order that `after(now, delay, _)`
    /// would take here — the due time and one sequence number — without
    /// scheduling anything yet.
    #[inline]
    pub(crate) fn reserve_after(&mut self, now: SimTime, delay: SimDuration) -> Reserved {
        Reserved {
            at: now + delay,
            seq: self.sched.reserve_seq(),
        }
    }

    /// Schedule `kind` in a slot reserved earlier, which must not have
    /// been dispatched past: the caller arms a slot later than the one
    /// whose event it is handling, or one it just reserved.
    pub(crate) fn arm_reserved(&mut self, slot: Reserved, kind: EventKind) {
        let Reserved { at, seq } = slot;
        let f = PipeFront {
            at,
            seq,
            pipe: HEAD_PIPE,
        };
        match self.heads.peek() {
            None => self.front.arm(f),
            Some(Reverse(min)) if (at, seq) < (min.at, min.seq) => self.front.rearm(f),
            Some(_) => {}
        }
        let item = pack(kind);
        self.heads.push(Reverse(Entry { at, seq, item }));
        self.head_arms += 1;
    }

    /// Put `pkt` on `link`'s wire, arriving at `at` (now + the link's
    /// latency). The sequence number is reserved here, exactly where the
    /// per-packet `Delivery` push consumed one. Only an *empty* pipe arms
    /// the front; otherwise the FIFO absorbs the packet and the scheduler
    /// sees no traffic at all.
    #[inline(always)]
    pub(crate) fn deliver(&mut self, at: SimTime, link: LinkId, pkt: Packet) {
        let seq = self.sched.reserve_seq();
        let pipe = self.link_class[link.idx()];
        if self.wire.push(pipe, at, seq, (link, pkt)) {
            self.front.arm(PipeFront { at, seq, pipe });
        }
    }

    /// Whichever of (scheduler head, pipe-front head) orders first by
    /// global `(time, seq)`; `None` when nothing is pending.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Next> {
        // The scheduler holds a few dozen entries per trial against
        // millions of loop iterations, so its head is read from a field and
        // re-peeked only after a push, pop or rebase. Re-peeking *here*
        // rather than at the push keeps the wheel's lazy cursor where a
        // peek-every-iteration loop had it, so `SchedStats` do not move.
        if self.head_stale {
            self.head = self.sched.peek_next();
            self.head_stale = false;
        }
        debug_assert_eq!(self.head, self.sched.peek_next());
        // The front head goes first unless the scheduler's orders before it.
        match (self.head, self.front.peek()) {
            (None, None) => None,
            (Some((at, s)), Some(f)) if (at, s) < (f.at, f.seq) => Some(Next { at, front: None }),
            (Some((at, _)), None) => Some(Next { at, front: None }),
            (_, front @ Some(f)) => Some(Next { at: f.at, front }),
        }
    }

    /// Take the entry `next` names out of its container, re-arming the
    /// front for the entry behind it (or disarming it if the pipe emptied).
    #[inline]
    pub(crate) fn pop(&mut self, next: Next) -> Due {
        let Some(f) = next.front else {
            let (at, kind) = self.sched.pop().expect("peeked");
            debug_assert_eq!(at, next.at);
            self.head_stale = true;
            return Due::Event(kind);
        };
        debug_assert_eq!(self.front.peek(), Some(f));
        if f.pipe & CLASS_PIPE != 0 {
            let (head, behind) = if f.pipe == HEAD_PIPE {
                self.head_pops += 1;
                let Reverse(head) = self.heads.pop().expect("armed set has an entry");
                (head, self.heads.peek().map(|Reverse(n)| (n.at, n.seq)))
            } else {
                self.class_pops += 1;
                self.timers.pop(f.pipe & !CLASS_PIPE)
            };
            debug_assert_eq!((head.at, head.seq), (f.at, f.seq), "front out of sync");
            self.front.advance_top(behind);
            Due::Event(unpack(head.item))
        } else {
            let (head, behind) = self.wire.pop(f.pipe);
            debug_assert_eq!((head.at, head.seq), (f.at, f.seq), "front out of sync");
            self.front.advance_top(behind);
            let (link, pkt) = head.item;
            Due::Delivery(link, pkt)
        }
    }

    /// Pending entries: scheduler events, delay-class events, armed
    /// head-of-line timers and packets on the wire.
    pub(crate) fn len(&self) -> usize {
        self.sched.len() + self.timers.len() + self.heads.len() + self.wire.len()
    }

    /// True when nothing is pending. Every nonempty pipe, and the
    /// head-of-line set while it holds a timer, has an armed front.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.sched.is_empty() && self.front.is_empty()
    }

    /// Which scheduler backend this agenda runs on.
    pub(crate) fn sched_kind(&self) -> SchedKind {
        self.sched.kind()
    }

    /// The scheduler's occupancy counters plus the delay-class and
    /// head-of-line traffic.
    pub(crate) fn stats(&self) -> SchedStats {
        SchedStats {
            class_pushes: self.class_pushes,
            class_pops: self.class_pops,
            head_arms: self.head_arms,
            head_pops: self.head_pops,
            ..self.sched.stats()
        }
    }

    /// Test hook: replace the delay-class bound before any event is
    /// scheduled. 0 keeps every event in the scheduler (the engine before
    /// class pipes); a small value forces overflow.
    #[cfg(test)]
    pub(crate) fn set_class_bound(&mut self, bound: usize) {
        assert!(self.delays.is_empty(), "bound set after scheduling");
        self.class_bound = bound;
    }

    /// Delay classes discovered so far.
    #[cfg(test)]
    pub(crate) fn classes(&self) -> usize {
        self.delays.len()
    }

    /// Current sequence-counter value (pushes + reservations so far).
    pub(crate) fn memo_seq(&self) -> u64 {
        self.sched.memo_seq()
    }

    /// Visit every pending entry with its `(at, seq)`: scheduler entries
    /// in backend order, then each delay-class pipe, the head-of-line
    /// timers in heap order, then each delivery pipe in class order, head
    /// first. The armed fronts are derived from the containers and are not
    /// residual state of their own.
    pub(crate) fn memo_for_each(&self, f: &mut dyn FnMut(SimTime, u64, Due)) {
        self.sched
            .memo_for_each(&mut |at, seq, kind| f(at, seq, Due::Event(kind)));
        let heads = self.heads.iter().map(|Reverse(e)| e);
        for e in self.timers.iter().chain(heads) {
            f(e.at, e.seq, Due::Event(unpack(e.item)));
        }
        for e in self.wire.iter() {
            let (link, pkt) = e.item;
            f(e.at, e.seq, Due::Delivery(link, pkt));
        }
    }

    /// Temporal-symmetry fast-forward: shift every pending entry by `dt`
    /// in time and `dseq` in sequence (and the sequence counter with it),
    /// every event's flow reference by `dflow`, and hand each packet on the
    /// wire to `shift_pkt`. A uniform shift preserves every container's
    /// order, so the fronts stay the fronts.
    pub(crate) fn memo_rebase(
        &mut self,
        dt: SimDuration,
        dseq: u64,
        dflow: u32,
        shift_pkt: &mut dyn FnMut(&mut Packet),
    ) {
        self.sched.memo_rebase(dt, dseq, dflow);
        self.head_stale = true;
        let shift = |e: &mut Entry<Packed>| {
            e.at += dt;
            e.seq += dseq;
            e.item = pack(unpack(e.item).memo_shift_flow(dflow));
        };
        self.timers.iter_mut().for_each(shift);
        let mut heads = std::mem::take(&mut self.heads).into_vec();
        heads.iter_mut().for_each(|Reverse(e)| shift(e));
        self.heads = heads.into();
        for e in self.wire.iter_mut() {
            e.at += dt;
            e.seq += dseq;
            shift_pkt(&mut e.item.1);
        }
        self.front.memo_shift(dt, dseq);
    }

    /// Account `reps` repetitions of one recorded window's traffic.
    pub(crate) fn memo_add_stats(&mut self, d: &SchedStats, reps: u64) {
        self.sched.memo_add_stats(d, reps);
        self.class_pushes += d.class_pushes * reps;
        self.class_pops += d.class_pops * reps;
        self.head_arms += d.head_arms * reps;
        self.head_pops += d.head_pops * reps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventHeap;
    use crate::packet::{PacketKind, Priority};
    use proptest::prelude::*;
    use std::collections::VecDeque;

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

    #[test]
    fn a_sets_front_can_move_before_the_top() {
        let mut h = FrontHeap::new();
        h.arm(front(10, 4, 0));
        h.arm(front(30, 9, HEAD_PIPE));
        assert_eq!(h.peek().unwrap().pipe, 0);
        // A timer armed late, in a slot reserved early: the set's minimum
        // drops below the FIFO's head.
        h.rearm(front(10, 2, HEAD_PIPE));
        assert_eq!(h.peek().unwrap(), front(10, 2, HEAD_PIPE));
        assert_eq!(h.len(), 2);
        h.rearm(front(10, 7, HEAD_PIPE));
        assert_eq!(h.peek().unwrap(), front(10, 4, 0));
    }

    #[test]
    fn every_event_kind_survives_packing_at_its_field_extremes() {
        let (link, host) = (LinkId(u32::MAX), HostId(u32::MAX));
        let kinds = [
            EventKind::TxDone { link },
            EventKind::TxDone { link: LinkId(0) },
            EventKind::Rto {
                flow: u32::MAX,
                seq: u32::MAX,
                attempt: u32::MAX,
            },
            EventKind::Rto {
                flow: 0,
                seq: u32::MAX,
                attempt: 0,
            },
            EventKind::Rto {
                flow: 1,
                seq: 0,
                attempt: u32::MAX,
            },
            EventKind::Wake {
                host,
                token: u64::MAX,
            },
            EventKind::Wake {
                host: HostId(0),
                token: 1 << 63,
            },
            EventKind::FaultUpdate { idx: u32::MAX },
            EventKind::ControlUpdate { idx: u32::MAX },
            EventKind::Pfc {
                link,
                prio: u8::MAX,
                pause: true,
            },
            EventKind::Pfc {
                link,
                prio: u8::MAX,
                pause: false,
            },
            EventKind::Pfc {
                link: LinkId(0),
                prio: 0,
                pause: true,
            },
            EventKind::AckFlush { flow: u32::MAX },
            EventKind::Sample,
        ];
        let mut tags = Vec::new();
        for kind in kinds {
            let packed = pack(kind);
            assert_eq!(format!("{:?}", unpack(packed)), format!("{kind:?}"));
            tags.push(packed.0 & 0xff);
        }
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags, (0..8).collect::<Vec<_>>(), "a variant was left out");
    }

    #[test]
    fn a_ring_grows_while_wrapped_and_keeps_its_order() {
        let mut r: Ring<u32> = Ring::new();
        let push = |r: &mut Ring<u32>, n: u64| r.push(SimTime::from_ns(n), n, n as u32);
        (0..16).for_each(|n| push(&mut r, n));
        assert_eq!(r.slots.len(), 16);
        (0..5).for_each(|n| assert_eq!(r.pop().unwrap().seq, n));
        (16..21).for_each(|n| push(&mut r, n));
        assert_eq!((r.head, r.spans()), (5, (11, 5)), "full, and wrapped");
        push(&mut r, 21);
        assert_eq!((r.slots.len(), r.head, r.len), (32, 0, 17));
        assert_eq!((r.front().unwrap().seq, r.back().unwrap().seq), (5, 21));
        r.iter_mut().for_each(|e| e.item += 100);
        let items: Vec<u32> = r.iter().map(|e| e.item).collect();
        assert_eq!(items, (105..122).collect::<Vec<_>>());
        assert!(std::iter::from_fn(|| r.pop()).map(|e| e.seq).eq(5..22));
        assert!(r.front().is_none() && r.back().is_none());
    }

    fn wake(token: u64) -> EventKind {
        EventKind::Wake {
            host: HostId(0),
            token,
        }
    }

    /// An agenda over six links in three latency classes (5, 9, 5, 1, …).
    const LATENCIES: [u64; 3] = [5, 9, 1];
    fn agenda(sched: SchedKind) -> Agenda {
        let lat = |l: usize| SimDuration::from_ns(LATENCIES[l % 3]);
        Agenda::new(sched, (0..6).map(lat))
    }

    #[test]
    fn classes_are_discovered_up_to_the_bound() {
        let mut a = agenda(SchedKind::Wheel);
        a.set_class_bound(2);
        let d = SimDuration::from_ns;
        for (i, delay) in [84, 5_000, 84, 3].into_iter().enumerate() {
            a.after(SimTime::ZERO, d(delay), wake(i as u64));
        }
        assert_eq!(a.classes(), 2, "84 and 5 000 ns; 84 keeps its class");
        let s = a.stats();
        assert_eq!((s.class_pushes, s.pushes), (3, 1), "3 ns is past the bound");
        assert_eq!(a.len(), 4);
        let mut none = agenda(SchedKind::Heap);
        none.set_class_bound(0);
        none.after(SimTime::ZERO, d(84), wake(0));
        assert_eq!((none.classes(), none.stats().pushes), (0, 1));
    }

    #[test]
    fn a_pipe_is_fifo_and_says_when_to_arm() {
        let mut p: Pipes<u32> = Pipes(Vec::new());
        assert_eq!((p.open(), p.open()), (0, 1));
        let mut push = |class, at, seq| p.push(class, SimTime::from_ns(at), seq, seq as u32);
        assert!(push(1, 510, 0), "empty pipe: arm the front");
        assert!(!push(1, 510, 3));
        assert!(!push(1, 620, 4));
        assert!(push(0, 7, 5), "classes are independent");
        assert_eq!(p.len(), 4);
        let (head, next) = p.pop(1);
        assert_eq!((head.at.as_ns(), head.seq, head.item), (510, 0, 0));
        assert_eq!(next, Some((SimTime::from_ns(510), 3)));
        p.pop(1);
        let (_, next) = p.pop(1);
        assert_eq!(next, None, "caller disarms the front");
        assert_eq!(p.iter().map(|e| e.seq).collect::<Vec<_>>(), [5]);
    }

    /// What the model heap's entry `id` stands for in the agenda.
    #[derive(Copy, Clone, PartialEq, Debug)]
    enum Item {
        Timed,
        Wire(LinkId),
        /// A reserved slot: an event once armed, nothing before, and out of
        /// reach once the dispatch order has passed it.
        Slot {
            armed: bool,
        },
        Passed,
    }

    /// Drive an [`Agenda`] and a single [`EventHeap`] — the all-scheduler
    /// engine — with one script. Every agenda insert or reservation takes
    /// one sequence number, exactly like the heap push that mirrors it (the
    /// model's sequence number *is* the item id), so the heap's `(at, seq)`
    /// order is the order the agenda must pop in. A reservation not armed
    /// by the time it reaches the model's head is in no container of the
    /// agenda: the model drops it there.
    fn agenda_vs_heap(sched: SchedKind, script: &[u64]) -> Result<(), String> {
        let mut a = agenda(sched);
        let mut model = EventHeap::new();
        let mut items: Vec<Item> = Vec::new();
        // Reserved slots by id, armed or not, in no particular order.
        let mut slots: Vec<(Reserved, u64)> = Vec::new();
        let (mut now, mut on_wire, mut unarmed) = (SimTime::ZERO, 0u64, 0usize);
        for &raw in script {
            let arg = raw / 10;
            let id = items.len() as u64;
            while let Some((_, head)) = model.peek_next() {
                if items[head as usize] != (Item::Slot { armed: false }) {
                    break;
                }
                model.pop();
                items[head as usize] = Item::Passed;
                unarmed -= 1;
            }
            match raw % 10 {
                // Absolute time, a few ns out: often before the cached
                // scheduler head, often tied with a pipe head.
                0 | 1 => {
                    let at = now + SimDuration::from_ns(arg % 12);
                    a.at(at, wake(id));
                    model.push(at, wake(id));
                    items.push(Item::Timed);
                }
                // 24 distinct delays: eight overflow to the scheduler.
                2..=4 => {
                    let delay = SimDuration::from_ns(1 + 3 * (arg % 24));
                    a.after(now, delay, wake(id));
                    model.push(now + delay, wake(id));
                    items.push(Item::Timed);
                }
                5 => {
                    let link = LinkId((arg % 6) as u32);
                    let at = now + SimDuration::from_ns(LATENCIES[link.idx() % 3]);
                    let pkt = Packet {
                        kind: PacketKind::Data {
                            flow: id as u32,
                            seq: 0,
                        },
                        src: HostId(0),
                        dst: HostId(1),
                        size: 64,
                        prio: Priority::MEASURED,
                        tag: None,
                        src_leaf: 0,
                        ingress: None,
                        ce: false,
                    };
                    a.deliver(at, link, pkt);
                    model.push(at, wake(id));
                    items.push(Item::Wire(link));
                    on_wire += 1;
                }
                // Take a place in the order, often tied with a pipe head.
                8 => {
                    let delay = SimDuration::from_ns(arg % 40);
                    slots.push((a.reserve_after(now, delay), id));
                    model.push(now + delay, wake(id));
                    items.push(Item::Slot { armed: false });
                    unarmed += 1;
                }
                // Arm some slot reserved earlier that is still ahead: it
                // may become the earliest entry of all.
                9 if !slots.is_empty() => {
                    let (slot, id) = slots.swap_remove(arg as usize % slots.len());
                    if items[id as usize] == (Item::Slot { armed: false }) {
                        a.arm_reserved(slot, wake(id));
                        items[id as usize] = Item::Slot { armed: true };
                        unarmed -= 1;
                    }
                }
                9 => {}
                // Look without taking: warms the cached scheduler head.
                6 => {
                    if a.peek().map(|n| n.at) != model.peek_next().map(|(t, _)| t) {
                        return Err(format!("peek diverged at item {id}"));
                    }
                }
                _ => {
                    for _ in 0..=arg % 3 {
                        let want = model.pop();
                        let got = a.peek().map(|n| (n.at, a.pop(n)));
                        let want = want.map(|(at, k)| match k {
                            EventKind::Wake { token, .. } => (at, token),
                            _ => unreachable!(),
                        });
                        let got = got.map(|(at, due)| match due {
                            Due::Event(EventKind::Wake { token, .. }) => (at, token, None),
                            Due::Delivery(link, pkt) => match pkt.kind {
                                PacketKind::Data { flow, .. } => (at, flow as u64, Some(link)),
                                PacketKind::Ack { .. } => unreachable!(),
                            },
                            Due::Event(k) => unreachable!("{k:?}"),
                        });
                        let link = |id: u64| match items[id as usize] {
                            Item::Wire(link) => Some(link),
                            _ => None,
                        };
                        let want = want.map(|(at, id)| (at, id, link(id)));
                        if got != want {
                            return Err(format!("popped {got:?}, the heap says {want:?}"));
                        }
                        let Some((at, _, link)) = got else { break };
                        on_wire -= link.is_some() as u64;
                        now = now.max(at);
                        if model.peek_next().is_some_and(|(_, head)| {
                            items[head as usize] == (Item::Slot { armed: false })
                        }) {
                            break;
                        }
                    }
                }
            }
            let pending = model.len() - unarmed;
            if (a.len(), a.is_empty()) != (pending, pending == 0) {
                return Err(format!("len {} vs {pending}", a.len()));
            }
            // Deliveries are in no scheduler counter: count those still on
            // the wire apart, and nothing else may be unaccounted for.
            let s = a.stats();
            if s.pushes + s.class_pushes + s.head_arms
                != s.pops + s.class_pops + s.head_pops + a.len() as u64 - on_wire
            {
                return Err(format!("pushes != pops + len: {s:?} len {}", a.len()));
            }
        }
        Ok(())
    }

    proptest! {
        /// Pop order, `len`, `is_empty` and the pushes = pops + len
        /// identity of the agenda match one heap ordered by `(at, seq)`,
        /// under random interleavings of `at` / `after` / `deliver` /
        /// reserve / arm-later / peek / pop with equal timestamps, more
        /// delays than there are classes, pushes that order before the
        /// cached scheduler head (a cache not invalidated on a push fails
        /// here) and slots armed before every other front.
        #[test]
        fn agenda_matches_a_single_heap(script in proptest::collection::vec(0u64..u64::MAX, 1..400)) {
            for sched in [SchedKind::Heap, SchedKind::Wheel] {
                if let Err(e) = agenda_vs_heap(sched, &script) {
                    prop_assert!(false, "{:?}: {}", sched, e);
                }
            }
        }

        /// A ring is a `VecDeque`: same order out, same view through
        /// `iter` / `iter_mut` / `front` / `back`, whatever the mix of
        /// pushes and pops (pushes lead, so it wraps and grows wrapped).
        #[test]
        fn ring_matches_a_vecdeque(script in proptest::collection::vec(0u64..u64::MAX, 1..600)) {
            let mut ring: Ring<u64> = Ring::new();
            let mut model: VecDeque<(u64, u64)> = VecDeque::new();
            for (n, raw) in script.into_iter().enumerate() {
                let n = n as u64;
                match raw % 8 {
                    0..=3 => {
                        ring.push(SimTime::from_ns(n), n, raw);
                        model.push_back((n, raw));
                    }
                    4 | 5 => {
                        let got = ring.pop().map(|e| (e.seq, e.item));
                        prop_assert_eq!(got, model.pop_front());
                    }
                    6 => {
                        ring.iter_mut().for_each(|e| e.item ^= raw);
                        model.iter_mut().for_each(|e| e.1 ^= raw);
                    }
                    _ => {
                        let got: Vec<_> = ring.iter().map(|e| (e.seq, e.item)).collect();
                        prop_assert_eq!(got, Vec::from(model.clone()));
                    }
                }
                prop_assert_eq!(ring.len, model.len());
                prop_assert_eq!(ring.front().map(|e| e.seq), model.front().map(|e| e.0));
                prop_assert_eq!(ring.back().map(|e| e.seq), model.back().map(|e| e.0));
                prop_assert!(ring.slots.is_empty() || ring.slots.len().is_power_of_two());
            }
        }

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
