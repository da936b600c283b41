//! Hierarchical timing wheel: the default future-event scheduler.
//!
//! The simulator's event mix is dominated by near-future events at a few
//! fixed offsets — per-port serialization ticks, link latency, the 5 µs
//! RTO, ACK-coalescing flushes — which a binary heap pays `O(log n)` per
//! operation to order. A hashed hierarchical timing wheel files each event
//! into a slot indexed by digits of its timestamp instead, making push and
//! expire `O(1)` for the near future.
//!
//! ## Layout
//!
//! [`WHEEL_LEVELS`] levels of `WHEEL_SLOTS` slots each, at 1 ns base
//! resolution (timestamps are integer nanoseconds). A timestamp is viewed
//! as little-endian base-`WHEEL_SLOTS` digits; an event files into the
//! *most significant level whose digit differs from the cursor's* — level 0
//! if only the low byte differs, level 1 if the second byte differs, and so
//! on ([`SimTime::radix_level`]). Four 8-bit levels cover the low 32 bits:
//! a horizon of 2³² ns ≈ 4.29 s past the cursor, far beyond any RTO backoff
//! the simulator produces. Events beyond the horizon go to an *overflow
//! spill* — a min-heap ordered by `(time, seq)` — and migrate into the
//! wheel when the cursor reaches their 2³²-ns epoch.
//!
//! ## Expiry and cascade
//!
//! The cursor only ever sits at a popped event's timestamp: the wheel
//! advances *lazily*, jumping straight to the next occupied slot (found by
//! scanning per-level occupancy bitmaps, not by ticking through empty
//! slots). When the next occupied slot is at level 0 its entries are due —
//! level-0 slots are 1 ns wide, so every entry in one shares a single
//! timestamp. When it is at a higher level, its entries are *cascaded*:
//! re-filed one or more levels down after the cursor jumps to the slot's
//! start, then the scan restarts.
//!
//! ## Determinism
//!
//! Equal-timestamp events must pop in global insertion order even though
//! cascading interleaves re-filed entries behind directly-pushed ones in
//! the same slot bucket. Each entry carries the scheduler-wide sequence
//! number assigned at push; a due level-0 slot is sorted by that sequence
//! before dispatch. Because a due slot holds exactly one timestamp, this
//! sort *is* global FIFO order — no comparison against other slots is
//! needed. The overflow spill orders by `(time, seq)` and, by construction,
//! only surfaces when the wheel is empty, so wheel-vs-spill ordering can
//! never invert. The equivalence with [`EventHeap`](crate::engine::EventHeap)
//! is asserted by a shared-script property test (`tests/sched_equiv.rs`)
//! and by byte-identity tests over full trials.

use crate::engine::{EventKind, SchedKind, SchedStats, Scheduler};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of slots per level (8 → 256 slots, one timestamp byte per level).
pub const WHEEL_BITS: u32 = 8;
/// Slots per wheel level.
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Hierarchy depth. 4 byte-levels span 2³² ns ≈ 4.29 s past the cursor.
pub const WHEEL_LEVELS: usize = 4;
/// Words per occupancy bitmap.
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

#[derive(Copy, Clone)]
struct Entry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

/// Overflow-spill entry; reversed `(at, seq)` order makes the std max-heap
/// pop earliest-first, exactly like `HeapEntry` in the heap backend.
struct Spill(Entry);

impl PartialEq for Spill {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl Eq for Spill {}
impl PartialOrd for Spill {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Spill {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// Hierarchical timing wheel (see module docs for layout and invariants).
///
/// The cursor may run ahead of the engine's clock — peeking advances it to
/// the next pending event, and popping a lazily-cancelled RTO timer
/// consumes a *future* timestamp without advancing the clock — so a push
/// may legally land below the cursor (the caller then schedules off its
/// own, earlier, clock). Such entries are due before everything still
/// filed in the wheel, and are spliced directly into the due buffer in
/// `(at, seq)` order, exactly where the heap backend would surface them.
pub struct TimingWheel {
    /// `WHEEL_LEVELS × WHEEL_SLOTS` buckets, flattened level-major.
    slots: Box<[Vec<Entry>]>,
    /// Per-level occupancy bitmaps; bit = slot holds ≥ 1 entry.
    occ: [[u64; OCC_WORDS]; WHEEL_LEVELS],
    /// Events beyond the wheel horizon, earliest-first.
    overflow: BinaryHeap<Spill>,
    /// Current position: the timestamp of the most recent due slot. All
    /// events *filed in the wheel or overflow* are at or after this
    /// instant (entries spliced into `due` may sit below it).
    cursor: SimTime,
    /// The due buffer: the most recently drained level-0 slot, sorted by
    /// `seq`, consumed from `due_pos` forward. It is the slot's own buffer,
    /// taken, so a drained slot keeps no buffer and the wheel's memory
    /// follows its pending events, not the time it has covered
    /// (`tests/flow_memory.rs`).
    due: Vec<Entry>,
    due_pos: usize,
    /// Pending events across wheel + overflow + unread due entries.
    len: usize,
    /// Next global sequence number; advanced by pushes *and* reservations,
    /// so tie-breaks line up with pipeline entries that only reserved.
    seq: u64,
    stats: SchedStats,
}

impl Default for TimingWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingWheel {
    /// Empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect(),
            occ: [[0; OCC_WORDS]; WHEEL_LEVELS],
            overflow: BinaryHeap::new(),
            cursor: SimTime::ZERO,
            due: Vec::new(),
            due_pos: 0,
            len: 0,
            seq: 0,
            stats: SchedStats::default(),
        }
    }

    /// Visit every pending entry (memo snapshot): filed slots, the overflow
    /// spill and the unread due-buffer tail. Order is internal, not pop
    /// order.
    pub(crate) fn memo_for_each(&self, f: &mut dyn FnMut(SimTime, u64, EventKind)) {
        for slot in self.slots.iter() {
            for e in slot {
                f(e.at, e.seq, e.kind);
            }
        }
        for s in self.overflow.iter() {
            f(s.0.at, s.0.seq, s.0.kind);
        }
        for e in &self.due[self.due_pos..] {
            f(e.at, e.seq, e.kind);
        }
    }

    /// In-place fast-forward rebase: shift every pending entry by `dt` in
    /// time, `dseq` in tie-break sequence and `dflow` in flow id, advance
    /// the cursor by `dt` and the sequence counter by `dseq`. Shifted
    /// absolute times generally change radix digits, so filed entries are
    /// drained and re-filed against the shifted cursor — without touching
    /// the occupancy stats, whose window traffic [`Self::memo_add_stats`]
    /// accounts separately. Unread due-buffer entries keep their buffer
    /// position (they may legally sit below the cursor).
    pub(crate) fn memo_rebase(&mut self, dt: crate::time::SimDuration, dseq: u64, dflow: u32) {
        let mut pending: Vec<Entry> = Vec::new();
        for slot in self.slots.iter_mut() {
            pending.append(slot);
        }
        self.occ = [[0; OCC_WORDS]; WHEEL_LEVELS];
        pending.extend(std::mem::take(&mut self.overflow).into_iter().map(|s| s.0));
        self.cursor += dt;
        for e in pending {
            self.file_inner(
                Entry {
                    at: e.at + dt,
                    seq: e.seq + dseq,
                    kind: e.kind.memo_shift_flow(dflow),
                },
                false,
            );
        }
        for e in &mut self.due[self.due_pos..] {
            e.at += dt;
            e.seq += dseq;
            e.kind = e.kind.memo_shift_flow(dflow);
        }
        self.seq += dseq;
    }

    /// Account `reps` repetitions of one recorded window's scheduler
    /// traffic. Push/pop totals are exact; the bucket-placement
    /// diagnostics (`level_pushes`, `cascades`, spills, splices) repeat the
    /// recorded window's values, which is approximate — placement depends
    /// on absolute-time radix digits and is not shift-invariant (see
    /// DESIGN.md §11). `max_pending` is a high-water mark and is left
    /// alone: a matched steady-state window sets no new one.
    pub(crate) fn memo_add_stats(&mut self, d: &SchedStats, reps: u64) {
        self.stats.pushes += d.pushes * reps;
        self.stats.pops += d.pops * reps;
        for (a, b) in self.stats.level_pushes.iter_mut().zip(d.level_pushes) {
            *a += b * reps;
        }
        self.stats.spill_pushes += d.spill_pushes * reps;
        self.stats.cascades += d.cascades * reps;
        self.stats.cascaded_entries += d.cascaded_entries * reps;
        self.stats.due_splices += d.due_splices * reps;
    }

    /// Current sequence-counter value (pushes + reservations so far).
    pub(crate) fn memo_seq(&self) -> u64 {
        self.seq
    }

    /// File an entry into the wheel or the overflow spill, relative to the
    /// current cursor. Used by both `push` and cascade re-filing; callers
    /// guarantee `e.at >= self.cursor`.
    fn file(&mut self, e: Entry) {
        self.file_inner(e, true);
    }

    /// [`Self::file`] with optional stats accounting — memo re-filing after
    /// a rebase must not recount pushes the window delta already covers.
    fn file_inner(&mut self, e: Entry, count: bool) {
        debug_assert!(e.at >= self.cursor);
        let at = e.at;
        let level = at.radix_level(self.cursor, WHEEL_BITS) as usize;
        if level >= WHEEL_LEVELS {
            if count {
                self.stats.spill_pushes += 1;
            }
            self.overflow.push(Spill(e));
            return;
        }
        if count {
            self.stats.level_pushes[level] += 1;
        }
        let slot = at.radix_digit(WHEEL_BITS, level as u32);
        self.slots[level * WHEEL_SLOTS + slot].push(e);
        self.occ[level][slot / 64] |= 1 << (slot % 64);
    }

    /// First occupied slot at `level` with index ≥ `from`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let words = &self.occ[level];
        let mut w = from / 64;
        let mut cur = words[w] & (!0u64 << (from % 64));
        loop {
            if cur != 0 {
                return Some(w * 64 + cur.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            cur = words[w];
        }
    }

    /// Make the due buffer nonempty if any event is pending: advance the
    /// cursor to the next occupied slot, cascading higher-level slots down
    /// until a level-0 slot can be drained, migrating overflow entries in
    /// when the wheel itself is exhausted.
    fn ensure_due(&mut self) {
        if self.due_pos < self.due.len() {
            return;
        }
        self.due.clear();
        self.due_pos = 0;
        if self.len == 0 {
            return;
        }
        'scan: loop {
            for level in 0..WHEEL_LEVELS {
                // Slots strictly below the cursor's digit at this level hold
                // nothing (they would be past events), so scan from the
                // digit onward. At the digit itself only level 0 can be
                // occupied: a higher level's current-digit slot was drained
                // when the cursor entered it.
                let from = self.cursor.radix_digit(WHEEL_BITS, level as u32);
                let Some(slot) = self.next_occupied(level, from) else {
                    continue;
                };
                let flat = level * WHEEL_SLOTS + slot;
                self.occ[level][slot / 64] &= !(1 << (slot % 64));
                if level == 0 {
                    // Due: a level-0 slot is 1 ns wide, so these entries
                    // share one timestamp; sorting by seq restores global
                    // insertion order across direct pushes and cascades.
                    self.due = std::mem::take(&mut self.slots[flat]);
                    self.due.sort_unstable_by_key(|e| e.seq);
                    self.cursor = self.due[0].at;
                    debug_assert!(self.due.iter().all(|e| e.at == self.cursor));
                    return;
                }
                // Cascade: jump the cursor to the slot's span start (zeroing
                // all lower digits), then re-file its entries, which now
                // land at least one level down.
                let span_start = SimTime::from_ns(
                    self.cursor
                        .floor_ticks(WHEEL_BITS * (level as u32 + 1))
                        .as_ns()
                        | ((slot as u64) << (WHEEL_BITS * level as u32)),
                );
                debug_assert!(span_start > self.cursor);
                self.cursor = span_start;
                let entries = std::mem::take(&mut self.slots[flat]);
                self.stats.cascades += 1;
                self.stats.cascaded_entries += entries.len() as u64;
                for e in entries {
                    self.file(e);
                }
                continue 'scan;
            }
            // Wheel empty; all remaining events sit in the overflow spill.
            // Jump to its earliest epoch and migrate every entry within
            // wheel range of the new cursor, then rescan.
            let head_at = self
                .overflow
                .peek()
                .expect("len > 0 with empty wheel implies overflow entries")
                .0
                .at;
            self.cursor = head_at;
            while let Some(s) = self.overflow.peek() {
                if (s.0.at.radix_level(self.cursor, WHEEL_BITS) as usize) >= WHEEL_LEVELS {
                    break;
                }
                let e = self.overflow.pop().expect("peeked").0;
                self.file(e);
            }
        }
    }
}

impl Scheduler for TimingWheel {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.stats.pushes += 1;
        if at < self.cursor {
            // The cursor overshot `at` (peek-ahead, or a popped-but-stale
            // RTO timer); everything in the wheel/overflow is at or after
            // the cursor, so this entry is due before all of it. Splice
            // into the unconsumed tail of the due buffer, keeping
            // (at, seq) order (`seq` is globally maximal, so it follows
            // any equal-timestamp entry).
            let e = Entry { at, seq, kind };
            let mut i = self.due.len();
            while i > self.due_pos && self.due[i - 1].at > e.at {
                i -= 1;
            }
            self.due.insert(i, e);
            self.stats.due_splices += 1;
        } else {
            self.file(Entry { at, seq, kind });
        }
        self.len += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len as u64);
    }
    #[inline]
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.ensure_due();
        let e = self.due.get(self.due_pos)?;
        self.due_pos += 1;
        self.len -= 1;
        self.stats.pops += 1;
        Some((e.at, e.kind))
    }
    fn peek_next(&mut self) -> Option<(SimTime, u64)> {
        self.ensure_due();
        self.due.get(self.due_pos).map(|e| (e.at, e.seq))
    }
    fn len(&self) -> usize {
        self.len
    }
    fn kind(&self) -> SchedKind {
        SchedKind::Wheel
    }
    fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    fn wake(t: u64, token: u64) -> (SimTime, EventKind) {
        (
            SimTime::from_ns(t),
            EventKind::Wake {
                host: HostId(0),
                token,
            },
        )
    }

    fn token(k: EventKind) -> u64 {
        match k {
            EventKind::Wake { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        for (t, k) in [wake(30, 0), wake(10, 1), wake(20, 2)] {
            w.push(t, k);
        }
        let times: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(t, _)| t.as_ns())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = TimingWheel::new();
        for i in 0..10u64 {
            let (t, k) = wake(100, i);
            w.push(t, k);
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| w.pop().map(|(_, k)| token(k))).collect();
        assert_eq!(tokens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cascaded_entries_keep_insertion_order_at_equal_times() {
        // Token 0 goes in first but at a *higher level* than token 1 will:
        // when the cursor later cascades it down into the level-0 slot where
        // token 1 was directly filed, seq order must still win.
        let mut w = TimingWheel::new();
        let (t, k) = wake(0x1_23, 0); // level 1 from cursor 0
        w.push(t, k);
        let (t, k) = wake(5, 9); // earlier event to pop first
        w.push(t, k);
        assert_eq!(w.pop().map(|(t, k)| (t.as_ns(), token(k))), Some((5, 9)));
        // Cursor now at 5; 0x123 still differs in byte 1 → still level 1.
        let (t, k) = wake(0x1_23, 1); // same timestamp, filed at level 1 too
        w.push(t, k);
        assert_eq!(
            std::iter::from_fn(|| w.pop().map(|(_, k)| token(k))).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        let (t, k) = wake(55, 0);
        w.push(t, k);
        assert_eq!(w.peek_next(), Some((SimTime::from_ns(55), 0)));
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.peek_next(), None);
    }

    #[test]
    fn peek_tracks_pushes_and_pops() {
        // Mirror of the heap's cached-`next_at` invariant test.
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_next(), None);
        let (t, k) = wake(50, 0);
        w.push(t, k);
        let (t, k) = wake(10, 1);
        w.push(t, k);
        let (t, k) = wake(30, 2);
        w.push(t, k);
        assert_eq!(w.peek_next(), Some((SimTime::from_ns(10), 1)));
        w.pop();
        assert_eq!(w.peek_next(), Some((SimTime::from_ns(30), 2)));
        w.pop();
        w.pop();
        assert_eq!(w.peek_next(), None);
    }

    #[test]
    fn pushes_count_every_push_ever_made() {
        let mut w = TimingWheel::new();
        for i in 0..5u64 {
            let (t, k) = wake(i, i);
            w.push(t, k);
        }
        w.pop();
        assert_eq!(w.stats().pushes, 5);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        let mut w = TimingWheel::new();
        let horizon = 1u64 << (WHEEL_BITS * WHEEL_LEVELS as u32); // 2^32 ns
        let (t, k) = wake(horizon + 7, 0);
        w.push(t, k); // beyond wheel range → overflow
        let (t, k) = wake(3, 1);
        w.push(t, k);
        let (t, k) = wake(horizon + 7, 2);
        w.push(t, k);
        let (t, k) = wake(horizon + 5, 3);
        w.push(t, k);
        assert!(w.stats().spill_pushes >= 3);
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| w.pop().map(|(t, k)| (t.as_ns(), token(k)))).collect();
        assert_eq!(
            order,
            vec![(3, 1), (horizon + 5, 3), (horizon + 7, 0), (horizon + 7, 2)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_push_pop_across_levels() {
        // Drive the cursor forward through cascades while new near-future
        // events arrive, mimicking the simulator's steady state.
        let mut w = TimingWheel::new();
        let mut next_token = 0u64;
        let mut expected = Vec::new();
        let mut got = Vec::new();
        let mut now = 0u64;
        for round in 0..200u64 {
            // A burst at now + fixed offsets (serialization/latency/RTO-ish).
            for off in [1, 257, 5_000, 70_000] {
                let (t, k) = wake(now + off, next_token);
                w.push(t, k);
                expected.push((now + off, next_token));
                next_token += 1;
            }
            // Pop two per round; leave a backlog to exercise cascades.
            for _ in 0..2 {
                if let Some((t, k)) = w.pop() {
                    now = t.as_ns();
                    got.push((t.as_ns(), token(k)));
                }
            }
            let _ = round;
        }
        while let Some((t, k)) = w.pop() {
            got.push((t.as_ns(), token(k)));
        }
        expected.sort_by_key(|&(t, tok)| (t, tok)); // tokens are push order
        assert_eq!(got, expected);
        assert!(w.stats().cascades > 0, "test failed to exercise cascading");
        assert!(w.stats().max_pending > 0);
    }

    #[test]
    fn push_below_peeked_cursor_is_spliced_in_order() {
        // Peek advances the cursor to the next pending event; a caller may
        // then legally schedule something earlier. The spliced entries
        // must come out first, in time order.
        let mut w = TimingWheel::new();
        let (t, k) = wake(10, 0);
        w.push(t, k);
        let (t, k) = wake(1_000, 1);
        w.push(t, k);
        assert_eq!(w.pop().map(|(t, k)| (t.as_ns(), token(k))), Some((10, 0)));
        assert_eq!(w.peek_next(), Some((SimTime::from_ns(1_000), 1))); // cursor → 1000
        let (t, k) = wake(500, 2);
        w.push(t, k);
        let (t, k) = wake(200, 3);
        w.push(t, k);
        let (t, k) = wake(500, 4);
        w.push(t, k);
        assert!(w.stats().due_splices >= 3);
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| w.pop().map(|(t, k)| (t.as_ns(), token(k)))).collect();
        assert_eq!(order, vec![(200, 3), (500, 2), (500, 4), (1_000, 1)]);
    }

    #[test]
    fn push_below_popped_timestamp_is_legal() {
        // The lazy-RTO shape: a stale timer pops at a *future* timestamp
        // without advancing the simulator clock, then the engine schedules
        // a wire event off its own, earlier, clock. The backdated event
        // must come straight back out first — exactly what a heap does.
        let mut w = TimingWheel::new();
        let (t, k) = wake(378_076, 0); // the "stale RTO"
        w.push(t, k);
        assert_eq!(
            w.pop().map(|(t, k)| (t.as_ns(), token(k))),
            Some((378_076, 0))
        );
        let (t, k) = wake(375_124, 1); // wire event from the lagging clock
        w.push(t, k);
        let (t, k) = wake(379_000, 2);
        w.push(t, k);
        assert_eq!(
            w.pop().map(|(t, k)| (t.as_ns(), token(k))),
            Some((375_124, 1))
        );
        assert_eq!(
            w.pop().map(|(t, k)| (t.as_ns(), token(k))),
            Some((379_000, 2))
        );
        assert!(w.is_empty());
    }

    #[test]
    fn max_pending_tracks_high_water_mark() {
        let mut w = TimingWheel::new();
        for i in 0..6u64 {
            let (t, k) = wake(10 + i, i);
            w.push(t, k);
        }
        for _ in 0..4 {
            w.pop();
        }
        let (t, k) = wake(100, 99);
        w.push(t, k);
        assert_eq!(w.stats().max_pending, 6);
    }
}
