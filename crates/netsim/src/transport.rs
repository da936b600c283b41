//! RoCE-like reorder-tolerant transport (paper §6).
//!
//! "We implement a simple transport tolerant to reordering, mimicking the
//! current RoCE NICs, without congestion control. The network is lossless,
//! but packet losses due to injected faults are detected via a
//! retransmission timeout of 5 µs."
//!
//! Each message is one *flow*: a fixed number of MTU-sized segments. The
//! sender blasts segments at line rate (no congestion window — the fabric is
//! lossless and non-blocking), gives every segment a retransmission deadline,
//! and retransmits on timeout with exponential backoff. The receiver accepts
//! segments in any order, deduplicates, and returns coalesced selective
//! ACKs. Message completion fires when the receiver holds every segment.
//!
//! ## One first-attempt timer per flow
//!
//! On a lossless fabric almost every segment is acknowledged long before
//! its deadline, so a timer per segment is an agenda entry that surfaces
//! only to be thrown away. The sender instead *logs* each segment's first
//! deadline — the agenda slot reserved when the segment left
//! (`FlowState::sent`) — and keeps a single one armed: the slot of its
//! oldest sent segment still unacknowledged. When that timer surfaces,
//! `FlowState::next_head` moves on to the next sent segment still
//! unacknowledged and arms *its* logged slot; the surfaced timer is then
//! handled like any timer (retransmit, or discard if acknowledged
//! meanwhile). A segment's deadline matters only if the segment is
//! unacknowledged when it passes; a flow's slots strictly increase;
//! acknowledgement is final — so every timeout fires at the time and in
//! the order a timer per segment would have given it. Backoff timers
//! (attempt ≥ 1) are rare and stay one per segment.
//!
//! The flow's *last* sent slot is armed even when its segment is
//! acknowledged: it surfaces as a discard, and until it does the agenda is
//! nonempty exactly when it would have been with a timer per segment (the
//! telemetry sampler ticks while anything is pending, `run_until` reports
//! whether anything was).

use crate::bitset::BitSet;
use crate::config::{ACK_COALESCE, MTU};
use crate::engine::EventKind;
use crate::ids::HostId;
use crate::packet::{AckBlock, CollectiveTag, FlowId, Packet, PacketKind, Priority};
use crate::pipeline::Reserved;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut, Range};

/// Sender+receiver state for one message flow. The simulator holds the
/// global table; in a real deployment the two halves live on different NICs.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Sending host.
    pub(crate) src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Total payload bytes.
    pub(crate) bytes: u64,
    /// Number of segments.
    pub npkts: u32,
    /// Collective tag stamped on every data packet.
    pub tag: Option<CollectiveTag>,
    /// Priority class for data packets.
    pub prio: Priority,

    // --- sender side ---
    /// Next fresh (never-transmitted) segment.
    pub(crate) next_seq: u32,
    /// Segments acknowledged so far.
    pub(crate) acked: BitSet,
    /// True once the sender has given up on some segment.
    pub failed: bool,
    /// Retransmissions issued for this flow (loss signal for probing
    /// baselines).
    pub retx: u32,
    /// Highest cumulative-ACK watermark processed (sender side; avoids
    /// re-scanning the bitmap on every cumulative ACK).
    pub(crate) cum_acked: u32,
    /// First-attempt timer slot of every segment sent so far, by segment
    /// (see the module docs). Given back, capacity and all, once the flow
    /// is fully acknowledged or failed and none of its slots is armed.
    pub(crate) sent: Vec<Reserved>,
    /// The segment whose logged slot is armed in the agenda while
    /// `rto_armed`; otherwise `next_seq` (every logged slot has surfaced).
    pub(crate) rto_cursor: u32,
    /// True while one of this flow's logged slots is armed.
    pub(crate) rto_armed: bool,
    /// What still names this flow: its packets on a wire or in a queue
    /// and its armed timers (head-of-line slot, backoff `Rto`,
    /// `AckFlush`). See [`FlowTable`].
    pub(crate) refs: u32,

    // --- receiver side ---
    /// Segments received so far.
    pub(crate) rcvd: BitSet,
    /// Pending coalesced-ACK accumulator.
    pub pending_ack: Option<AckAccum>,
    /// Set when every segment has been received.
    pub completed_at: Option<SimTime>,
    /// When the flow was posted.
    pub(crate) created_at: SimTime,
}

impl FlowState {
    /// Create a flow of `bytes` split into [`MTU`]-sized segments.
    pub(crate) fn new(
        src: HostId,
        dst: HostId,
        bytes: u64,
        tag: Option<CollectiveTag>,
        prio: Priority,
        now: SimTime,
    ) -> Self {
        assert!(bytes > 0, "zero-byte flow");
        let npkts = bytes.div_ceil(MTU as u64) as u32;
        FlowState {
            src,
            dst,
            bytes,
            npkts,
            tag,
            prio,
            next_seq: 0,
            acked: BitSet::new(npkts),
            failed: false,
            retx: 0,
            cum_acked: 0,
            sent: Vec::new(),
            rto_cursor: 0,
            rto_armed: false,
            refs: 0,
            rcvd: BitSet::new(npkts),
            pending_ack: None,
            completed_at: None,
            created_at: now,
        }
    }

    /// Payload size of segment `seq`.
    fn seg_size(&self, seq: u32) -> u32 {
        debug_assert!(seq < self.npkts);
        if seq + 1 == self.npkts {
            let rem = self.bytes - (self.npkts as u64 - 1) * MTU as u64;
            rem as u32
        } else {
            MTU
        }
    }

    /// True once the receiver holds all segments.
    pub fn is_complete(&self) -> bool {
        self.rcvd.full()
    }

    /// True once every segment is acknowledged at the sender.
    pub(crate) fn fully_acked(&self) -> bool {
        self.acked.full()
    }

    /// True once nothing can touch the flow again: the sender is fully
    /// acknowledged (so the receiver holds every segment) or gave up, and
    /// nothing names it any more.
    pub(crate) fn is_done(&self) -> bool {
        self.refs == 0 && (self.failed || self.fully_acked())
    }

    /// True while the sender still has fresh segments to inject.
    pub(crate) fn has_fresh(&self) -> bool {
        self.next_seq < self.npkts && !self.failed
    }

    /// Data segment `seq` of this flow (table index `fid`) as it leaves
    /// the sender's NIC under leaf `src_leaf`.
    pub(crate) fn segment(&self, fid: FlowId, seq: u32, src_leaf: u16) -> Packet {
        Packet {
            kind: PacketKind::Data { flow: fid, seq },
            src: self.src,
            dst: self.dst,
            size: self.seg_size(seq),
            prio: self.prio,
            tag: self.tag,
            src_leaf,
            ingress: None,
            ce: false,
        }
    }

    /// The retransmission timer guarding `seq` after `attempt` timeouts.
    fn rto(flow: FlowId, seq: u32, attempt: u32) -> EventKind {
        EventKind::Rto { flow, seq, attempt }
    }

    /// Sender: emit the next fresh segment. The caller has checked
    /// [`Self::has_fresh`] and owes the segment its first-attempt timer
    /// ([`Self::log_sent`]).
    pub(crate) fn send_fresh(&mut self, fid: FlowId, src_leaf: u16) -> Packet {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment(fid, seq, src_leaf)
    }

    /// Sender: log `slot` as the first-attempt deadline of the segment
    /// [`Self::send_fresh`] just emitted. Returns the timer to arm at
    /// `slot` when the flow has none armed.
    pub(crate) fn log_sent(&mut self, fid: FlowId, slot: Reserved) -> Option<EventKind> {
        if self.sent.capacity() == 0 {
            self.sent.reserve_exact(self.npkts as usize);
        }
        self.sent.push(slot);
        debug_assert_eq!(self.sent.len() as u32, self.next_seq);
        if self.rto_armed {
            return None;
        }
        (self.rto_armed, self.rto_cursor) = (true, self.next_seq - 1);
        Some(Self::rto(fid, self.rto_cursor, 0))
    }

    /// Sender: the armed first-attempt timer (of segment `seq`) surfaced.
    /// Returns the next logged slot to arm and its timer: the next sent
    /// segment still unacknowledged, or failing that (and always once the
    /// flow has failed) the last one sent. `None` once every logged slot
    /// has surfaced.
    pub(crate) fn next_head(&mut self, fid: FlowId, seq: u32) -> Option<(Reserved, EventKind)> {
        debug_assert!(self.rto_armed && self.rto_cursor == seq);
        let last = self.next_seq - 1;
        let mut next = seq + 1;
        if self.failed {
            next = next.max(last);
        }
        while next < last && self.acked.get(next) {
            next += 1;
        }
        if next > last {
            (self.rto_armed, self.rto_cursor) = (false, self.next_seq);
            self.release_log();
            return None;
        }
        self.rto_cursor = next;
        Some((self.sent[next as usize], Self::rto(fid, next, 0)))
    }

    /// Give the slot log back once nothing can read it again.
    fn release_log(&mut self) {
        if !self.rto_armed && (self.failed || self.fully_acked()) {
            self.sent = Vec::new();
        }
    }

    /// True if a surfaced RTO timer no longer matters: the flow already
    /// gave up or the segment was acknowledged.
    pub(crate) fn rto_is_stale(&self, seq: u32) -> bool {
        self.failed || self.acked.get(seq)
    }

    /// Sender: the timer of `seq` fired after `attempt` retransmissions.
    pub(crate) fn on_rto(
        &mut self,
        fid: FlowId,
        seq: u32,
        attempt: u32,
        max_attempts: u32,
        src_leaf: u16,
    ) -> RtoOutcome {
        if self.failed || self.acked.get(seq) {
            return RtoOutcome::Stale;
        }
        if attempt >= max_attempts {
            self.failed = true;
            self.release_log();
            return RtoOutcome::GaveUp;
        }
        self.retx += 1;
        RtoOutcome::Retransmit(
            self.segment(fid, seq, src_leaf),
            Self::rto(fid, seq, attempt + 1),
        )
    }

    /// Receiver: segment `seq` arrived at `now`. Returns `(newly received,
    /// completed the message)`.
    pub(crate) fn on_data(&mut self, seq: u32, now: SimTime) -> (bool, bool) {
        let newly = self.rcvd.set(seq);
        let completed = newly && self.rcvd.full();
        if completed {
            self.completed_at = Some(now);
        }
        (newly, completed)
    }

    /// Cumulative watermark: lowest sequence not yet received.
    fn cum_rcvd(&self) -> u32 {
        self.rcvd.first_clear().unwrap_or(self.npkts)
    }

    /// Receiver: fold the acknowledgement of `seq` (CE-marked if `ce`) into
    /// the pending accumulator, [`ACK_COALESCE`] sequences per block.
    /// Returns the block to send now, if one filled up, and whether the
    /// caller must schedule the flush timer of a freshly opened accumulator.
    pub(crate) fn ack_data(&mut self, seq: u32, ce: bool) -> (Option<AckBlock>, bool) {
        let cum = self.cum_rcvd();
        match &mut self.pending_ack {
            None => {
                self.pending_ack = Some(AckAccum::new(seq, ce));
                (None, true)
            }
            Some(a) => {
                if !a.add(seq, ce) {
                    // Window overflow: emit the old block, restart under
                    // the timer that is already running.
                    let old = a.block(cum);
                    *a = AckAccum::new(seq, ce);
                    (Some(old), false)
                } else if a.count() >= ACK_COALESCE {
                    (self.pending_ack.take().map(|a| a.block(cum)), false)
                } else {
                    (None, false)
                }
            }
        }
    }

    /// Receiver: the flush timer fired; whatever is pending goes out.
    pub(crate) fn flush_ack(&mut self) -> Option<AckBlock> {
        let cum = self.cum_rcvd();
        self.pending_ack.take().map(|a| a.block(cum))
    }

    /// Sender: apply one ACK. Every *newly* acknowledged segment is, when
    /// `echoes` is given, reported there as `(seq, CE-marked)`; a timer
    /// pending for it is cancelled lazily, when it surfaces. The ACK that
    /// completes the flow's acknowledgement frees its timer-slot log.
    pub(crate) fn on_ack(&mut self, block: AckBlock, mut echoes: Option<&mut Vec<(u32, bool)>>) {
        let was_done = self.fully_acked();
        // Cumulative watermark first (heals any previously lost ACKs)…
        let cum = block.cum.min(self.npkts);
        while self.cum_acked < cum {
            if self.acked.set(self.cum_acked) {
                if let Some(e) = echoes.as_deref_mut() {
                    // Watermark-healed segments carry no CE echo (a lost
                    // ACK loses its marks; clean is the safe reading —
                    // REPS just recycles one more entropy).
                    e.push((self.cum_acked, false));
                }
            }
            self.cum_acked += 1;
        }
        // …then the selective block.
        for seq in block.seqs() {
            if seq < self.npkts && self.acked.set(seq) {
                if let Some(e) = echoes.as_deref_mut() {
                    e.push((seq, block.ce(seq)));
                }
            }
        }
        if !was_done && self.fully_acked() {
            self.release_log();
        }
    }
}

/// The flow table. `FlowId`s are handed out in posting order and never
/// move, but the table holds only the flows from the oldest one something
/// can still touch: each post first retires the prefix of done flows
/// ([`FlowState::is_done`]), so memory follows the live flows rather than
/// the run's length, and a drained run's last flows stay readable until
/// the workload posts again. Every packet, timer and event names a held
/// flow; only a NIC's round may still list a flow that gave up
/// ([`FlowTable::get_mut`]).
#[derive(Default)]
pub(crate) struct FlowTable {
    /// Id of the oldest flow held; every id below it is retired.
    base: FlowId,
    held: VecDeque<FlowState>,
}

impl FlowTable {
    /// Ids of the flows held, oldest first; `end` is the next id posted.
    pub(crate) fn ids(&self) -> Range<FlowId> {
        self.base..self.base + self.held.len() as FlowId
    }

    /// Retire the done prefix, then hold `f` under the next id.
    pub(crate) fn post(&mut self, f: FlowState) -> FlowId {
        while self.held.front().is_some_and(FlowState::is_done) {
            self.held.pop_front();
            self.base += 1;
        }
        self.held.push_back(f);
        self.ids().end - 1
    }

    /// Flow `id`, or `None` once it is retired.
    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut FlowState> {
        self.held.get_mut(id.checked_sub(self.base)? as usize)
    }

    /// Every flow held, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.held.iter()
    }

    /// Temporal-symmetry fast-forward: every flow moves `dflow` ids on,
    /// its state rebased by `shift`.
    pub(crate) fn memo_shift(&mut self, dflow: u32, shift: impl FnMut(&mut FlowState)) {
        self.base += dflow;
        self.held.iter_mut().for_each(shift);
    }
}

/// A retired id indexes out of bounds, so every lookup that must find its
/// flow held panics rather than read another flow.
impl Index<FlowId> for FlowTable {
    type Output = FlowState;
    #[inline]
    fn index(&self, id: FlowId) -> &FlowState {
        &self.held[id.wrapping_sub(self.base) as usize]
    }
}

impl IndexMut<FlowId> for FlowTable {
    #[inline]
    fn index_mut(&mut self, id: FlowId) -> &mut FlowState {
        &mut self.held[id.wrapping_sub(self.base) as usize]
    }
}

/// What [`FlowState::on_rto`] decided.
pub(crate) enum RtoOutcome {
    /// The flow failed or the segment was acknowledged meanwhile.
    Stale,
    /// Out of attempts: the flow is now failed.
    GaveUp,
    /// Send this packet again and arm this timer behind it.
    Retransmit(Packet, EventKind),
}

/// Receiver-side accumulator that coalesces ACKs for up to 64 consecutive
/// sequence numbers into one [`AckBlock`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AckAccum {
    /// Base sequence of the block.
    pub(crate) base: u32,
    /// Bitmap relative to `base`.
    pub(crate) mask: u64,
    /// CE (congestion-experienced) echoes, bit-parallel to `mask`: bit `i`
    /// set ⇒ the segment acknowledged by bit `i` arrived CE-marked.
    pub(crate) ce_mask: u64,
}

impl AckAccum {
    /// Start accumulating with `seq` (whose packet carried CE mark `ce`).
    pub fn new(seq: u32, ce: bool) -> Self {
        AckAccum {
            base: seq,
            mask: 1,
            ce_mask: ce as u64,
        }
    }

    /// Try to add `seq` (CE-marked if `ce`); returns `false` if it falls
    /// outside the 64-wide window (caller should flush and restart).
    pub fn add(&mut self, seq: u32, ce: bool) -> bool {
        if seq < self.base {
            // Out-of-order below base: representable only by restarting.
            return false;
        }
        let off = seq - self.base;
        if off >= 64 {
            return false;
        }
        self.mask |= 1u64 << off;
        if ce {
            self.ce_mask |= 1u64 << off;
        }
        true
    }

    /// Number of sequences accumulated.
    pub(crate) fn count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Convert to the wire representation, stamping the receiver's current
    /// cumulative watermark (`cum` = lowest sequence not yet received).
    pub fn block(&self, cum: u32) -> AckBlock {
        AckBlock {
            cum,
            base: self.base,
            mask: self.mask,
            ce_mask: self.ce_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Agenda;
    use crate::time::SimDuration;

    fn flow(bytes: u64) -> FlowState {
        FlowState::new(
            HostId(0),
            HostId(1),
            bytes,
            None,
            Priority::MEASURED,
            SimTime::ZERO,
        )
    }

    #[test]
    fn segmentation_with_remainder() {
        let f = flow(10_000);
        assert_eq!(f.npkts, 3);
        assert_eq!(f.seg_size(0), 4096);
        assert_eq!(f.seg_size(1), 4096);
        assert_eq!(f.seg_size(2), 10_000 - 8192);
    }

    #[test]
    fn exact_multiple_has_full_last_segment() {
        let f = flow(8192);
        assert_eq!(f.npkts, 2);
        assert_eq!(f.seg_size(1), 4096);
    }

    #[test]
    fn single_small_message() {
        let f = flow(100);
        assert_eq!(f.npkts, 1);
        assert_eq!(f.seg_size(0), 100);
    }

    #[test]
    fn completion_tracking() {
        let mut f = flow(8192);
        assert!(!f.is_complete());
        f.rcvd.set(1);
        f.rcvd.set(0);
        assert!(f.is_complete());
        assert!(!f.fully_acked());
        f.acked.set(0);
        f.acked.set(1);
        assert!(f.fully_acked());
    }

    #[test]
    fn ack_accum_window() {
        let mut a = AckAccum::new(100, false);
        assert!(a.add(100, false));
        assert!(a.add(163, true));
        assert!(!a.add(164, false)); // outside 64-window
        assert!(!a.add(99, false)); // below base
        assert_eq!(a.count(), 2);
        let b = a.block(42);
        let seqs: Vec<u32> = b.seqs().collect();
        assert_eq!(seqs, vec![100, 163]);
        assert_eq!(b.cum, 42);
        // CE echoes ride bit-parallel to the ack mask.
        assert!(!b.ce(100));
        assert!(b.ce(163));
    }

    fn ack(cum: u32, base: u32, mask: u64, ce_mask: u64) -> AckBlock {
        AckBlock {
            cum,
            base,
            mask,
            ce_mask,
        }
    }

    #[test]
    fn ack_applies_the_watermark_then_the_block_and_reports_each_segment_once() {
        let mut f = flow(8 * 4096);
        let mut echoes = Vec::new();
        // Watermark covers 0..3; the block names 2 (again), 5 and 6, the
        // last one CE-marked.
        let block = ack(3, 2, 0b11001, 0b10000);
        f.on_ack(block, Some(&mut echoes));
        assert_eq!(f.cum_acked, 3);
        let acked = |f: &FlowState| (0..8).filter(|&s| f.acked.get(s)).collect::<Vec<_>>();
        assert_eq!(acked(&f), [0, 1, 2, 5, 6]);
        // Watermark-healed segments first and always clean, then the
        // block's own with their marks; 2 is reported once.
        assert_eq!(
            echoes,
            [(0, false), (1, false), (2, false), (5, false), (6, true)]
        );
        // The same ACK again acknowledges nothing new: no echo.
        echoes.clear();
        f.on_ack(block, Some(&mut echoes));
        assert_eq!(acked(&f), [0, 1, 2, 5, 6]);
        assert!(echoes.is_empty());
        assert!(f.rto_is_stale(5), "acknowledged");
        assert!(!f.rto_is_stale(3));
        // A watermark past the end is clamped; feedback off: no echoes.
        f.on_ack(ack(99, 0, 0, 0), None);
        assert!(f.fully_acked());
        assert_eq!(f.cum_acked, 8);
    }

    #[test]
    fn rto_retransmits_until_attempts_run_out() {
        let mut f = flow(3 * 4096 + 10);
        let pkt = f.send_fresh(7, 2);
        let show = |p: &Packet| format!("{p:?}");
        assert_eq!(show(&pkt), show(&f.segment(7, 0, 2)));
        assert_eq!(
            (f.next_seq, pkt.size, f.segment(7, 3, 2).size),
            (1, 4096, 10)
        );
        match f.on_rto(7, 0, 0, 2, 2) {
            RtoOutcome::Retransmit(
                again,
                EventKind::Rto {
                    flow: 7,
                    seq: 0,
                    attempt: 1,
                },
            ) => {
                assert_eq!(show(&again), show(&pkt))
            }
            _ => panic!("first timeout must retransmit"),
        }
        assert_eq!(f.retx, 1);
        f.on_ack(ack(0, 0, 1, 0), None);
        assert!(matches!(f.on_rto(7, 0, 1, 2, 2), RtoOutcome::Stale));
        assert!(matches!(f.on_rto(7, 1, 2, 2, 2), RtoOutcome::GaveUp));
        assert!(f.failed && !f.has_fresh());
        assert!(matches!(f.on_rto(7, 2, 0, 2, 2), RtoOutcome::Stale));
        assert_eq!(f.retx, 1);
    }

    /// Send the next `n` segments, 100 ns apart, their slots taken from a
    /// scratch agenda; which segment each send asked a timer for.
    fn send(f: &mut FlowState, agenda: &mut Agenda, n: u32) -> Vec<Option<u32>> {
        let sends = (0..n).map(|_| {
            let now = SimTime::from_ns(100 * f.next_seq as u64);
            f.send_fresh(7, 2);
            let slot = agenda.reserve_after(now, SimDuration::from_ns(5_000));
            f.log_sent(7, slot).map(|rto| match rto {
                EventKind::Rto {
                    flow: 7,
                    seq,
                    attempt: 0,
                } => seq,
                other => panic!("not a first-attempt timer: {other:?}"),
            })
        });
        sends.collect()
    }

    fn agenda() -> Agenda {
        Agenda::new(std::iter::empty())
    }

    /// The timer of `seq` surfaced: which segment's logged slot is armed
    /// next.
    fn surfaced(f: &mut FlowState, seq: u32) -> Option<u32> {
        let (slot, rto) = f.next_head(7, seq)?;
        let EventKind::Rto {
            flow: 7,
            seq,
            attempt: 0,
        } = rto
        else {
            panic!("not a first-attempt timer: {rto:?}");
        };
        assert_eq!(slot, f.sent[seq as usize], "armed where it was logged");
        Some(seq)
    }

    #[test]
    fn the_head_passes_over_acked_segments_but_never_the_last_one_sent() {
        let (mut f, mut a) = (flow(6 * 4096), agenda());
        assert_eq!(
            send(&mut f, &mut a, 6),
            [Some(0), None, None, None, None, None],
            "one timer armed, five slots only logged"
        );
        let slots: Vec<_> = f.sent.iter().map(|s| s.memo_parts()).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "slots increase");
        f.on_ack(ack(0, 1, 0b1011, 0), None); // 1, 2 and 4
        assert_eq!(surfaced(&mut f, 0), Some(3));
        f.on_ack(ack(0, 3, 0b101, 0), None); // 3 and 5
        assert_eq!(surfaced(&mut f, 3), Some(5), "acknowledged, but the last");
        assert_eq!((f.rto_armed, f.rto_cursor), (true, 5));
        assert_eq!(surfaced(&mut f, 5), None);
        assert_eq!((f.rto_armed, f.rto_cursor), (false, 6));
        // Segment 0 is still in doubt (on a backoff timer of its own).
        assert_eq!(f.sent.capacity(), 6);
        f.on_ack(ack(1, 0, 0, 0), None);
        assert_eq!(f.sent.capacity(), 0, "freed by the last acknowledgement");
    }

    #[test]
    fn a_failed_flow_keeps_only_its_last_slot_armed() {
        let (mut f, mut a) = (flow(5 * 4096), agenda());
        send(&mut f, &mut a, 4);
        assert!(matches!(f.on_rto(7, 0, 1, 1, 2), RtoOutcome::GaveUp));
        assert_eq!(f.sent.capacity(), 5, "a slot is still armed");
        assert_eq!(
            surfaced(&mut f, 0),
            Some(3),
            "1 and 2 are unacked, and moot"
        );
        assert_eq!(surfaced(&mut f, 3), None);
        assert_eq!(f.sent.capacity(), 0, "freed once nothing is armed");
    }

    #[test]
    fn a_flow_with_no_timer_armed_arms_the_next_segment_it_sends() {
        let (mut f, mut a) = (flow(4 * 4096), agenda());
        assert_eq!(send(&mut f, &mut a, 2), [Some(0), None]);
        // Segment 0 times out for real: the head moves on first, then the
        // retransmission takes a backoff timer of its own.
        assert_eq!(surfaced(&mut f, 0), Some(1));
        assert!(matches!(
            f.on_rto(7, 0, 0, 3, 2),
            RtoOutcome::Retransmit(_, EventKind::Rto { attempt: 1, .. })
        ));
        assert_eq!(surfaced(&mut f, 1), None);
        assert_eq!((f.rto_armed, f.rto_cursor), (false, 2));
        assert_eq!(f.sent.capacity(), 4, "two segments are yet to be sent");
        assert_eq!(send(&mut f, &mut a, 2), [Some(2), None]);
        // Giving up with a slot armed keeps the log; its last slot frees it.
        assert!(matches!(f.on_rto(7, 0, 3, 3, 2), RtoOutcome::GaveUp));
        assert_eq!(surfaced(&mut f, 2), Some(3));
        assert_eq!(f.sent.capacity(), 4);
        assert_eq!(surfaced(&mut f, 3), None);
        assert_eq!(f.sent.capacity(), 0);
    }

    #[test]
    fn receiver_coalesces_flushes_and_restarts_under_the_running_timer() {
        let mut f = flow(200 * 4096);
        assert_eq!(f.on_data(1, SimTime::from_ns(5)), (true, false));
        assert_eq!(
            f.on_data(1, SimTime::from_ns(6)),
            (false, false),
            "duplicate"
        );
        // First sequence opens the accumulator and asks for the timer.
        assert_eq!(f.ack_data(1, false), (None, true));
        assert_eq!(f.ack_data(2, true), (None, false));
        for seq in 3..ACK_COALESCE {
            assert_eq!(f.ack_data(seq, false), (None, false));
        }
        // The `ACK_COALESCE`-th fills it: the block goes out with the
        // receive watermark (segment 0 is still missing) and the
        // accumulator closes.
        let full = (1 << ACK_COALESCE) - 1;
        assert_eq!(
            f.ack_data(ACK_COALESCE, false),
            (Some(ack(0, 1, full, 0b010)), false)
        );
        assert_eq!(f.pending_ack, None);
        // Window overflow: the old block goes out and the new one starts
        // at the offending sequence — the timer armed for the old one is
        // still running, so none is asked for.
        assert_eq!(f.ack_data(10, false), (None, true));
        assert_eq!(f.ack_data(100, true), (Some(ack(0, 10, 1, 0)), false));
        let restarted = f.pending_ack.expect("restarted");
        assert_eq!((restarted.base, restarted.ce_mask), (100, 1));
        // A sequence below the base overflows the same way.
        assert_eq!(f.ack_data(99, false), (Some(ack(0, 100, 1, 1)), false));
        assert!(f.pending_ack.is_some_and(|a| a.base == 99));
        // The timer takes whatever is pending, once.
        f.on_data(0, SimTime::from_ns(9));
        assert_eq!(f.flush_ack(), Some(ack(2, 99, 1, 0)));
        assert_eq!(f.flush_ack(), None);
    }

    #[test]
    fn completion_is_stamped_once() {
        let mut f = flow(2 * 4096);
        assert_eq!(f.on_data(1, SimTime::from_ns(3)), (true, false));
        assert_eq!(f.on_data(0, SimTime::from_ns(8)), (true, true));
        assert_eq!(f.on_data(0, SimTime::from_ns(9)), (false, false));
        assert_eq!(f.completed_at, Some(SimTime::from_ns(8)));
    }

    #[test]
    fn fresh_segments_drain() {
        let mut f = flow(3 * 4096);
        assert!(f.has_fresh());
        f.next_seq = 3;
        assert!(!f.has_fresh());
        f.next_seq = 1;
        f.failed = true;
        assert!(!f.has_fresh());
    }
}
