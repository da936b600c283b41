//! RoCE-like reorder-tolerant transport (paper §6).
//!
//! "We implement a simple transport tolerant to reordering, mimicking the
//! current RoCE NICs, without congestion control. The network is lossless,
//! but packet losses due to injected faults are detected via a
//! retransmission timeout of 5 µs."
//!
//! Each message is one *flow*: a fixed number of MTU-sized segments. The
//! sender blasts segments at line rate (no congestion window — the fabric is
//! lossless and non-blocking), arms a per-segment retransmission timer, and
//! retransmits on timeout with exponential backoff. The receiver accepts
//! segments in any order, deduplicates, and returns coalesced selective
//! ACKs. Message completion fires when the receiver holds every segment.

use crate::bitset::BitSet;
use crate::ids::HostId;
use crate::packet::{AckBlock, CollectiveTag, Priority};
use crate::time::SimTime;

/// Sender+receiver state for one message flow. The simulator holds the
/// global table; in a real deployment the two halves live on different NICs.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Total payload bytes.
    pub bytes: u64,
    /// Segment payload size (last segment may be smaller).
    pub mtu: u32,
    /// Number of segments.
    pub npkts: u32,
    /// Collective tag stamped on every data packet.
    pub tag: Option<CollectiveTag>,
    /// Priority class for data packets.
    pub prio: Priority,

    // --- sender side ---
    /// Next fresh (never-transmitted) segment.
    pub next_seq: u32,
    /// Segments acknowledged so far.
    pub acked: BitSet,
    /// True once the sender has given up on some segment.
    pub failed: bool,
    /// Retransmissions issued for this flow (loss signal for probing
    /// baselines).
    pub retx: u32,
    /// Highest cumulative-ACK watermark processed (sender side; avoids
    /// re-scanning the bitmap on every cumulative ACK).
    pub cum_acked: u32,
    /// Per-segment retransmission-timer generation. Armed RTO events carry
    /// the generation current at arming time; acknowledging a segment bumps
    /// its generation, lazily cancelling any timer still in the heap
    /// (checked at pop time, see [`crate::engine::EventKind::Rto`]).
    pub rto_gen: Vec<u32>,

    // --- receiver side ---
    /// Segments received so far.
    pub rcvd: BitSet,
    /// Pending coalesced-ACK accumulator.
    pub pending_ack: Option<AckAccum>,
    /// Set when every segment has been received.
    pub completed_at: Option<SimTime>,
    /// When the flow was posted.
    pub created_at: SimTime,
}

impl FlowState {
    /// Create a flow of `bytes` split into `mtu`-sized segments.
    pub fn new(
        src: HostId,
        dst: HostId,
        bytes: u64,
        mtu: u32,
        tag: Option<CollectiveTag>,
        prio: Priority,
        now: SimTime,
    ) -> Self {
        assert!(bytes > 0, "zero-byte flow");
        assert!(mtu > 0);
        let npkts = bytes.div_ceil(mtu as u64) as u32;
        FlowState {
            src,
            dst,
            bytes,
            mtu,
            npkts,
            tag,
            prio,
            next_seq: 0,
            acked: BitSet::new(npkts),
            failed: false,
            retx: 0,
            cum_acked: 0,
            rto_gen: vec![0; npkts as usize],
            rcvd: BitSet::new(npkts),
            pending_ack: None,
            completed_at: None,
            created_at: now,
        }
    }

    /// Payload size of segment `seq`.
    pub fn seg_size(&self, seq: u32) -> u32 {
        debug_assert!(seq < self.npkts);
        if seq + 1 == self.npkts {
            let rem = self.bytes - (self.npkts as u64 - 1) * self.mtu as u64;
            rem as u32
        } else {
            self.mtu
        }
    }

    /// True once the receiver holds all segments.
    pub fn is_complete(&self) -> bool {
        self.rcvd.full()
    }

    /// True once every segment is acknowledged at the sender.
    pub fn fully_acked(&self) -> bool {
        self.acked.full()
    }

    /// True while the sender still has fresh segments to inject.
    pub fn has_fresh(&self) -> bool {
        self.next_seq < self.npkts && !self.failed
    }
}

/// Receiver-side accumulator that coalesces ACKs for up to 64 consecutive
/// sequence numbers into one [`AckBlock`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AckAccum {
    /// Base sequence of the block.
    pub base: u32,
    /// Bitmap relative to `base`.
    pub mask: u64,
    /// CE (congestion-experienced) echoes, bit-parallel to `mask`: bit `i`
    /// set ⇒ the segment acknowledged by bit `i` arrived CE-marked.
    pub ce_mask: u64,
    /// A flush timer is already scheduled.
    pub flush_scheduled: bool,
}

impl AckAccum {
    /// Start accumulating with `seq` (whose packet carried CE mark `ce`).
    pub fn new(seq: u32, ce: bool) -> Self {
        AckAccum {
            base: seq,
            mask: 1,
            ce_mask: ce as u64,
            flush_scheduled: false,
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
    pub fn count(&self) -> u32 {
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

    fn flow(bytes: u64, mtu: u32) -> FlowState {
        FlowState::new(
            HostId(0),
            HostId(1),
            bytes,
            mtu,
            None,
            Priority::MEASURED,
            SimTime::ZERO,
        )
    }

    #[test]
    fn segmentation_with_remainder() {
        let f = flow(10_000, 4096);
        assert_eq!(f.npkts, 3);
        assert_eq!(f.seg_size(0), 4096);
        assert_eq!(f.seg_size(1), 4096);
        assert_eq!(f.seg_size(2), 10_000 - 8192);
    }

    #[test]
    fn exact_multiple_has_full_last_segment() {
        let f = flow(8192, 4096);
        assert_eq!(f.npkts, 2);
        assert_eq!(f.seg_size(1), 4096);
    }

    #[test]
    fn single_small_message() {
        let f = flow(100, 4096);
        assert_eq!(f.npkts, 1);
        assert_eq!(f.seg_size(0), 100);
    }

    #[test]
    fn completion_tracking() {
        let mut f = flow(8192, 4096);
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

    #[test]
    fn fresh_segments_drain() {
        let mut f = flow(3 * 4096, 4096);
        assert!(f.has_fresh());
        f.next_seq = 3;
        assert!(!f.has_fresh());
        f.next_seq = 1;
        f.failed = true;
        assert!(!f.has_fresh());
    }
}
