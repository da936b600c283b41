//! Packets and the collective tag.
//!
//! A [`Packet`] is a small `Copy` struct — the simulator never materializes
//! payload bytes. Packets in flight live in the engine's delivery pipes
//! (`crate::pipeline`), not inside scheduler events, so `Packet`'s size is
//! off the scheduler's hot path (`EventKind` carries only IDs and fits in
//! 16 bytes). Data packets belong to a transport flow ([`FlowId`]) and may
//! carry a [`CollectiveTag`] identifying the collective job and training
//! iteration they belong to; this is the paper's NCCL `flow_id` tagging
//! (§5.1): it is the only piece of information switches need in order to know
//! which bytes to count, and when one iteration ends and the next begins.

use crate::ids::{HostId, LinkId};
use serde::{Deserialize, Serialize};

/// Transport flow index (dense, allocated by the simulator).
pub type FlowId = u32;

/// Number of priority classes. Strict priority scheduling, 0 is highest.
pub const NPRIO: usize = 3;

/// Priority class of a packet or flow.
///
/// The measured collective runs at [`Priority::MEASURED`], above background
/// traffic — the paper's §5.1 prioritization that isolates the measured
/// collective's spraying pattern from other jobs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// Transport control (ACKs): highest.
    pub const CONTROL: Priority = Priority(0);
    /// The measured collective (§5.1: prioritized above background).
    pub const MEASURED: Priority = Priority(1);
    /// Background / best-effort traffic.
    pub const BACKGROUND: Priority = Priority(2);

    /// Queue index for this priority.
    pub fn idx(self) -> usize {
        debug_assert!((self.0 as usize) < NPRIO);
        self.0 as usize
    }
}

/// Identifies which collective job + training iteration a data packet belongs
/// to. Stamped by the workload (stand-in for the paper's NCCL modification).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub struct CollectiveTag {
    /// Collective job id (sentinel value in the paper's encoding).
    pub job: u32,
    /// Training iteration number.
    pub iter: u32,
}

/// A block of selective acknowledgements plus a cumulative watermark
/// (RoCE-style): every sequence below `cum` is acknowledged, and so is
/// `base + i` for every set bit `i` of `mask`. The cumulative field makes a
/// lost ACK harmless — the next ACK re-covers everything below the
/// watermark — which keeps duplicate retransmissions from polluting the
/// temporal-symmetry counters. Keeping ACKs `Copy` (rather than a
/// `Vec<u32>`) keeps the hot path allocation-free while one ACK packet
/// still covers up to 64 out-of-order packets.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct AckBlock {
    /// All sequences `< cum` are acknowledged (cumulative watermark).
    pub cum: u32,
    /// Lowest selectively-acknowledged sequence number.
    pub base: u32,
    /// Bit `i` set ⇒ sequence `base + i` is acknowledged (bit 0 is `base`).
    pub mask: u64,
    /// Bit `i` set ⇒ the packet acknowledged by bit `i` of `mask` arrived
    /// CE-marked (congestion experienced). Subset of `mask`; echoed back to
    /// the sender for feedback-driven spray backends (`FP_SPRAY`).
    pub ce_mask: u64,
}

impl AckBlock {
    /// Iterate the *selectively* acknowledged sequence numbers (the
    /// cumulative watermark is handled separately by the sender).
    pub fn seqs(self) -> impl Iterator<Item = u32> {
        let AckBlock { base, mask, .. } = self;
        (0..64u32).filter_map(move |i| {
            if mask & (1u64 << i) != 0 {
                Some(base + i)
            } else {
                None
            }
        })
    }

    /// Number of selectively acknowledged sequences.
    pub fn count(self) -> u32 {
        self.mask.count_ones()
    }

    /// True if the selectively acknowledged sequence `seq` arrived
    /// CE-marked.
    pub fn ce(self, seq: u32) -> bool {
        let off = seq.wrapping_sub(self.base);
        off < 64 && self.ce_mask & (1u64 << off) != 0
    }
}

/// What a packet is.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum PacketKind {
    /// A data segment of a flow.
    Data {
        /// Owning flow.
        flow: FlowId,
        /// Segment index within the flow (0-based).
        seq: u32,
    },
    /// A (possibly coalesced) selective acknowledgement for a flow.
    Ack {
        /// Flow being acknowledged.
        flow: FlowId,
        /// Acknowledged sequence block.
        block: AckBlock,
    },
}

/// A packet on the wire. `size` is *payload* bytes; per-packet wire overhead
/// (headers, preamble) is added by the link when computing serialization time,
/// so counters and load models work in clean payload bytes.
#[derive(Copy, Clone, Serialize, Deserialize, Debug)]
pub struct Packet {
    /// Payload type.
    pub kind: PacketKind,
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Payload size in bytes.
    pub size: u32,
    /// Priority class.
    pub prio: Priority,
    /// Collective tag, if this packet belongs to a measured collective.
    pub tag: Option<CollectiveTag>,
    /// Leaf switch index of the source host (stamped at creation; used by the
    /// per-sender localization counters, paper §5.3).
    pub src_leaf: u16,
    /// While buffered inside a switch: the directed link this packet arrived
    /// on (for PFC ingress accounting). `None` for host-originated packets
    /// sitting in the host NIC queue.
    pub ingress: Option<LinkId>,
    /// Congestion-experienced mark (ECN CE): set by a switch when this data
    /// packet is enqueued into a queue past `SimConfig::ecn_threshold`, and
    /// echoed back via [`AckBlock::ce_mask`]. Only feedback-driven spray
    /// backends (`SimConfig::spray.wants_feedback()`) mark packets, so the
    /// classic policies' behaviour is untouched byte-for-byte.
    pub ce: bool,
}

impl Packet {
    /// True if this is a data packet (counts toward FlowPulse port counters).
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_block_iterates_set_bits() {
        let b = AckBlock {
            cum: 10,
            base: 10,
            mask: 0b1011,
            ce_mask: 0b0010,
        };
        let seqs: Vec<u32> = b.seqs().collect();
        assert_eq!(seqs, vec![10, 11, 13]);
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn ack_block_full_mask() {
        let b = AckBlock {
            cum: 0,
            base: 0,
            mask: u64::MAX,
            ce_mask: 0,
        };
        assert_eq!(b.count(), 64);
        assert_eq!(b.seqs().count(), 64);
        assert_eq!(b.seqs().last(), Some(63));
    }

    #[test]
    fn priorities_are_ordered() {
        assert!(Priority::CONTROL < Priority::MEASURED);
        assert!(Priority::MEASURED < Priority::BACKGROUND);
        assert_eq!(Priority::BACKGROUND.idx(), 2);
    }

    #[test]
    fn packet_is_small() {
        // The hot path copies packets by value; keep them cache-friendly.
        // One cache line plus the ECN echo word (`AckBlock::ce_mask` grew
        // the Ack variant by 8 bytes when the spray feedback channel
        // landed).
        assert!(std::mem::size_of::<Packet>() <= 72);
    }
}
