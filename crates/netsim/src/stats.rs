//! Run-wide statistics and drop accounting.

use crate::packet::NPRIO;
use serde::{Deserialize, Serialize};

/// Why a packet was dropped.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum DropCause {
    /// Sampled by a silent fault on the wire (the FlowPulse signal).
    SilentFault,
    /// Link was administratively downed while packets were queued on it.
    AdminDown,
    /// No valid route (all candidate uplinks admin-down).
    NoRoute,
}

impl DropCause {
    /// Number of causes (array sizing).
    const COUNT: usize = 3;

    /// Dense index.
    pub(crate) fn idx(self) -> usize {
        match self {
            DropCause::SilentFault => 0,
            DropCause::AdminDown => 1,
            DropCause::NoRoute => 2,
        }
    }
}

/// Aggregate counters for one simulation run.
#[derive(Clone, Default, Serialize, Deserialize, Debug)]
pub struct Stats {
    /// Events processed by the engine.
    pub events: u64,
    /// Of `events`, how many were head-of-pipeline deliveries dispatched
    /// straight from a link's in-flight FIFO (never pushed through the
    /// scheduler). `events - pipeline_deliveries + rto_stale_skips` is the
    /// number of pops a drained, recorder-free run performed off the
    /// scheduler and the delay-class pipes together (`SchedStats::pops +
    /// SchedStats::class_pops`).
    pub pipeline_deliveries: u64,
    /// Packets that completed serialization on some link.
    pub pkts_txed: u64,
    /// Data packets injected by hosts (first transmissions only).
    pub data_pkts_sent: u64,
    /// ACK packets injected.
    pub acks_sent: u64,
    /// Retransmitted data packets enqueued.
    pub retransmits: u64,
    /// RTO timer events discarded by lazy cancellation (segment already
    /// acknowledged or flow failed when the timer surfaced). Not included
    /// in `events`. A flow keeps one first-attempt timer armed at a time
    /// (`crate::transport`), so this counts the few that surfaced, not one
    /// per acknowledged segment.
    pub rto_stale_skips: u64,
    /// Data packets delivered to their destination host (including dups).
    pub data_pkts_delivered: u64,
    /// Duplicate data packets delivered (already-received seq).
    pub dup_pkts_delivered: u64,
    /// Payload bytes delivered to destination hosts (unique segments).
    pub bytes_delivered: u64,
    /// Flows whose receiver saw every segment.
    pub flows_completed: u64,
    /// Flows abandoned after `rto_max_attempts` on some segment.
    pub flows_failed: u64,
    /// Drops by cause.
    pub(crate) drops: [u64; DropCause::COUNT],
    /// PFC pause frames sent.
    pub pfc_pauses: u64,
    /// PFC resume frames sent.
    pub pfc_resumes: u64,
    /// Nanoseconds spent paused per priority, summed over all links.
    /// Counts completed pause intervals only — a pause still open when the
    /// run ends contributes nothing.
    pub(crate) pfc_pause_ns: [u64; NPRIO],
    /// High-water mark of any single egress queue, in bytes.
    pub max_queue_bytes: u64,
    /// Spray decisions where entropy-recycle remediation
    /// (`ControlVerb::RecycleEntropy`) removed at least one quarantined
    /// uplink from the candidate set.
    pub(crate) spray_avoided_picks: u64,
}

impl Stats {
    /// Record a drop.
    pub(crate) fn drop(&mut self, cause: DropCause) {
        self.drops[cause.idx()] += 1;
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Drops attributed to silent faults.
    pub fn silent_drops(&self) -> u64 {
        self.drops[DropCause::SilentFault.idx()]
    }

    /// Fold another trial's counters into this one (totals over the
    /// trials of a campaign or of a benchmark unit). Every field is a sum
    /// except `max_queue_bytes`, which is a high-water mark.
    pub fn merge(&mut self, other: &Stats) {
        self.events += other.events;
        self.pipeline_deliveries += other.pipeline_deliveries;
        self.pkts_txed += other.pkts_txed;
        self.data_pkts_sent += other.data_pkts_sent;
        self.acks_sent += other.acks_sent;
        self.retransmits += other.retransmits;
        self.rto_stale_skips += other.rto_stale_skips;
        self.data_pkts_delivered += other.data_pkts_delivered;
        self.dup_pkts_delivered += other.dup_pkts_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.flows_completed += other.flows_completed;
        self.flows_failed += other.flows_failed;
        for (a, b) in self.drops.iter_mut().zip(&other.drops) {
            *a += b;
        }
        self.pfc_pauses += other.pfc_pauses;
        self.pfc_resumes += other.pfc_resumes;
        for (a, b) in self.pfc_pause_ns.iter_mut().zip(&other.pfc_pause_ns) {
            *a += b;
        }
        self.max_queue_bytes = self.max_queue_bytes.max(other.max_queue_bytes);
        self.spray_avoided_picks += other.spray_avoided_picks;
    }

    /// Counter growth from `prev` to `self` — one memo window's worth of
    /// statistics (see `crate::sim::memo`). `max_queue_bytes` is a
    /// high-water mark, not a counter: the delta carries zero and replay
    /// leaves the mark alone (a matched steady-state window sets no new
    /// one).
    pub(crate) fn memo_diff(&self, prev: &Stats) -> Stats {
        Stats {
            events: self.events - prev.events,
            pipeline_deliveries: self.pipeline_deliveries - prev.pipeline_deliveries,
            pkts_txed: self.pkts_txed - prev.pkts_txed,
            data_pkts_sent: self.data_pkts_sent - prev.data_pkts_sent,
            acks_sent: self.acks_sent - prev.acks_sent,
            retransmits: self.retransmits - prev.retransmits,
            rto_stale_skips: self.rto_stale_skips - prev.rto_stale_skips,
            data_pkts_delivered: self.data_pkts_delivered - prev.data_pkts_delivered,
            dup_pkts_delivered: self.dup_pkts_delivered - prev.dup_pkts_delivered,
            bytes_delivered: self.bytes_delivered - prev.bytes_delivered,
            flows_completed: self.flows_completed - prev.flows_completed,
            flows_failed: self.flows_failed - prev.flows_failed,
            drops: std::array::from_fn(|i| self.drops[i] - prev.drops[i]),
            pfc_pauses: self.pfc_pauses - prev.pfc_pauses,
            pfc_resumes: self.pfc_resumes - prev.pfc_resumes,
            pfc_pause_ns: std::array::from_fn(|i| self.pfc_pause_ns[i] - prev.pfc_pause_ns[i]),
            max_queue_bytes: 0,
            spray_avoided_picks: self.spray_avoided_picks - prev.spray_avoided_picks,
        }
    }

    /// Replay `reps` repetitions of one recorded window delta.
    pub(crate) fn memo_apply(&mut self, d: &Stats, reps: u64) {
        self.events += d.events * reps;
        self.pipeline_deliveries += d.pipeline_deliveries * reps;
        self.pkts_txed += d.pkts_txed * reps;
        self.data_pkts_sent += d.data_pkts_sent * reps;
        self.acks_sent += d.acks_sent * reps;
        self.retransmits += d.retransmits * reps;
        self.rto_stale_skips += d.rto_stale_skips * reps;
        self.data_pkts_delivered += d.data_pkts_delivered * reps;
        self.dup_pkts_delivered += d.dup_pkts_delivered * reps;
        self.bytes_delivered += d.bytes_delivered * reps;
        self.flows_completed += d.flows_completed * reps;
        self.flows_failed += d.flows_failed * reps;
        for (a, b) in self.drops.iter_mut().zip(&d.drops) {
            *a += b * reps;
        }
        self.pfc_pauses += d.pfc_pauses * reps;
        self.pfc_resumes += d.pfc_resumes * reps;
        for (a, b) in self.pfc_pause_ns.iter_mut().zip(&d.pfc_pause_ns) {
            *a += b * reps;
        }
        self.spray_avoided_picks += d.spray_avoided_picks * reps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_accounting() {
        let mut s = Stats::default();
        s.drop(DropCause::SilentFault);
        s.drop(DropCause::SilentFault);
        s.drop(DropCause::NoRoute);
        assert_eq!(s.silent_drops(), 2);
        assert_eq!(s.total_drops(), 3);
        assert_eq!(s.drops[DropCause::AdminDown.idx()], 0);
    }

    #[test]
    fn merge_sums_and_high_waters() {
        let mut a = Stats {
            events: 10,
            max_queue_bytes: 100,
            ..Default::default()
        };
        a.drop(DropCause::SilentFault);
        a.pfc_pause_ns[0] = 5;
        let mut b = Stats {
            events: 7,
            max_queue_bytes: 50,
            ..Default::default()
        };
        b.drop(DropCause::NoRoute);
        b.pfc_pause_ns[0] = 3;
        a.merge(&b);
        assert_eq!(a.events, 17);
        assert_eq!(a.max_queue_bytes, 100);
        assert_eq!(a.total_drops(), 2);
        assert_eq!(a.pfc_pause_ns[0], 8);
    }

    #[test]
    fn cause_indices_are_dense_and_distinct() {
        let mut seen = [false; DropCause::COUNT];
        for c in [
            DropCause::SilentFault,
            DropCause::AdminDown,
            DropCause::NoRoute,
        ] {
            assert!(!seen[c.idx()]);
            seen[c.idx()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
