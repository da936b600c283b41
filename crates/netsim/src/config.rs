//! Simulator configuration.

use crate::engine::SchedKind;
use crate::spray::SprayPolicy;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Priority Flow Control parameters (per ingress port, per priority).
///
/// A switch tracks how many buffered bytes arrived via each ingress port at
/// each priority; crossing `xoff_bytes` sends a PAUSE to the upstream
/// transmitter for that priority, and draining below `xon_bytes` sends a
/// RESUME. This is the link-layer losslessness the paper's fabric relies on
/// (§2: "lossless queues with link-layer Priority Flow Control").
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct PfcConfig {
    /// Enable PFC. When disabled the fabric is still drop-free because
    /// queues are unbounded, but no backpressure is exerted.
    pub enabled: bool,
    /// Pause threshold in buffered bytes attributable to one ingress
    /// port+priority.
    pub xoff_bytes: u64,
    /// Resume threshold (must be < `xoff_bytes`).
    pub xon_bytes: u64,
}

impl Default for PfcConfig {
    fn default() -> Self {
        PfcConfig {
            enabled: true,
            xoff_bytes: 256 * 1024,
            xon_bytes: 192 * 1024,
        }
    }
}

/// Maximum data payload per packet, bytes.
pub const MTU: u32 = 4096;
/// Per-packet wire overhead added to serialization (headers/IFG), bytes.
pub(crate) const WIRE_OVERHEAD: u64 = 64;
/// ACK packet payload size, bytes.
pub(crate) const ACK_SIZE: u32 = 64;
/// Retransmission timeout (paper §6: 5 µs).
pub(crate) const RTO: SimDuration = SimDuration::from_us(5);
/// Multiplicative RTO backoff per retransmission attempt.
pub(crate) const RTO_BACKOFF: f64 = 2.0;
/// Backoff exponent cap: the timeout never exceeds
/// `RTO * RTO_BACKOFF^RTO_BACKOFF_CAP`.
pub(crate) const RTO_BACKOFF_CAP: u32 = 8;
/// Coalesce up to this many data packets into one selective ACK (2 to 64,
/// one `AckBlock`).
pub(crate) const ACK_COALESCE: u32 = 8;
/// Flush a partially-filled ACK after this delay.
pub(crate) const ACK_FLUSH_DELAY: SimDuration = SimDuration::from_ns(500);
/// ECN marking threshold, bytes (16 packets of [`MTU`]): a data packet
/// enqueued while the egress queue already holds at least this many bytes
/// is CE-marked, and the mark is echoed in the ACK (`AckBlock::ce_mask`).
/// Only consulted when the spray backend asks for feedback
/// (`SprayPolicy::wants_feedback`); classic policies never mark.
pub(crate) const ECN_THRESHOLD: u64 = 64 * 1024;

// What the transport relies on: a retry never waits less than the first
// try, and a partial ACK is flushed well before the sender's timer fires.
const _: () = {
    assert!(MTU > 0);
    assert!(ACK_COALESCE >= 2 && ACK_COALESCE <= 64);
    assert!(RTO_BACKOFF >= 1.0);
    assert!(ACK_FLUSH_DELAY.as_ns() * 2 <= RTO.as_ns());
};

/// The `sim` keys a spec serialized before the transport settings above
/// became constants, with the one value (as a JSON number) each may hold.
pub const FIXED_KEYS: [(&str, f64); 9] = [
    ("mtu", MTU as f64),
    ("wire_overhead", WIRE_OVERHEAD as f64),
    ("ack_size", ACK_SIZE as f64),
    ("rto", RTO.as_ns() as f64),
    ("rto_backoff", RTO_BACKOFF),
    ("rto_backoff_cap", RTO_BACKOFF_CAP as f64),
    ("ack_coalesce", ACK_COALESCE as f64),
    ("ack_flush_delay", ACK_FLUSH_DELAY.as_ns() as f64),
    ("ecn_threshold", ECN_THRESHOLD as f64),
];

/// The simulator parameters an experiment may vary. Everything else of the
/// paper's evaluation setup (§6: RoCE-like reorder-tolerant transport, no
/// congestion control, retransmission timeout of 5 µs) is a constant above.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct SimConfig {
    /// Give up on a segment after this many retransmissions and mark the
    /// flow failed (guards against infinite loops under total black holes).
    pub rto_max_attempts: u32,
    /// Leaf uplink selection policy / spray backend (default
    /// [`SprayPolicy::Adaptive`]).
    pub spray: SprayPolicy,
    /// Half-life of the [`SprayPolicy::Adaptive`] utilization counters
    /// (lazy exponential decay). Zero disables decay (pure byte-deficit
    /// balancing).
    pub spray_tau: SimDuration,
    /// Priority Flow Control parameters.
    pub pfc: PfcConfig,
    /// Hard safety limit on processed events (guards runaway configs).
    pub max_events: u64,
    /// Inert: kept because `benchmark/` and older specs set it; every value
    /// runs the one binary heap of [`crate::engine`].
    pub sched: Option<SchedKind>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            rto_max_attempts: 50,
            spray: SprayPolicy::Adaptive,
            spray_tau: SimDuration::from_us(100),
            pfc: PfcConfig::default(),
            max_events: u64::MAX,
            sched: None,
        }
    }
}

impl SimConfig {
    /// Validate invariants that would otherwise produce confusing behaviour.
    pub fn validate(&self) -> Result<(), String> {
        if self.pfc.enabled && self.pfc.xon_bytes >= self.pfc.xoff_bytes {
            return Err("PFC xon must be below xoff".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = SimConfig::default();
        c.pfc.xon_bytes = c.pfc.xoff_bytes;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let c = SimConfig::default();
        assert_eq!(c.clone(), c);
    }
}
