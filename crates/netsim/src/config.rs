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

/// Global simulator parameters. Defaults follow the paper's evaluation setup
/// (§6): RoCE-like reorder-tolerant transport, no congestion control,
/// retransmission timeout of 5 µs, lossless fabric.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct SimConfig {
    /// Maximum data payload per packet, bytes.
    pub mtu: u32,
    /// Per-packet wire overhead added to serialization (headers/IFG), bytes.
    pub wire_overhead: u32,
    /// ACK packet payload size, bytes.
    pub ack_size: u32,
    /// Retransmission timeout (paper §6: 5 µs).
    pub rto: SimDuration,
    /// Multiplicative RTO backoff per retransmission attempt.
    pub rto_backoff: f64,
    /// Backoff exponent cap: the timeout never exceeds
    /// `rto * rto_backoff^rto_backoff_cap`.
    pub rto_backoff_cap: u32,
    /// Give up on a segment after this many retransmissions and mark the
    /// flow failed (guards against infinite loops under total black holes).
    pub rto_max_attempts: u32,
    /// Coalesce up to this many data packets into one selective ACK.
    pub ack_coalesce: u32,
    /// Flush a partially-filled ACK after this delay (must be ≪ RTO).
    pub ack_flush_delay: SimDuration,
    /// Leaf uplink selection policy / spray backend (default
    /// [`SprayPolicy::Adaptive`]).
    pub spray: SprayPolicy,
    /// Half-life of the [`SprayPolicy::Adaptive`] utilization counters
    /// (lazy exponential decay). Zero disables decay (pure byte-deficit
    /// balancing).
    pub spray_tau: SimDuration,
    /// ECN marking threshold, bytes: a data packet enqueued while the
    /// egress queue already holds at least this many bytes is CE-marked,
    /// and the mark is echoed in the ACK (`AckBlock::ce_mask`). Only
    /// consulted when the spray backend asks for feedback
    /// (`SprayPolicy::wants_feedback`); classic policies never mark, so
    /// specs that predate the field (serde default) behave identically.
    #[serde(default = "default_ecn_threshold")]
    pub ecn_threshold: u64,
    /// Priority Flow Control parameters.
    pub pfc: PfcConfig,
    /// Hard safety limit on processed events (guards runaway configs).
    pub max_events: u64,
    /// Inert: kept because `benchmark/` and older specs set it; every value
    /// runs the one binary heap of [`crate::engine`].
    pub sched: Option<SchedKind>,
}

/// Serde default for [`SimConfig::ecn_threshold`]: 16 MTU-sized packets
/// of standing queue (64 KiB at the default 4 KiB MTU).
fn default_ecn_threshold() -> u64 {
    64 * 1024
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mtu: 4096,
            wire_overhead: 64,
            ack_size: 64,
            rto: SimDuration::from_us(5),
            rto_backoff: 2.0,
            rto_backoff_cap: 8,
            rto_max_attempts: 50,
            ack_coalesce: 8,
            ack_flush_delay: SimDuration::from_ns(500),
            spray: SprayPolicy::Adaptive,
            spray_tau: SimDuration::from_us(100),
            ecn_threshold: default_ecn_threshold(),
            pfc: PfcConfig::default(),
            max_events: u64::MAX,
            sched: None,
        }
    }
}

impl SimConfig {
    /// Validate invariants that would otherwise produce confusing behaviour.
    pub fn validate(&self) -> Result<(), String> {
        if self.mtu == 0 {
            return Err("mtu must be positive".into());
        }
        if self.ack_coalesce == 0 || self.ack_coalesce > 64 {
            return Err("ack_coalesce must be in 1..=64 (one AckBlock)".into());
        }
        if self.pfc.enabled && self.pfc.xon_bytes >= self.pfc.xoff_bytes {
            return Err("PFC xon must be below xoff".into());
        }
        if self.rto_backoff < 1.0 {
            return Err("rto_backoff must be >= 1.0".into());
        }
        if self.ack_flush_delay.as_ns() * 2 > self.rto.as_ns() {
            return Err("ack_flush_delay must be well below the RTO".into());
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
    // Some probes set a field from the default's own values, so the
    // mutate-one-field pattern is clearer than struct-update syntax here.
    #[allow(clippy::field_reassign_with_default)]
    fn rejects_bad_configs() {
        let mut c = SimConfig::default();
        c.mtu = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.ack_coalesce = 65;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.pfc.xon_bytes = c.pfc.xoff_bytes;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.rto_backoff = 0.5;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.ack_flush_delay = c.rto;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let c = SimConfig::default();
        assert_eq!(c.clone(), c);
    }
}
