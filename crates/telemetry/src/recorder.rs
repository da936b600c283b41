//! The [`Recorder`] trait: the engine-facing telemetry surface.
//!
//! Every hook has an empty default body, so a recorder implements only what
//! it cares about and the engine can drive any recorder without knowing its
//! concrete type. The simulator holds an `Option<Box<dyn Recorder>>` and
//! skips all hook call sites when none is attached — the disabled path adds
//! one branch on an already-loaded `Option`, nothing else.

use crate::events::Event;

/// Static description of one directed link, handed to the recorder once at
/// attach time.
#[derive(Clone, PartialEq, Debug)]
pub struct LinkMeta {
    /// Dense link id (matches the simulator's `LinkId`).
    pub id: u32,
    /// Human-readable endpoint label, e.g. `"Host(0)->Switch(2)"`.
    pub name: String,
    /// Line rate in bytes per second (for utilization math).
    pub bytes_per_sec: u64,
}

/// One periodic observation of a link's egress state.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LinkSample {
    /// Queued plus in-flight wire bytes on the egress queue.
    pub queued_bytes: u64,
    /// Packets waiting in the egress priority queues.
    pub queued_pkts: u32,
    /// Packets on the wire: serialized, still propagating toward the far
    /// end (the link's delivery-pipeline depth).
    pub inflight_pkts: u32,
    /// Cumulative wire bytes fully serialized since the run started
    /// (recorders diff successive samples to get utilization).
    pub txed_bytes: u64,
    /// PFC pause state as a bitmask, bit `p` = priority `p` paused.
    pub paused_mask: u8,
}

/// Telemetry sink driven by the simulator.
///
/// Times are simulated nanoseconds; ids are the simulator's dense link ids.
/// All hooks default to no-ops.
pub trait Recorder {
    /// Sampling period in simulated nanoseconds; `0` disables the periodic
    /// sampler (no `Sample` events are ever scheduled).
    fn sample_interval_ns(&self) -> u64 {
        0
    }

    /// Topology description, delivered once when the recorder is attached.
    fn on_topology(&mut self, _links: &[LinkMeta]) {}

    /// One link observed by the periodic sampler.
    fn on_link_sample(&mut self, _t_ns: u64, _link: u32, _sample: &LinkSample) {}

    /// A structured event (drops, faults, PFC transitions, alarms, ...).
    fn on_event(&mut self, _t_ns: u64, _event: &Event) {}

    /// A flow completed; `fct_ns` is its completion time (created→received).
    fn on_fct_ns(&mut self, _fct_ns: u64) {}

    /// A segment was retransmitted on RTO attempt number `attempt`
    /// (0 = first retransmission of that segment).
    fn on_rto_attempt(&mut self, _attempt: u32) {}

    /// A PFC pause interval ended on some link at priority `prio` after
    /// `pause_ns` nanoseconds.
    fn on_pfc_pause_ns(&mut self, _prio: u8, _pause_ns: u64) {}

    /// A collective iteration span completed on job `job`.
    fn on_iteration(&mut self, _job: u32, _iter: u32, _start_ns: u64, _end_ns: u64) {}

    /// Flush buffered telemetry to its destination (called once, after the
    /// run and post-run export are done).
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every hook left at its default.
    struct Inert;

    impl Recorder for Inert {}

    #[test]
    fn default_hooks_do_nothing() {
        let mut r = Inert;
        assert_eq!(r.sample_interval_ns(), 0);
        r.on_topology(&[]);
        r.on_link_sample(
            1,
            0,
            &LinkSample {
                queued_bytes: 0,
                queued_pkts: 0,
                inflight_pkts: 0,
                txed_bytes: 0,
                paused_mask: 0,
            },
        );
        r.on_fct_ns(10);
        r.on_rto_attempt(0);
        r.on_pfc_pause_ns(1, 100);
        r.on_iteration(0, 0, 0, 1);
        r.finish().unwrap();
    }
}
