//! # fp-netsim — packet-level fat-tree simulator for APS fabrics
//!
//! This crate is the network substrate for the FlowPulse reproduction
//! (HotNets '25, "FlowPulse: Catching Network Failures in ML Clusters").
//! The paper evaluates entirely in ns-3; this is the equivalent simulator
//! built from scratch in Rust, modelling the fabric the paper describes:
//!
//! * **Topology** — non-blocking 2-level fat tree ([`topology`]), default
//!   32 leaves × 16 spines with one host per leaf, parallel leaf–spine
//!   links as independent "virtual spines".
//! * **Load balancing** — adaptive per-packet spraying ([`spray`]): every
//!   upstream packet independently picks among all uplinks that can reach
//!   the destination leaf; downstream paths are deterministic.
//! * **Link layer** — lossless Ethernet with Priority Flow Control
//!   (XOFF/XON backpressure per ingress port and priority) and strict
//!   priority scheduling, so a measured collective can be isolated from
//!   background traffic (paper §5.1).
//! * **Transport** — RoCE-like, reorder-tolerant, no congestion control,
//!   per-segment retransmission timeout of 5 µs ([`transport`]).
//! * **Faults** — known (admin-down, removed from routing) versus silent
//!   (random drop / black-hole, invisible to routing) ([`fault`]), with a
//!   time-based injection schedule.
//! * **Counters** — per-leaf, per-spine-ingress-port byte counts keyed by
//!   collective tag, with per-source-leaf breakdown ([`counters`]) — the
//!   in-switch state FlowPulse reads.
//!
//! The simulator is a deterministic discrete-event engine: integer
//! nanosecond timestamps, FIFO tie-breaking, and purpose-split RNG streams
//! derived from one seed, so every run is exactly reproducible. Its layers,
//! from the clock outward:
//!
//! * [`engine`] / [`wheel`] — the two future-event schedulers (timing wheel
//!   by default, binary heap as the reference) behind one trait;
//! * [`pipeline`] — the agenda: where every pending event waits (scheduler,
//!   delay-class pipe or delivery pipe) and which is next;
//! * [`egress`], `switch`, [`transport`] — the state a handler mutates: one
//!   transmitter per link with its PFC budget, per-switch routing tables
//!   and the spray stage, per-flow sender/receiver bookkeeping;
//! * [`sim`] — the event loop and the handler of each event kind, with the
//!   statistics, trace, recorder and application callbacks; [`sim::memo`]
//!   fast-forwards steady-state iterations.
//!
//! ## Quick example
//!
//! ```
//! use fp_netsim::prelude::*;
//!
//! let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 2, ..Default::default() });
//! let mut sim = Simulator::new(topo, SimConfig::default(), 42);
//! sim.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
//! let summary = sim.run();
//! assert!(sim.all_flows_complete());
//! assert_eq!(summary.reason, fp_netsim::sim::RunReason::Drained);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod bitset;
pub mod config;
pub mod control;
pub mod counters;
pub mod egress;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod packet;
pub mod pipeline;
pub mod rng;
#[cfg(test)]
mod routing_tests;
pub mod sim;
pub mod spray;
pub mod stats;
mod switch;
pub mod time;
pub mod topology;
pub mod trace;
pub mod transport;
pub mod units;
pub mod wheel;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::app::{Application, MultiApp, NullApp};
    pub use crate::config::{PfcConfig, SimConfig};
    pub use crate::control::{AppliedControl, ControlAction, ControlEvent, ControlVerb};
    pub use crate::counters::{CounterStore, IterCounters};
    pub use crate::engine::{SchedKind, SchedStats};
    pub use crate::fault::{FaultAction, FaultEvent, FaultKind};
    pub use crate::ids::{HostId, LinkId, NodeId, SwitchId};
    pub use crate::packet::{CollectiveTag, FlowId, Packet, Priority};
    pub use crate::sim::memo::{MemoCounters, MemoReplay};
    pub use crate::sim::{IterSpanRecord, RunReason, RunSummary, Simulator};
    pub use crate::spray::SprayPolicy;
    pub use crate::stats::{DropCause, Stats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{FatTreeSpec, LinkClass, LinkSpec, Topology};
    pub use crate::units::Bandwidth;
}
