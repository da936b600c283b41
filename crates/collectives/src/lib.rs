//! # fp-collectives — collective communication workloads for fp-netsim
//!
//! ML training traffic for the FlowPulse reproduction: collective
//! *schedules* (who sends what to whom, with pipeline dependencies), the
//! iteration *runner* that replays a schedule every training iteration with
//! collective tags and optional jitter, and a *background traffic*
//! generator for multi-tenant scenarios.
//!
//! The paper's workload model (§2): data-parallel training runs an
//! identical reduction collective each iteration — typically Ring-AllReduce
//! — making the traffic matrix perfectly repetitive. That repetition is
//! what FlowPulse's temporal symmetry rests on.
//!
//! ```
//! use fp_collectives::prelude::*;
//! use fp_netsim::prelude::*;
//!
//! let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 2, ..Default::default() });
//! let hosts: Vec<HostId> = (0..4).map(HostId).collect();
//! let sched = ring_allreduce(&hosts, 64 * 1024);
//! let mut sim = Simulator::new(topo, SimConfig::default(), 7);
//! sim.set_app(Box::new(CollectiveRunner::new(sched, RunnerConfig::default())));
//! sim.run();
//! assert!(sim.counters.get(1, 0).is_some()); // iteration 0 measured
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alltoall;
pub mod background;
pub mod demand;
pub mod halving;
pub mod jitter;
pub mod ring;
pub mod runner;
pub mod schedule;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::alltoall::{
        alltoall_from_demand, alltoall_uniform, demand_of_subset, single_nonlocal_subset,
    };
    pub use crate::background::{BackgroundConfig, BackgroundTraffic};
    pub use crate::demand::DemandMatrix;
    pub use crate::halving::halving_doubling_allreduce;
    pub use crate::jitter::JitterModel;
    pub use crate::ring::{ring_allgather, ring_allreduce, ring_reduce_scatter};
    pub use crate::runner::{CollectiveRunner, MeasuredSubset, RunnerConfig};
    pub use crate::schedule::{Schedule, Transfer};
}
