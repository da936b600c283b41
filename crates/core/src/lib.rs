//! # flowpulse — silent-fault detection via temporal symmetry
//!
//! Rust reproduction of **"FlowPulse: Catching Network Failures in ML
//! Clusters"** (HotNets '25). FlowPulse detects *silent* network faults —
//! random drops, black holes, corruption-induced losses that never show up
//! in switch telemetry — in fabrics that use adaptive per-packet spraying
//! (APS), by exploiting **temporal symmetry**: an ML training job runs an
//! identical collective every iteration, so the byte volume crossing each
//! spine→leaf link repeats exactly, iteration after iteration, even in the
//! presence of *known* faults. A new silent fault perturbs that repetition
//! on the links it touches.
//!
//! ## Pipeline
//!
//! 1. **Measure** ([`fp_netsim::counters`]) — every leaf switch counts
//!    tagged collective bytes per spine-ingress port per iteration, with a
//!    per-source-leaf breakdown (§5.1).
//! 2. **Predict** ([`analytical`], `simulated`, `learned`) — expected
//!    per-port volume from the demand matrix and known faults (§5.2).
//! 3. **Detect** ([`detector`], [`monitor`]) — per-leaf threshold
//!    comparison at iteration boundaries, no coordination (§5.3).
//! 4. **Localize** ([`localizer`]) — per-sender counters distinguish local
//!    from remote link faults (Fig. 4); for single-sender ring workloads,
//!    cross-leaf alarm correlation pins the cable.
//!
//! [`baselines`] implements the spatial-symmetry check and a
//! Pingmesh-style prober for comparison; [`eval`] is the end-to-end trial
//! harness behind every figure reproduction in `fp-bench` — one pipeline,
//! spec → run → score.
//!
//! ## Quick example
//!
//! ```
//! use flowpulse::prelude::*;
//! use fp_collectives::jitter::JitterModel;
//!
//! // Paper-style scenario, scaled down: inject a 3% silent drop at
//! // iteration 1 and watch FlowPulse catch and localize it.
//! let spec = TrialSpec {
//!     leaves: 8,
//!     spines: 4,
//!     bytes_per_node: 4 * 1024 * 1024,
//!     iterations: 3,
//!     jitter: JitterModel::None,
//!     fault: Some(FaultSpec {
//!         kind: InjectedFault::Drop { rate: 0.03 },
//!         at_iter: 1,
//!         heal_at_iter: None,
//!         bidirectional: false,
//!     }),
//!     ..Default::default()
//! };
//! let result = run_trial(&spec);
//! assert!(result.detected && !result.false_alarm);
//! assert_eq!(result.localized_correctly, Some(true));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analytical;
pub mod baselines;
pub mod detector;
pub mod eval;
pub(crate) mod learned;
pub mod localizer;
pub mod model;
pub mod monitor;
pub(crate) mod simulated;
pub mod snapshot;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::analytical::{AnalyticalModel, Prediction};
    pub use crate::baselines::{run_probe_mesh, ProbeReport};
    pub use crate::detector::{Detector, Deviation};
    pub use crate::eval::{
        goodput_phases, roc_curve, run_trial, run_trial_ctl, run_trial_with, CollectiveKind,
        CtrlAction, CtrlOutcome, CtrlPhase, FaultSpec, GoodputPhases, InjectedFault, ModelKind,
        Rates, RawRun, RocPoint, Scenario, TrialController, TrialResult, TrialSpec,
    };
    pub use crate::learned::{LearnedModel, LearnedUpdate};
    pub use crate::localizer::{Localizer, PortVerdict};
    pub use crate::model::{PortLoads, PortSrcLoads};
    pub use crate::monitor::{Alarm, Monitor};
    pub use crate::simulated::SimulationModel;
    pub use crate::snapshot::CounterSnapshot;
}
