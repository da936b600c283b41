//! FlowPulse reproduction suite root crate.
//!
//! The real code lives in the workspace member crates under `crates/`:
//! `fp-netsim` (the packet-level simulator), `fp-collectives` (collective
//! schedules and the iteration runner), `flowpulse` (the paper's models,
//! detector, localizer and the trial harness), `fp-ctrl` (closed-loop
//! remediation), `fp-monitord` (the streaming monitor service),
//! `fp-telemetry` (run recorders and manifests) and `fp-bench` (one binary
//! per experiment). This root package hosts the runnable examples
//! (`examples/`, each asserting its own verdict) and cross-crate
//! integration tests (`tests/`). Re-exports below make `flowpulse_repro::prelude` a one-stop
//! import for quick experiments.

/// Everything, in one import.
pub mod prelude {
    pub use flowpulse::prelude::*;
    pub use fp_collectives::prelude::*;
    pub use fp_netsim::prelude::*;
}
