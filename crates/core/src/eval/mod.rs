//! The evaluation harness: one trial pipeline for every experiment.
//!
//! A trial is three stages, one file each, and data flows one way:
//!
//! 1. **spec** — a [`TrialSpec`] describes a complete scenario: fabric
//!    shape, collective, pre-existing (known) faults, an optionally
//!    injected silent fault, the prediction model and detection threshold.
//! 2. **run** — [`run_trial`] (and its two siblings that let a telemetry
//!    recorder or an online controller ride along) builds the fabric,
//!    predicts, runs the engine and copies out what it left behind.
//! 3. **score** — a pure function of the spec and that raw run: monitor
//!    scan, ground-truth join, localization verdict, goodput, controller
//!    outcome — the [`TrialResult`].
//!
//! The `fp-bench` binaries are thin sweeps over `TrialSpec`s; FPR/FNR/ROC
//! and goodput-phase aggregation live in the score stage so tests can
//! exercise them too.

mod run;
mod score;
mod spec;

pub use run::{
    memo_ineligibility, monitord_feed, run_trial, run_trial_ctl, run_trial_with, TrialController,
};
pub use score::{
    goodput_phases, roc_curve, split_devs, CtrlAction, CtrlOutcome, CtrlPhase, CtrlSummary,
    GoodputPhases, Rates, RocPoint, TrialResult,
};
pub use spec::{build_schedule, CollectiveKind, FaultSpec, InjectedFault, ModelKind, TrialSpec};
