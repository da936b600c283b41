//! Run telemetry for the FlowPulse simulator.
//!
//! FlowPulse's premise is that end-of-run scalars miss the interesting
//! dynamics; this crate gives the simulator the same courtesy. It defines a
//! [`Recorder`] trait the engine drives at well-known points — periodic
//! per-link samples, flow completions, RTO attempts, PFC pauses, structured
//! exceptional events, and collective iteration spans — plus two
//! implementations:
//!
//! * [`NullRecorder`]: every hook is an empty default; the engine only calls
//!   hooks when a recorder is attached, so the disabled path costs nothing
//!   and is byte-identical to a build without telemetry.
//! * [`RunRecorder`]: buffers everything in memory and, on
//!   [`Recorder::finish`], writes a self-describing artifact directory:
//!
//!   | file              | contents                                          |
//!   |-------------------|---------------------------------------------------|
//!   | `events.jsonl`    | one JSON object per structured [`Event`]          |
//!   | `samples.jsonl`   | one JSON object per (tick, link) sample           |
//!   | `histograms.json` | log-bucketed FCT / RTO-attempt / PFC-pause hists  |
//!   | `trace.json`      | Chrome `trace_event` JSON (chrome://tracing)      |
//!
//! Campaign runs additionally write a [`Manifest`] (`manifest.json`) so the
//! artifacts record exactly which specs, seeds, and code revision produced
//! them.
//!
//! The crate is a leaf: it knows nothing about the simulator's types and
//! speaks only in primitives (`u64` nanoseconds, `u32` link ids), which is
//! what lets `fp-netsim` depend on it without a cycle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod chrome;
mod events;
mod histogram;
mod manifest;
mod recorder;
mod run;

pub use events::{Event, EventRecord};
pub use histogram::{HistogramBucket, HistogramExport, LogHistogram};
pub use manifest::{dirt_is_artifacts_only, git_describe, Manifest};
pub use recorder::{LinkMeta, LinkSample, NullRecorder, Recorder};
pub use run::{IterSpan, RunRecorder, SampleRow};

/// Default sampler period: 100 µs of simulated time between link samples.
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 100_000;

/// Artifact directory requested via the `FP_TELEMETRY` environment variable
/// (`None` when unset or empty — the zero-cost default).
pub fn dir_from_env() -> Option<std::path::PathBuf> {
    std::env::var_os("FP_TELEMETRY")
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from)
}

/// Sampler period override via `FP_TELEMETRY_INTERVAL_NS`, falling back to
/// [`DEFAULT_SAMPLE_INTERVAL_NS`] when unset or unparseable.
pub fn sample_interval_from_env() -> u64 {
    std::env::var("FP_TELEMETRY_INTERVAL_NS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&ns| ns > 0)
        .unwrap_or(DEFAULT_SAMPLE_INTERVAL_NS)
}
