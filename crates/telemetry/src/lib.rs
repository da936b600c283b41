//! Run telemetry for the FlowPulse simulator.
//!
//! FlowPulse's premise is that end-of-run scalars miss the interesting
//! dynamics; this crate gives the simulator the same courtesy. It defines a
//! [`Recorder`] trait the engine drives at well-known points — periodic
//! per-link samples, flow completions, RTO attempts, PFC pauses, structured
//! exceptional events, and collective iteration spans — whose every hook
//! defaults to doing nothing. The engine only calls hooks when a recorder
//! is attached, so the disabled path costs nothing and is byte-identical
//! to a build without telemetry. [`RunRecorder`] is the implementation: it
//! buffers everything in memory and, on [`Recorder::finish`], writes a
//! self-describing artifact directory:
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

pub use events::Event;
pub use histogram::{HistogramExport, LogHistogram};
pub use manifest::{git_describe, Manifest};
pub use recorder::{LinkMeta, LinkSample, Recorder};
pub use run::RunRecorder;

/// One rule for every `FP_*` setting, over whatever `var` looks a key up
/// in: `Ok(None)` when `key` is unset or empty (the caller's default
/// applies), `Ok(Some)` of what `parse` makes of a recognised value, and
/// for anything else an error naming the variable and the value — a typo
/// in an A/B run must not silently fall back to the default.
pub fn parse_setting<T>(
    var: &dyn Fn(&str) -> Option<String>,
    key: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let raw = var(key);
    let Some(v) = raw.as_deref().map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    match parse(v) {
        Some(t) => Ok(Some(t)),
        None => Err(format!("{key}={v:?} not recognized (expected {expected})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_apply_default_or_refuse() {
        let count = |raw: Option<&str>| {
            let var = |key: &str| (key == "FP_X").then_some(raw?.to_string());
            parse_setting(&var, "FP_X", "a count", |v| v.parse::<u32>().ok())
        };
        for unset in [None, Some(""), Some("  ")] {
            assert_eq!(count(unset), Ok(None), "{unset:?} means unset");
        }
        assert_eq!(count(Some("7")), Ok(Some(7)));
        assert_eq!(count(Some(" 7 ")), Ok(Some(7)));
        assert_eq!(
            count(Some("1k")),
            Err("FP_X=\"1k\" not recognized (expected a count)".into()),
            "the error names the variable and the value"
        );
    }
}
