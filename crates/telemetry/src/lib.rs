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
pub use manifest::{git_describe, Manifest};
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

/// One rule for every `FP_*` setting: `Ok(None)` when `raw` is unset or
/// empty (the caller's default applies), `Ok(Some)` of what `parse` makes
/// of a recognised value, and for anything else an error naming the
/// variable and the value — a typo in an A/B run must not silently fall
/// back to the default.
pub fn parse_setting<T>(
    var: &str,
    raw: Option<&str>,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(v) = raw.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(None);
    };
    match parse(v) {
        Some(t) => Ok(Some(t)),
        None => Err(format!("{var}={v:?} not recognized (expected {expected})")),
    }
}

/// [`parse_setting`] on the process environment, for library code with no
/// error path to its caller: an unrecognised value panics.
pub fn env_setting<T>(
    var: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_setting(var, raw.as_deref(), expected, parse).unwrap_or_else(|e| panic!("{e}"))
}

/// What every on/off `FP_*` setting accepts.
fn toggle(v: &str) -> Option<bool> {
    match v {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// An on/off setting (`FP_QUICK`, `FP_MEMO`, `FP_MEMO_DEBUG`) from the
/// process environment: off when unset or empty, like every default;
/// anything but `1|on|true|yes` / `0|off|false|no` panics, see
/// [`env_setting`].
pub fn env_toggle(var: &str) -> bool {
    env_setting(var, "1|on|true|yes or 0|off|false|no", toggle).unwrap_or(false)
}

/// What `FP_TELEMETRY_INTERVAL_NS` accepts: a positive count of nanoseconds.
fn positive_ns(v: &str) -> Option<u64> {
    v.parse().ok().filter(|&ns| ns > 0)
}

/// Sampler period from `FP_TELEMETRY_INTERVAL_NS`, or
/// [`DEFAULT_SAMPLE_INTERVAL_NS`] when unset or empty. Anything but a
/// positive integer panics, see [`env_setting`].
pub fn sample_interval_from_env() -> u64 {
    env_setting(
        "FP_TELEMETRY_INTERVAL_NS",
        "a positive integer of nanoseconds",
        positive_ns,
    )
    .unwrap_or(DEFAULT_SAMPLE_INTERVAL_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_apply_default_or_refuse() {
        let count = |raw| parse_setting("FP_X", raw, "a count", |v| v.parse::<u32>().ok());
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

    #[test]
    fn toggles_read_on_off_or_refuse() {
        let t = |raw| parse_setting("FP_QUICK", raw, "on or off", toggle);
        for on in ["1", "on", "true", "yes"] {
            assert_eq!(t(Some(on)), Ok(Some(true)));
        }
        for off in ["0", "off", "false", "no"] {
            assert_eq!(t(Some(off)), Ok(Some(false)), "{off:?} used to mean on");
        }
        assert_eq!(t(Some("")), Ok(None), "empty is unset, not on");
        for bad in ["ture", "On", "2"] {
            assert!(t(Some(bad)).is_err(), "{bad:?} used to mean on");
        }
    }

    #[test]
    fn sample_interval_refuses_what_is_not_a_positive_integer() {
        let ns = |raw| parse_setting("FP_TELEMETRY_INTERVAL_NS", raw, "ns", positive_ns);
        assert_eq!(ns(None), Ok(None));
        assert_eq!(ns(Some("")), Ok(None));
        assert_eq!(ns(Some("250")), Ok(Some(250)));
        for bad in ["1ms", "0", "-5", "1e3"] {
            assert!(
                ns(Some(bad)).is_err(),
                "{bad:?} used to run the 100 µs default"
            );
        }
    }
}
