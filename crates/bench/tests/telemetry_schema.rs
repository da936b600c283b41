//! Telemetry artifact schema validation.
//!
//! Validates a `RunRecorder` artifact directory: the JSONL event log and
//! sample series line-parse with the expected fields, the histograms file
//! is well-formed, and the Chrome trace parses as `trace_event` JSON.
//!
//! Two modes:
//!
//! * Standalone (`cargo test --test telemetry_schema`): generates a fresh
//!   artifact directory by running a small trial with a [`RunRecorder`].
//! * CI smoke (`scripts/verify.sh`): `FP_TELEMETRY_CHECK=<dir>` points at
//!   artifacts an earlier `headline` run produced; the same validation runs
//!   against those instead.

use flowpulse::prelude::*;
use fp_telemetry::RunRecorder;
use serde::Value;
use std::path::{Path, PathBuf};

/// Events the JSONL log may contain (the `Event` enum's external tags).
const EVENT_KINDS: &[&str] = &[
    "Drop",
    "FaultSet",
    "FaultCleared",
    "Pfc",
    "FlowFailed",
    "Alarm",
    "Milestone",
];

fn get<'v>(map: &'v Value, key: &str) -> Option<&'v Value> {
    map.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `FP_TELEMETRY_CHECK`: a directory of artifacts some other run wrote
/// (`verify.sh` points it at `headline`'s). This test's input, not a knob.
#[allow(clippy::disallowed_methods)]
fn check_dir() -> Option<PathBuf> {
    std::env::var_os("FP_TELEMETRY_CHECK")
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// The artifact directory to validate: `FP_TELEMETRY_CHECK` if set, else a
/// freshly generated one from a small faulted trial.
fn artifact_dir() -> PathBuf {
    if let Some(dir) = check_dir() {
        return dir;
    }
    let dir = std::env::temp_dir().join(format!("fp-telemetry-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = TrialSpec {
        leaves: 4,
        spines: 2,
        bytes_per_node: 2 * 1024 * 1024,
        iterations: 2,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        ..Default::default()
    };
    let rec = RunRecorder::new(dir.clone());
    let (_, rec) = run_trial_with(&spec, Some(Box::new(rec)));
    rec.expect("recorder comes back")
        .finish()
        .expect("write artifacts");
    dir
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("read {}/{file}: {e}", dir.display()))
}

#[test]
fn artifacts_validate() {
    let dir = artifact_dir();

    // events.jsonl: every line is {"t_ns": u64, "event": {<known tag>: ..}}.
    let events = read(&dir, "events.jsonl");
    let mut n_events = 0;
    for line in events.lines() {
        let v: Value = serde_json::from_str(line).expect("event line parses");
        assert!(get(&v, "t_ns").and_then(Value::as_u64).is_some(), "{line}");
        let ev = get(&v, "event").expect("event field");
        let tags = ev.as_map().expect("event is externally tagged");
        assert_eq!(tags.len(), 1, "{line}");
        assert!(
            EVENT_KINDS.contains(&tags[0].0.as_str()),
            "unknown event kind {:?}",
            tags[0].0
        );
        n_events += 1;
    }
    assert!(n_events > 0, "a faulted run logs events");

    // samples.jsonl: per-(tick, link) rows; links form a dense id space and
    // every link is covered at more than one sampling tick.
    let samples = read(&dir, "samples.jsonl");
    let mut links = std::collections::BTreeSet::new();
    let mut ticks = std::collections::BTreeSet::new();
    for line in samples.lines() {
        let v: Value = serde_json::from_str(line).expect("sample line parses");
        for field in [
            "t_ns",
            "link",
            "queued_bytes",
            "queued_pkts",
            "inflight_pkts",
            "paused_mask",
        ] {
            assert!(get(&v, field).and_then(Value::as_u64).is_some(), "{line}");
        }
        let util = get(&v, "util").and_then(Value::as_f64).expect("util");
        assert!((0.0..=1.5).contains(&util), "utilization plausible: {util}");
        links.insert(get(&v, "link").unwrap().as_u64().unwrap());
        ticks.insert(get(&v, "t_ns").unwrap().as_u64().unwrap());
    }
    assert!(!links.is_empty(), "sampler covered the fabric");
    assert_eq!(
        links.len() as u64,
        links.last().unwrap() + 1,
        "link ids are dense 0..n"
    );
    assert!(ticks.len() > 1, "more than one sampling tick");
    let rows_per_tick = samples.lines().count() / ticks.len();
    assert_eq!(rows_per_tick, links.len(), "every link sampled every tick");

    // histograms.json: the three log-bucketed histograms, with consistent
    // bucket sums; a faulted reliable-transport run completes flows and
    // retransmits.
    let hists: Value = serde_json::from_str(&read(&dir, "histograms.json")).expect("histograms");
    for key in ["fct_ns", "rto_attempts", "pfc_pause_ns"] {
        let h = get(&hists, key).unwrap_or_else(|| panic!("{key} histogram present"));
        let count = get(h, "count").and_then(Value::as_u64).expect("count");
        let buckets = get(h, "buckets").and_then(Value::as_seq).expect("buckets");
        let bucket_sum: u64 = buckets
            .iter()
            .map(|b| {
                get(b, "count")
                    .and_then(Value::as_u64)
                    .expect("bucket count")
            })
            .sum();
        assert_eq!(count, bucket_sum, "{key}: bucket counts sum to total");
        for b in buckets {
            let lo = get(b, "lo").and_then(Value::as_u64).unwrap();
            let hi = get(b, "hi").and_then(Value::as_u64).unwrap();
            assert!(lo < hi, "{key}: bucket bounds ordered");
        }
    }
    let fct_count = get(get(&hists, "fct_ns").unwrap(), "count")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(fct_count > 0, "flows completed");

    // trace.json: Chrome trace_event envelope with metadata, counter and
    // span events.
    let trace: Value = serde_json::from_str(&read(&dir, "trace.json")).expect("trace parses");
    let evs = get(&trace, "traceEvents")
        .and_then(Value::as_seq)
        .expect("traceEvents array");
    assert!(!evs.is_empty());
    let phases: std::collections::BTreeSet<&str> = evs
        .iter()
        .filter_map(|e| get(e, "ph").and_then(Value::as_str))
        .collect();
    for ph in ["M", "C", "X"] {
        assert!(phases.contains(ph), "trace has {ph:?} events: {phases:?}");
    }
}

#[test]
fn manifest_validates_when_present() {
    // The manifest is written by campaign runs, not by the recorder itself;
    // validate it when pointed at campaign output, skip otherwise.
    let Some(dir) = check_dir() else {
        return;
    };
    if !dir.join("manifest.json").exists() {
        return;
    }
    let m: Value = serde_json::from_str(&read(&dir, "manifest.json")).expect("manifest parses");
    assert!(get(&m, "name").and_then(Value::as_str).is_some());
    assert!(get(&m, "git").and_then(Value::as_str).is_some());
    let trials = get(&m, "trials").and_then(Value::as_u64).expect("trials");
    let seeds = get(&m, "seeds").and_then(Value::as_seq).expect("seeds");
    let specs = get(&m, "specs").and_then(Value::as_seq).expect("specs");
    assert_eq!(seeds.len() as u64, trials);
    assert_eq!(specs.len() as u64, trials);
    // The resolved configuration, every knob, defaults included.
    let config = get(&m, "config").expect("config");
    for knob in [
        "quick",
        "threads",
        "results",
        "spray",
        "memo",
        "telemetry",
        "sample_interval_ns",
    ] {
        assert!(get(config, knob).is_some(), "config echoes {knob}");
    }
}
