//! Counts and simulated results of the default seed, pinned in
//! `expected.json`. They depend on the inputs only, so any difference is a
//! change of simulated behaviour, not of speed. Accelerator counters (memo
//! hits, shard windows) are deliberately not pinned: an accelerator may
//! start to engage without changing what is simulated.
//!
//! Regenerate with `fpbench expected > benchmark/expected.json` — as its
//! own change, never together with a change that claims a gain.

use crate::json;
use crate::measure::reference_unit;
use crate::workloads::{make_inputs, UnitOutput, Workload};
use serde::Value;

/// The seed `expected.json` was made from (the default `--seed`).
pub const SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.json");

/// The pinned values of one unit, in a fixed order.
pub fn counts(out: &UnitOutput) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&fp_netsim::stats::Stats) -> u64| -> f64 {
        out.results.iter().map(|r| f(&r.stats)).sum::<u64>() as f64
    };
    let sim = &out.simulated;
    let mut v = vec![
        ("ops", out.ops as f64),
        ("events", sum(|s| s.events)),
        ("data_pkts_delivered", sum(|s| s.data_pkts_delivered)),
        ("retransmits", sum(|s| s.retransmits)),
        ("silent_drops", sum(|s| s.silent_drops())),
        ("flows_completed", sum(|s| s.flows_completed)),
        ("snapshots", out.snapshots as f64),
        (
            "alarms",
            out.results.iter().map(|r| r.alarms.len()).sum::<usize>() as f64
                + out.report.as_ref().map_or(0, |r| {
                    r.streams.iter().map(|s| s.alarms.len()).sum::<usize>()
                }) as f64,
        ),
        ("detect_fpr", sim.detect_fpr),
        ("false_mitigations", sim.false_mitigations as f64),
    ];
    for (name, value) in [
        ("tt_detect_us", sim.tt_detect_us),
        ("tt_mitigate_us", sim.tt_mitigate_us),
        ("goodput_recovery", sim.goodput_recovery),
        ("detect_tpr", sim.detect_tpr),
    ] {
        if let Some(x) = value {
            v.push((name, x));
        }
    }
    v
}

/// The content of `expected.json` as this build produces it.
pub fn document() -> String {
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            let pinned = counts(&reference_unit(&make_inputs(*w, SEED)))
                .into_iter()
                .map(|(k, v)| (k.to_string(), Value::F64(v)))
                .collect();
            (w.name().to_string(), Value::Map(pinned))
        })
        .collect();
    let doc = Value::Map(vec![
        ("seed".into(), Value::U64(SEED)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    serde_json::to_string_pretty(&doc).expect("counts serialize")
}

/// Compare the reference unit of the default seed with `expected.json`.
pub fn check(workload: Workload, out: &UnitOutput, complaints: &mut Vec<String>) -> bool {
    let doc: Value = match serde_json::from_str(EXPECTED) {
        Ok(v) => v,
        Err(e) => {
            complaints.push(format!("expected.json does not parse: {e}"));
            return false;
        }
    };
    let Some(pinned) = json::get(&doc, "workloads").and_then(|w| json::get(w, workload.name()))
    else {
        complaints.push(format!(
            "expected.json has no entry for {}",
            workload.name()
        ));
        return false;
    };
    let mut ok = true;
    for (name, got) in counts(out) {
        let want = json::get(pinned, name).and_then(Value::as_f64);
        if want != Some(got) {
            complaints.push(format!(
                "{}: {name} = {got}, expected.json says {want:?}",
                workload.name()
            ));
            ok = false;
        }
    }
    ok
}
