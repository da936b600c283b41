//! Scenario runner: execute a [`TrialSpec`] described in JSON and print a
//! machine-readable result summary — the "give me a config file and run
//! it" entry point for scripting experiments outside the predefined
//! sweeps.
//!
//! ```sh
//! # Print a template spec:
//! cargo run --release -p fp-bench --bin trial -- --template > spec.json
//! # Edit it, then run:
//! cargo run --release -p fp-bench --bin trial -- spec.json
//! ```
//!
//! The template follows `FP_SPRAY`; everything else a spec says itself. A
//! spec that cannot be read, parsed or run ends the process with status 2
//! and one line saying why. A spec written before the transport settings
//! became constants still carries them under `sim`
//! ([`FIXED_KEYS`]); it runs only while each holds its fixed value.

use flowpulse::prelude::*;
use fp_bench::RunConfig;
use fp_netsim::config::FIXED_KEYS;
use serde::{Deserialize, Serialize, Value};
use std::io::Read;

#[derive(Serialize)]
struct Summary {
    detected: bool,
    false_alarm: bool,
    detection_latency_iters: Option<u32>,
    localized_correctly: Option<bool>,
    fault_port: Option<(u32, u32)>,
    preexisting_ports: Vec<(u32, u32)>,
    iter_max_dev: Vec<(u32, f64)>,
    alarms: Vec<flowpulse::monitor::Alarm>,
    silent_drops: u64,
    retransmits: u64,
    data_pkts_sent: u64,
    events: u64,
    /// Engine events per data packet delivered.
    events_per_pkt: f64,
    /// Entries the agenda handed out per data packet delivered: scheduler
    /// and delay-class pops plus wire deliveries. Unlike
    /// `events` this counts the retransmission timers that surface only to
    /// be discarded, so it is where a change in timer traffic shows.
    agenda_ops_per_pkt: f64,
    /// Trace-ring records retained by the run (drops, fault transitions,
    /// PFC state changes, flow failures), oldest first. The ring is
    /// bounded: when `trace_truncated` is true, `trace_offered` events were
    /// generated but only the most recent `trace.len()` survive here.
    trace: Vec<fp_netsim::trace::TraceRecord>,
    trace_offered: u64,
    trace_truncated: bool,
}

/// The spec at `path` (stdin when `None`), parsed and validated; the error
/// is one line naming the path or what is wrong with the spec.
fn read_spec(path: Option<&String>) -> Result<TrialSpec, String> {
    let (raw, from) = match path {
        Some(path) => (std::fs::read_to_string(path), path.as_str()),
        None => {
            let mut s = String::new();
            (std::io::stdin().read_to_string(&mut s).map(|_| s), "stdin")
        }
    };
    let raw = raw.map_err(|e| format!("cannot read {from}: {e}"))?;
    let malformed = |e: String| format!("malformed TrialSpec in {from}: {e}");
    let value: Value = serde_json::from_str(&raw).map_err(|e| malformed(e.to_string()))?;
    let spec = TrialSpec::from_value(&value).map_err(malformed)?;
    fixed_keys_hold(&value)
        .and_then(|()| spec.validate())
        .map_err(|e| format!("invalid TrialSpec in {from}: {e}"))?;
    Ok(spec)
}

/// Every removed `sim` key that `spec` still carries holds its fixed value:
/// the deserializer skips unknown keys, so any other value would otherwise
/// be dropped without a word.
fn fixed_keys_hold(spec: &Value) -> Result<(), String> {
    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let Some(sim) = field(spec, "sim") else {
        return Ok(());
    };
    for (key, fixed) in FIXED_KEYS {
        if field(sim, key).is_some_and(|v| v.as_f64() != Some(fixed)) {
            return Err(format!("sim.{key} is fixed at {fixed}"));
        }
    }
    Ok(())
}

fn main() {
    let cfg = RunConfig::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--template") {
        let spec = TrialSpec {
            fault: Some(FaultSpec {
                kind: InjectedFault::Drop { rate: 0.015 },
                at_iter: 1,
                heal_at_iter: None,
                bidirectional: false,
            }),
            ..cfg.base_spec()
        };
        println!("{}", serde_json::to_string_pretty(&spec).unwrap());
        return;
    }
    let spec = read_spec(args.iter().find(|a| !a.starts_with("--"))).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let r = run_trial(&spec);
    let agenda_ops = r.sched.pops + r.sched.class_pops + r.stats.pipeline_deliveries;
    let per_pkt = |n: u64| n as f64 / r.stats.data_pkts_delivered.max(1) as f64;
    let summary = Summary {
        detected: r.detected,
        false_alarm: r.false_alarm,
        detection_latency_iters: r.detection_latency_iters(),
        localized_correctly: r.localized_correctly,
        fault_port: r.fault_port,
        preexisting_ports: r.preexisting_ports.clone(),
        iter_max_dev: r.iter_max_dev.clone(),
        alarms: r.alarms.clone(),
        silent_drops: r.stats.silent_drops(),
        retransmits: r.stats.retransmits,
        data_pkts_sent: r.stats.data_pkts_sent,
        events: r.stats.events,
        events_per_pkt: per_pkt(r.stats.events),
        agenda_ops_per_pkt: per_pkt(agenda_ops),
        trace: r.trace.to_records(),
        trace_offered: r.trace.offered,
        trace_truncated: r.trace.truncated(),
    };
    if summary.trace_truncated {
        eprintln!(
            "note: trace ring evicted {} of {} events; the summary's `trace` \
             holds only the most recent {}",
            summary.trace_offered - summary.trace.len() as u64,
            summary.trace_offered,
            summary.trace.len()
        );
    }
    println!("{}", serde_json::to_string_pretty(&summary).unwrap());
}
