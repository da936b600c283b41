//! E2 / Fig. 3 — "Learning-based prediction model update. FlowPulse learns
//! an improved baseline after transient fault recovery."
//!
//! A transient silent black hole is active while the learned model forms
//! its baseline, then heals mid-job. The learned model must (a) not alarm
//! on the heal — the load *re-balancing* is recognized as an improvement
//! and the baseline is replaced — and (b) stay quiet against the refreshed
//! baseline afterwards.
//!
//! Expected output quirk, worth knowing: while the black hole is active,
//! some iterations may still flag "Deviating" against the fault-period
//! baseline. That is honest behaviour, not detector noise: a fault heavy
//! enough to trigger mass retransmission does not reproduce the exact same
//! per-port volumes every iteration (retransmission placement depends on
//! carried spray state), so a baseline learned *during* such a fault is
//! intrinsically unstable. The alarms stop the moment the fabric heals and
//! the baseline is replaced — exactly the Fig. 3 story.

use flowpulse::prelude::*;
use fp_bench::{header, RunConfig};
use fp_netsim::units::fmt_bytes;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    iter: u32,
    faulty_port_bytes: f64,
    healthy_port_bytes: f64,
    verdict: String,
    alarmed: bool,
}

fn main() {
    let cfg = RunConfig::from_env();
    let heal_at = 4u32;
    let spec = TrialSpec {
        leaves: cfg.pick(32, 8),
        spines: cfg.pick(16, 4),
        bytes_per_node: cfg.pick(32, 4) * 1024 * 1024,
        iterations: cfg.pick(10, 8),
        model: ModelKind::Learned { warmup: 2 },
        // Jitter-free so the post-heal baseline is exactly stable — the
        // clean Fig. 3 narrative (A2 quantifies jitter effects separately).
        jitter: fp_collectives::jitter::JitterModel::None,
        fault: Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 0,
            heal_at_iter: Some(heal_at),
            bidirectional: false,
        }),
        seed: 7,
        ..cfg.base_spec()
    };
    let r = run_trial(&spec);
    let (fleaf, fv) = r.fault_port.expect("fault injected");
    // A healthy reference port at the same leaf.
    let hv = (fv + 1) % spec.spines;

    header("Fig 3 — learned baseline across a transient fault");
    println!(
        "fault: silent black hole on spine{fv}→leaf{fleaf} during iterations \
         0..{heal_at} (learned baseline, warmup 2)"
    );
    println!(
        "{:>5} {:>16} {:>16} {:>14} {:>8}",
        "iter", "faulty-port", "healthy-port", "verdict", "alarm"
    );
    let alarmed: std::collections::HashSet<u32> = r.alarms.iter().map(|a| a.iter).collect();
    let mut rows = Vec::new();
    for (i, obs) in r.observed.iter().enumerate() {
        let verdict = r
            .learned_events
            .iter()
            .find(|(it, _)| *it == i as u32)
            .map(|(_, v)| format!("{v:?}"))
            .unwrap_or_else(|| "-".into());
        let verdict = verdict
            .split(' ')
            .next()
            .unwrap_or(&verdict)
            .replace('{', "");
        let fb = obs.get(fleaf, fv);
        let hb = obs.get(fleaf, hv);
        println!(
            "{i:>5} {:>16} {:>16} {verdict:>14} {:>8}",
            fmt_bytes(fb as u64),
            fmt_bytes(hb as u64),
            if alarmed.contains(&(i as u32)) {
                "YES"
            } else {
                "-"
            }
        );
        rows.push(Row {
            iter: i as u32,
            faulty_port_bytes: fb,
            healthy_port_bytes: hb,
            verdict,
            alarmed: alarmed.contains(&(i as u32)),
        });
    }
    cfg.save_json("fig3", &rows);

    let rebalanced = r
        .learned_events
        .iter()
        .any(|(_, v)| matches!(v, LearnedUpdate::Rebalanced));
    println!(
        "\nFig 3 verdict: heal at iteration {heal_at} was {} as a rebalance \
         (baseline replaced), {} false alarms after the heal.",
        if rebalanced {
            "recognized"
        } else {
            "NOT recognized"
        },
        r.alarms.iter().filter(|a| a.iter >= heal_at).count()
    );
    assert!(rebalanced, "learned model failed to rebaseline on heal");
    assert!(
        r.alarms.iter().all(|a| a.iter < heal_at),
        "false alarms after heal: {:?}",
        r.alarms
    );
}
