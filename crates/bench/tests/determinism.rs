//! Campaign determinism regression tests: the worker-pool size must never
//! change a byte of a sweep's output.

use flowpulse::prelude::*;
use fp_bench::{drop_fault, Campaign, Cell, RunConfig};
use serde::Serialize;

/// The fields the fig binaries derive their JSON rows from.
#[derive(Serialize)]
struct Row {
    seed: u64,
    detected: bool,
    false_alarm: bool,
    devs: Vec<(u32, f64)>,
}

/// One grid cell: two clean seeds, then a 3 % drop over two fault seeds.
fn cell() -> Cell {
    Cell {
        base: TrialSpec {
            leaves: 4,
            spines: 2,
            bytes_per_node: 2 * 1024 * 1024,
            iterations: 2,
            ..Default::default()
        },
        faults: vec![drop_fault(0.03, 1)],
    }
}

fn sweep() -> Vec<TrialSpec> {
    fp_bench::grid::specs(&[cell()], &[1, 2], &[3, 4])
}

fn serialize_rows(specs: &[TrialSpec], results: &[TrialResult]) -> String {
    let rows: Vec<Row> = specs
        .iter()
        .zip(results)
        .map(|(s, r)| Row {
            seed: s.seed,
            detected: r.detected,
            false_alarm: r.false_alarm,
            devs: r.iter_max_dev.clone(),
        })
        .collect();
    serde_json::to_string_pretty(&rows).expect("serialize rows")
}

#[test]
fn campaign_rows_are_byte_identical_across_thread_counts() {
    let specs = sweep();
    let serial = Campaign::with_threads(1).run(&specs);
    let parallel = Campaign::with_threads(4).run(&specs);
    assert_eq!(serial.len(), specs.len());
    assert_eq!(
        serialize_rows(&specs, &serial),
        serialize_rows(&specs, &parallel),
        "FP_THREADS must not change output bytes"
    );
    // The grid runs the same specs and hands back the same results,
    // sliced, whatever the pool.
    for threads in ["1", "4"] {
        let cfg = RunConfig::from_vars(|k| (k == "FP_THREADS").then(|| threads.into())).unwrap();
        let grid = cfg.run_grid("determinism", &[cell()], &[1, 2], &[3, 4]);
        let pair = grid.pairs().next().expect("one pair");
        let sliced: Vec<TrialResult> = pair.clean.iter().chain(pair.faulty).cloned().collect();
        assert_eq!(
            serialize_rows(&specs, &serial),
            serialize_rows(&specs, &sliced),
            "FP_THREADS={threads}: the grid must not change output bytes"
        );
    }
    // Spot-check the raw per-iteration deviations too, not just the rows.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.iter_max_dev, b.iter_max_dev);
        assert_eq!(a.fault_port, b.fault_port);
        assert_eq!(a.stats.events, b.stats.events);
    }
}

/// The worker-pool contract holds for every pluggable spray backend —
/// including the feedback-fed ones, whose per-leaf entropy state lives
/// entirely inside each trial's simulator.
#[test]
fn spray_backend_campaigns_are_byte_identical_across_thread_counts() {
    use fp_netsim::spray::SprayPolicy;
    for policy in [
        SprayPolicy::Ecmp,
        SprayPolicy::Prime,
        SprayPolicy::Reps,
        SprayPolicy::RepsFailover,
    ] {
        let specs: Vec<TrialSpec> = sweep()
            .into_iter()
            .map(|mut s| {
                s.sim.spray = policy;
                s
            })
            .collect();
        let serial = Campaign::with_threads(1).run(&specs);
        let parallel = Campaign::with_threads(4).run(&specs);
        assert_eq!(
            serialize_rows(&specs, &serial),
            serialize_rows(&specs, &parallel),
            "{policy:?}: FP_THREADS must not change output bytes"
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.iter_max_dev, b.iter_max_dev, "{policy:?}");
            assert_eq!(a.stats.events, b.stats.events, "{policy:?}");
            assert_eq!(a.stats.retransmits, b.stats.retransmits, "{policy:?}");
        }
    }
}

#[test]
fn attached_recorder_never_changes_sweep_bytes() {
    // A recorder with the periodic sampler enabled rides along on every
    // trial; the serialized rows and the engine's event accounting must
    // come out byte-identical to the recorder-free campaign.
    struct SamplingNull;
    impl fp_telemetry::Recorder for SamplingNull {
        fn sample_interval_ns(&self) -> u64 {
            50_000
        }
    }
    let specs = sweep();
    let plain = Campaign::with_threads(2).run(&specs);
    let with_rec: Vec<TrialResult> = specs
        .iter()
        .map(|s| run_trial_with(s, Some(Box::new(SamplingNull))).0)
        .collect();
    assert_eq!(
        serialize_rows(&specs, &plain),
        serialize_rows(&specs, &with_rec),
        "telemetry must not change output bytes"
    );
    for (a, b) in plain.iter().zip(&with_rec) {
        assert_eq!(
            a.stats.events, b.stats.events,
            "sampler ticks must not be charged to event accounting"
        );
        assert_eq!(a.iter_max_dev, b.iter_max_dev);
        assert_eq!(a.alarms, b.alarms);
        assert_eq!(a.stats.pkts_txed, b.stats.pkts_txed);
    }
}

/// `SimConfig::sched` is inert: pinned to the wheel (as every `benchmark/`
/// spec is), to the heap or left unset, a trial runs the same engine — a
/// jittered drop fault at `sweep_small`'s size, and a LeastLoaded trial
/// that memo replays.
#[test]
fn scheduler_setting_is_inert() {
    use fp_netsim::engine::SchedKind;
    use fp_netsim::spray::SprayPolicy;
    let faulted = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 2 * 1024 * 1024,
        iterations: 3,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.02 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 2025,
        ..Default::default()
    };
    let mut replayed = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 256 * 1024,
        iterations: 12,
        jitter: fp_collectives::jitter::JitterModel::None,
        seed: 7,
        memo: Some(true),
        ..Default::default()
    };
    replayed.sim.spray = SprayPolicy::LeastLoaded;
    let seen = |r: &TrialResult| {
        let trace: Vec<String> = r.trace.records().map(|t| format!("{t:?}")).collect();
        let debug = format!("{:?} {:?}", r.stats, r.alarms);
        (debug, r.iter_max_dev.clone(), trace, r.sched)
    };
    for spec in [faulted, replayed] {
        let runs: Vec<TrialResult> = [Some(SchedKind::Wheel), Some(SchedKind::Heap), None]
            .into_iter()
            .map(|sched| {
                let mut spec = spec.clone();
                spec.sim.sched = sched;
                run_trial(&spec)
            })
            .collect();
        assert_eq!(runs[0].memo_hits > 0, spec.memo == Some(true), "memo");
        for r in &runs[1..] {
            assert_eq!(seen(r), seen(&runs[0]), "seed {}", spec.seed);
        }
    }
}

/// The spray-engine refactor contract: no change of how the engine
/// dispatches a spray pick (the closed `SprayPolicy` match, then a boxed
/// `Sprayer` trait, now the `Sprayer` enum's arms) may move a single byte
/// of the default backend's output. These digests were recorded on the
/// closed-match build immediately before the trait landed.
#[test]
fn trait_refactor_preserves_pinned_adaptive_digest() {
    let r = run_trial(&TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 3,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.015 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 2025,
        ..Default::default()
    });
    assert_eq!(r.stats.events, 819_681, "event count moved");
    assert_eq!(r.stats.data_pkts_sent, 86_016);
    assert_eq!(r.stats.retransmits, 26);
    assert_eq!(r.stats.silent_drops(), 31);
    assert!(r.detected, "pinned run no longer detects");
    assert_eq!(
        r.iter_max_dev,
        vec![
            (0, 0.002232142857142857),
            (1, 0.012276785714285714),
            (2, 0.010044642857142858),
        ],
        "deviation trajectory moved"
    );
}

#[test]
fn controller_campaign_is_byte_identical_across_thread_counts() {
    // Closed-loop trials carry extra state (an online monitor, scheduled
    // control events); the worker-pool contract must hold for them too.
    // Controllers are !Send, so each worker builds its own inside the map
    // closure — exactly how a real controller sweep fans out.
    use fp_ctrl::{run_ctrl_trial, CtrlConfig};
    let specs: Vec<TrialSpec> = [5u64, 6]
        .iter()
        .map(|&seed| TrialSpec {
            leaves: 4,
            spines: 2,
            bytes_per_node: 2 * 1024 * 1024,
            iterations: 5,
            seed,
            fault: Some(FaultSpec {
                kind: InjectedFault::Blackhole,
                at_iter: 2,
                heal_at_iter: None,
                bidirectional: false,
            }),
            ..Default::default()
        })
        .collect();
    let run = |threads: usize| {
        Campaign::with_threads(threads).map(&specs, |s| run_ctrl_trial(s, CtrlConfig::default()))
    };
    let serial = run(1);
    let parallel = run(4);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.ctrl, b.ctrl, "control-plane record diverged across pools");
        assert_eq!(a.alarms, b.alarms);
        assert_eq!(a.iter_goodput, b.iter_goodput);
        assert_eq!(a.stats.events, b.stats.events);
    }
    // And the loop actually closed: the fault was mitigated in both runs.
    assert!(serial
        .iter()
        .all(|r| r.ctrl.as_ref().unwrap().time_to_mitigate_ns.is_some()));
}
