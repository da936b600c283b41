//! E7 — the abstract's headline claim: "FlowPulse identifies a single
//! faulty link with 1.5% corruption rate by checking temporal symmetry in
//! a full two-level fat tree topology with 32 leaf switches while
//! performing Ring-AllReduce on all nodes."
//!
//! One end-to-end run at exactly that configuration, plus a probe-mesh
//! comparison showing the overhead FlowPulse avoids.

use flowpulse::baselines::{run_probe_mesh, ProbeMeshConfig};
use flowpulse::prelude::*;
use fp_bench::{header, pct, pick, save_json};
use fp_netsim::fault::FaultAction;
use fp_netsim::prelude::*;
use fp_netsim::units::fmt_bytes;
use serde::Serialize;

#[derive(Serialize)]
struct Headline {
    drop_rate: f64,
    detected: bool,
    false_alarm: bool,
    localized_correctly: bool,
    faulty_iteration_dev: f64,
    clean_iteration_dev_max: f64,
    probe_bytes_for_parity: u64,
    flowpulse_bytes_injected: u64,
}

fn main() {
    let spec = TrialSpec {
        leaves: pick(32, 8),
        spines: pick(16, 4),
        bytes_per_node: pick(64, 8) * 1024 * 1024,
        iterations: 3,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.015 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 2025,
        ..Default::default()
    };
    header("E7 — headline: 1.5% silent corruption, 32-leaf fat tree, Ring-AllReduce");
    // With FP_TELEMETRY=dir, ride a full RunRecorder along: link samples,
    // FCT/RTO/PFC histograms, structured events and a Chrome trace land in
    // $FP_TELEMETRY/headline/ next to the run's manifest.
    let telemetry = fp_telemetry::dir_from_env().map(|d| d.join("headline"));
    let recorder = telemetry.clone().map(|d| {
        Box::new(
            fp_telemetry::RunRecorder::new(d)
                .with_interval_ns(fp_telemetry::sample_interval_from_env()),
        ) as Box<dyn fp_telemetry::Recorder>
    });
    let t0 = std::time::Instant::now();
    let (r, recorder) = run_trial_with(&spec, recorder);
    let wall_us = (t0.elapsed().as_micros() as u64).max(1);
    if let Some(mut rec) = recorder {
        rec.finish().expect("write telemetry artifacts");
    }
    let timing = [fp_bench::TrialTiming {
        idx: 0,
        seed: spec.seed,
        wall_us,
        events: r.stats.events,
    }];
    let log_path = fp_bench::out_dir().join("campaign_log.txt");
    if let Err(e) = fp_bench::log_trials_to(&log_path, "headline", 1, &timing, wall_us) {
        eprintln!("warning: cannot append campaign log: {e}");
    }
    match fp_bench::record_bench(&fp_bench::BenchEntry {
        name: "headline".into(),
        git: fp_telemetry::git_describe(),
        scheduler: r.sched_kind.name().into(),
        threads: 1,
        host_parallelism: fp_bench::host_parallelism(),
        quick: fp_bench::quick(),
        trials: 1,
        wall_us,
        events: r.stats.events,
        events_per_sec: r.stats.events as f64 * 1e6 / wall_us as f64,
        sched_pushes: r.sched.pushes,
        memo_hits: r.memo_hits,
        memo_replayed_events: r.memo_replayed_events,
        tt_detect_ns: None,
        tt_mitigate_ns: None,
        false_mitigations: None,
        service_latency: None,
    }) {
        Ok(Some(p)) => println!("[bench {}]", p.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot update bench json: {e}"),
    }
    // `baseline`: the identical trial pinned to the binary-heap scheduler,
    // recorded under its own key so the committed bench file always carries
    // a same-tree heap-vs-wheel comparison. Full runs only — quick numbers
    // are meaningless as a trajectory.
    if !fp_bench::quick() {
        let mut base_spec = spec.clone();
        base_spec.sim.sched = Some(SchedKind::Heap);
        let t0 = std::time::Instant::now();
        let base = run_trial(&base_spec);
        let base_wall = (t0.elapsed().as_micros() as u64).max(1);
        assert_eq!(
            base.stats.events, r.stats.events,
            "scheduler backends must process identical event totals"
        );
        match fp_bench::record_bench(&fp_bench::BenchEntry {
            name: "baseline".into(),
            git: fp_telemetry::git_describe(),
            scheduler: base.sched_kind.name().into(),
            threads: 1,
            host_parallelism: fp_bench::host_parallelism(),
            quick: false,
            trials: 1,
            wall_us: base_wall,
            events: base.stats.events,
            events_per_sec: base.stats.events as f64 * 1e6 / base_wall as f64,
            sched_pushes: base.sched.pushes,
            memo_hits: base.memo_hits,
            memo_replayed_events: base.memo_replayed_events,
            tt_detect_ns: None,
            tt_mitigate_ns: None,
            false_mitigations: None,
            service_latency: None,
        }) {
            Ok(Some(p)) => println!("[bench baseline {}]", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: cannot update bench json: {e}"),
        }
    }
    // `telemetry_overhead`: the identical trial with a full RunRecorder
    // riding along, written to a scratch dir — the committed trajectory
    // behind DESIGN.md §7's "≈5% recorder-on, ~0% off" overhead claim.
    // Full runs only, like `baseline`.
    if !fp_bench::quick() {
        let scratch = std::env::temp_dir().join("fp_overhead_headline");
        let rec = Box::new(
            fp_telemetry::RunRecorder::new(scratch.clone())
                .with_interval_ns(fp_telemetry::sample_interval_from_env()),
        ) as Box<dyn fp_telemetry::Recorder>;
        let t0 = std::time::Instant::now();
        let (tel, rec) = run_trial_with(&spec, Some(rec));
        let tel_wall = (t0.elapsed().as_micros() as u64).max(1);
        rec.expect("recorder returned")
            .finish()
            .expect("write scratch telemetry");
        assert_eq!(
            tel.stats.events, r.stats.events,
            "a riding recorder must not change the run"
        );
        if telemetry.is_none() {
            println!(
                "telemetry overhead: {tel_wall} us recorder-on vs {wall_us} us off \
                 ({:+.1}%)",
                (tel_wall as f64 / wall_us as f64 - 1.0) * 100.0
            );
        }
        match fp_bench::record_bench(&fp_bench::BenchEntry {
            name: "telemetry_overhead".into(),
            git: fp_telemetry::git_describe(),
            scheduler: tel.sched_kind.name().into(),
            threads: 1,
            host_parallelism: fp_bench::host_parallelism(),
            quick: false,
            trials: 1,
            wall_us: tel_wall,
            events: tel.stats.events,
            events_per_sec: tel.stats.events as f64 * 1e6 / tel_wall as f64,
            sched_pushes: tel.sched.pushes,
            memo_hits: tel.memo_hits,
            memo_replayed_events: tel.memo_replayed_events,
            tt_detect_ns: None,
            tt_mitigate_ns: None,
            false_mitigations: None,
            service_latency: None,
        }) {
            Ok(Some(p)) => println!("[bench telemetry_overhead {}]", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: cannot update bench json: {e}"),
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    // `memo_headline`: the steady-state companion row — the same fabric
    // running 12 fault-free iterations with temporal-symmetry fast-forward
    // (`FP_MEMO`) on, against a live run of the identical spec for the
    // byte-identity check. Fault-free because an active fault window
    // refuses replay, and pinned to least-loaded spray: the default
    // adaptive policy's deficit decay runs on an absolute time grid that
    // never realigns with the iteration period — and without the default
    // 1 µs start jitter, whose per-node RNG draws the gate also refuses
    // (DESIGN.md §11). Full runs only, like `baseline`.
    if !fp_bench::quick() {
        let mut memo_spec = spec.clone();
        memo_spec.fault = None;
        memo_spec.iterations = 12;
        memo_spec.jitter = fp_collectives::jitter::JitterModel::None;
        memo_spec.sim.spray = SprayPolicy::LeastLoaded;
        let mut live_spec = memo_spec.clone();
        live_spec.memo = Some(false);
        memo_spec.memo = Some(true);
        let t0 = std::time::Instant::now();
        let live = run_trial(&live_spec);
        let live_wall = (t0.elapsed().as_micros() as u64).max(1);
        let t0 = std::time::Instant::now();
        let memo = run_trial(&memo_spec);
        let memo_wall = (t0.elapsed().as_micros() as u64).max(1);
        assert_eq!(memo.memo_fallback, None, "memo must stay eligible");
        assert!(memo.memo_hits > 0, "steady state never fast-forwarded");
        assert_eq!(
            format!("{:?}", live.stats),
            format!("{:?}", memo.stats),
            "fast-forward must be byte-identical to the live engine"
        );
        assert_eq!(live.iter_max_dev, memo.iter_max_dev);
        assert_eq!(live.iter_goodput, memo.iter_goodput);
        println!(
            "memo headline: {}/{} iterations replayed ({} events), \
             {memo_wall} us memo-on vs {live_wall} us live ({:.2}x)",
            memo.memo_replayed_iters,
            memo_spec.iterations,
            memo.memo_replayed_events,
            live_wall as f64 / memo_wall as f64
        );
        match fp_bench::record_bench(&fp_bench::BenchEntry {
            name: "memo_headline".into(),
            git: fp_telemetry::git_describe(),
            scheduler: memo.sched_kind.name().into(),
            threads: 1,
            host_parallelism: fp_bench::host_parallelism(),
            quick: false,
            trials: 1,
            wall_us: memo_wall,
            events: memo.stats.events,
            events_per_sec: memo.stats.events as f64 * 1e6 / memo_wall as f64,
            sched_pushes: memo.sched.pushes,
            memo_hits: memo.memo_hits,
            memo_replayed_events: memo.memo_replayed_events,
            tt_detect_ns: None,
            tt_mitigate_ns: None,
            false_mitigations: None,
            service_latency: None,
        }) {
            Ok(Some(p)) => println!("[bench memo_headline {}]", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: cannot update bench json: {e}"),
        }
    }
    if let Some(dir) = &telemetry {
        fp_bench::campaign_manifest(
            "headline",
            1,
            std::slice::from_ref(&spec),
            &timing,
            wall_us,
            r.sched_kind,
            &r.sched,
            (r.memo_hits, r.memo_replayed_events),
        )
        .write(dir)
        .expect("write manifest");
        println!("[telemetry {}]", dir.display());
    }
    let (clean, faulty) = flowpulse::eval::split_devs(&r);
    let clean_max = clean.iter().cloned().fold(0.0, f64::max);
    let faulty_max = faulty.iter().cloned().fold(0.0, f64::max);
    let (fleaf, fv) = r.fault_port.unwrap();

    println!("fault:      spine{fv} → leaf{fleaf}, 1.5% silent drop from iteration 1");
    println!("detected:   {}", r.detected);
    println!("false alarm:{}", r.false_alarm);
    println!(
        "localized:  {:?} (expected unpaired port ({fleaf}, {fv}))",
        r.localization.as_ref().unwrap()
    );
    println!("clean-iteration max deviation:  {}", pct(clean_max));
    println!("faulty-iteration max deviation: {}", pct(faulty_max));
    println!(
        "drops: {} silent, retransmits: {}",
        r.stats.silent_drops(),
        r.stats.retransmits
    );

    // Probe-mesh comparison: how many probe bytes does an active prober
    // inject to catch the same fault with ~99% confidence? Each probe
    // crosses the faulty link with probability 1/spines and is then dropped
    // with probability 1.5%.
    let mut sim = Simulator::new(
        Topology::fat_tree(FatTreeSpec {
            leaves: spec.leaves,
            spines: spec.spines,
            ..Default::default()
        }),
        SimConfig::default(),
        1,
    );
    let bad = sim.topo.downlink(fv, fleaf);
    sim.apply_fault_now(
        bad,
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.015 }),
        false,
    );
    // p(hit) per probe to the faulty leaf ≈ 0.015/spines; probes to other
    // leaves never help. Run rounds until detected.
    let mut probe_bytes = 0u64;
    let mut detected_by_probe = false;
    for _ in 0..pick(40, 10) {
        let rep = run_probe_mesh(&mut sim, &ProbeMeshConfig::default());
        probe_bytes += rep.bytes_injected;
        if rep.detected {
            detected_by_probe = true;
            break;
        }
    }
    println!(
        "\nprobe-mesh baseline: {} injected before {} — FlowPulse injects 0 \
         (passive).",
        fmt_bytes(probe_bytes),
        if detected_by_probe {
            "first detection"
        } else {
            "giving up (undetected!)"
        }
    );

    save_json(
        "headline",
        &Headline {
            drop_rate: 0.015,
            detected: r.detected,
            false_alarm: r.false_alarm,
            localized_correctly: r.localized_correctly.unwrap_or(false),
            faulty_iteration_dev: faulty_max,
            clean_iteration_dev_max: clean_max,
            probe_bytes_for_parity: probe_bytes,
            flowpulse_bytes_injected: 0,
        },
    );

    if fp_bench::quick() {
        // Quick mode shrinks the fabric below the regime the headline
        // claim is about (1.5% signal vs 4-spine retransmit inflation);
        // report without asserting.
        println!(
            "\nE7 (quick mode): detected={} localized={:?}",
            r.detected, r.localized_correctly
        );
        return;
    }
    assert!(r.detected && !r.false_alarm, "headline claim regressed");
    assert_eq!(r.localized_correctly, Some(true));
    println!("\nE7 verdict: headline claim reproduced.");
}
