//! The six workloads: how their inputs are made from a seed, what one
//! timed unit runs, and how a unit's outputs are checked.
//!
//! Every accelerator is pinned through a spec field (`sched`, `shards`,
//! `memo`, `spray`), never through the environment, and `main` scrubs
//! `FP_*` before anything runs.

use crate::decl;
use flowpulse::detector::Detector;
use flowpulse::eval::{
    build_schedule, run_trial, FaultSpec, InjectedFault, Rates, TrialResult, TrialSpec,
};
use flowpulse::monitor::Monitor;
use flowpulse::snapshot::CounterSnapshot;
use fp_bench::campaign::Campaign;
use fp_collectives::jitter::JitterModel;
use fp_ctrl::{run_ctrl_trial, CtrlConfig};
use fp_monitord::service::{Monitord, ServiceConfig, ServiceReport};
use fp_monitord::wire::{feed_lines, snapshot_line, WireStats};
use fp_netsim::config::SimConfig;
use fp_netsim::engine::SchedKind;
use fp_netsim::rng::splitmix64;
use fp_netsim::spray::SprayPolicy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperLive,
    SteadyAdaptive,
    SteadyLeastLoaded,
    FaultLoop,
    SweepSmall,
    MonitordIngest,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PaperLive,
        Workload::SteadyAdaptive,
        Workload::SteadyLeastLoaded,
        Workload::FaultLoop,
        Workload::SweepSmall,
        Workload::MonitordIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLive => decl::PAPER_LIVE,
            Workload::SteadyAdaptive => decl::STEADY_ADAPTIVE,
            Workload::SteadyLeastLoaded => decl::STEADY_LEASTLOADED,
            Workload::FaultLoop => decl::FAULT_LOOP,
            Workload::SweepSmall => decl::SWEEP_SMALL,
            Workload::MonitordIngest => decl::MONITORD_INGEST,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Campaign pool size of `sweep_small` (the sizing host has two vCPUs).
pub const SWEEP_THREADS: usize = 2;
/// `monitord_ingest` shape: streams, snapshots per stream, fabric.
pub const STREAMS: usize = 32;
pub const SNAPS_PER_STREAM: u32 = 240;
const MON_LEAVES: u32 = 16;
const MON_VSPINES: u32 = 8;

/// Everything a unit reads. Made once per process from the seed; the
/// program under test sees only these.
pub struct Inputs {
    pub workload: Workload,
    /// Trial specs (one for the single-trial workloads, 48 for the sweep,
    /// none for monitord).
    pub specs: Vec<TrialSpec>,
    /// Flows each spec must complete (transfers x iterations).
    pub expect_flows: Vec<u64>,
    /// monitord: the NDJSON wire bytes, interleaved by iteration.
    pub wire: Vec<u8>,
    /// monitord: the decoded streams, in stream order.
    pub streams: Vec<Vec<CounterSnapshot>>,
    /// monitord: which streams carry the injected sag.
    pub stream_faulty: Vec<bool>,
    /// monitord: per-stream alarm JSON from an offline `Monitor` over the
    /// same sequence — the reference the service must equal.
    pub offline_alarms: Vec<String>,
    /// sweep_small, fault_loop: more trials of the same shape, run once
    /// and untimed, behind the simulated metrics only.
    pub extra_specs: Vec<TrialSpec>,
}

fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// The engine configuration every trial pins: wheel scheduler, no shards,
/// memo only where the workload asks for it.
fn base_spec(seed: u64, spray: SprayPolicy) -> TrialSpec {
    TrialSpec {
        sim: SimConfig {
            spray,
            sched: Some(SchedKind::Wheel),
            ..Default::default()
        },
        seed,
        shards: Some(1),
        shard_epoch: None,
        memo: Some(false),
        ..Default::default()
    }
}

fn drop_fault(rate: f64, at_iter: u32) -> Option<FaultSpec> {
    Some(FaultSpec {
        kind: InjectedFault::Drop { rate },
        at_iter,
        heal_at_iter: None,
        bidirectional: false,
    })
}

fn paper_live(seed: u64) -> TrialSpec {
    TrialSpec {
        bytes_per_node: 16 * 1024 * 1024,
        iterations: 3,
        fault: drop_fault(0.015, 1),
        ..base_spec(derive(seed, 1), SprayPolicy::Adaptive)
    }
}

fn steady(seed: u64, spray: SprayPolicy) -> TrialSpec {
    TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 4 * 1024 * 1024,
        iterations: 24,
        jitter: JitterModel::None,
        memo: Some(true),
        ..base_spec(derive(seed, 2), spray)
    }
}

fn fault_loop(seed: u64) -> TrialSpec {
    TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 8,
        fault: Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        }),
        ..base_spec(derive(seed, 3), SprayPolicy::Adaptive)
    }
}

/// Extra controller trials (other cable placements and jitter streams)
/// behind `fault_loop`'s simulated metrics (see [`steadied_simulated`]).
const FAULT_LOOP_EXTRA: u64 = 24;

/// Seeds per drop rate in the timed sweep, and in the untimed extension
/// that only steadies the detection rates (see [`steadied_simulated`]).
const SWEEP_SEEDS: u64 = 12;
const SWEEP_EXTRA_SEEDS: u64 = 36;

fn sweep_small(seed: u64, seeds: std::ops::Range<u64>) -> Vec<TrialSpec> {
    let mut specs = Vec::new();
    for (r, rate) in [0.0, 0.01, 0.02, 0.05].into_iter().enumerate() {
        for k in seeds.clone() {
            specs.push(TrialSpec {
                leaves: 8,
                spines: 4,
                bytes_per_node: 2 * 1024 * 1024,
                iterations: 3,
                fault: if rate > 0.0 {
                    drop_fault(rate, 1)
                } else {
                    None
                },
                ..base_spec(
                    derive(seed, 1000 * (r as u64 + 1) + k),
                    SprayPolicy::Adaptive,
                )
            });
        }
    }
    specs
}

/// Synthetic snapshot streams: every port carries ~512 KiB per iteration
/// with ±0.05 % seeded noise (well under the 1 % threshold); in a faulty
/// stream one ring cable — ports `(l, v)` and `(l+1, v)` — sags by 3–10 %
/// from a seeded iteration on, the paired pattern the ring localizer pins.
fn monitord_streams(seed: u64) -> (Vec<Vec<CounterSnapshot>>, Vec<bool>) {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 4));
    let ports = (MON_LEAVES * MON_VSPINES) as usize;
    let mut streams = Vec::with_capacity(STREAMS);
    let mut faulty = Vec::with_capacity(STREAMS);
    for s in 0..STREAMS {
        let is_faulty = s % 2 == 1;
        let onset = rng.gen_range(SNAPS_PER_STREAM / 4..SNAPS_PER_STREAM * 3 / 4);
        let leaf = rng.gen_range(0..MON_LEAVES);
        let vspine = rng.gen_range(0..MON_VSPINES);
        let sag = rng.gen_range(0.03..0.10);
        let hit = [
            (leaf * MON_VSPINES + vspine) as usize,
            (((leaf + 1) % MON_LEAVES) * MON_VSPINES + vspine) as usize,
        ];
        let snaps = (0..SNAPS_PER_STREAM)
            .map(|iter| {
                let mut bytes: Vec<u64> = (0..ports)
                    .map(|_| 524_288 + rng.gen_range(0..524u64) - 262)
                    .collect();
                if is_faulty && iter >= onset {
                    for &p in &hit {
                        bytes[p] = (bytes[p] as f64 * (1.0 - sag)) as u64;
                    }
                }
                CounterSnapshot {
                    fabric: format!("fabric-{s:03}"),
                    job: 1,
                    iter,
                    n_leaves: MON_LEAVES,
                    n_vspines: MON_VSPINES,
                    t_ns: 1_000_000 * u64::from(iter + 1),
                    bytes,
                    last: iter + 1 == SNAPS_PER_STREAM,
                }
            })
            .collect();
        streams.push(snaps);
        faulty.push(is_faulty);
    }
    (streams, faulty)
}

fn offline_alarm_json(snaps: &[CounterSnapshot], cfg: &ServiceConfig) -> String {
    let mut store = snaps[0].new_store();
    for s in snaps {
        s.apply(&mut store);
    }
    let mut m = Monitor::new_learned(snaps[0].job, Detector::new(cfg.threshold), cfg.warmup);
    m.scan(&store, true);
    serde_json::to_string(&m.alarms).expect("alarms serialize")
}

pub fn make_inputs(workload: Workload, seed: u64) -> Inputs {
    let specs = match workload {
        Workload::PaperLive => vec![paper_live(seed)],
        Workload::SteadyAdaptive => vec![steady(seed, SprayPolicy::Adaptive)],
        Workload::SteadyLeastLoaded => vec![steady(seed, SprayPolicy::LeastLoaded)],
        Workload::FaultLoop => vec![fault_loop(seed)],
        Workload::SweepSmall => sweep_small(seed, 0..SWEEP_SEEDS),
        Workload::MonitordIngest => Vec::new(),
    };
    let expect_flows = specs
        .iter()
        .map(|s| build_schedule(s).transfers.len() as u64 * u64::from(s.iterations))
        .collect();
    let mut inputs = Inputs {
        workload,
        specs,
        expect_flows,
        wire: Vec::new(),
        streams: Vec::new(),
        stream_faulty: Vec::new(),
        offline_alarms: Vec::new(),
        extra_specs: match workload {
            Workload::SweepSmall => sweep_small(seed, SWEEP_SEEDS..SWEEP_SEEDS + SWEEP_EXTRA_SEEDS),
            Workload::FaultLoop => (1..=FAULT_LOOP_EXTRA)
                .map(|k| fault_loop(derive(seed, 500 + k)))
                .collect(),
            _ => Vec::new(),
        },
    };
    if workload == Workload::MonitordIngest {
        let (streams, faulty) = monitord_streams(seed);
        for iter in 0..SNAPS_PER_STREAM as usize {
            for st in &streams {
                inputs
                    .wire
                    .extend_from_slice(snapshot_line(&st[iter]).as_bytes());
                inputs.wire.push(b'\n');
            }
        }
        let cfg = ServiceConfig::default();
        inputs.offline_alarms = streams
            .iter()
            .map(|st| offline_alarm_json(st, &cfg))
            .collect();
        inputs.streams = streams;
        inputs.stream_faulty = faulty;
    }
    inputs
}

/// Simulated results of one unit. They depend on the inputs only, so they
/// must repeat exactly from unit to unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Simulated {
    pub tt_detect_us: Option<f64>,
    pub tt_mitigate_us: Option<f64>,
    pub goodput_recovery: Option<f64>,
    pub detect_tpr: Option<f64>,
    pub detect_fpr: f64,
    pub false_mitigations: u64,
    pub ctrl_actions: u64,
    pub ctrl_rebaselines: u64,
}

/// What one unit produced.
pub struct UnitOutput {
    /// Operations attempted: trials, or snapshots for monitord.
    pub ops: u64,
    pub failed: u64,
    pub pkts: u64,
    pub trials: u64,
    pub snapshots: u64,
    pub simulated: Simulated,
    /// Everything that must be identical between units of the same
    /// inputs (stats, verdicts, alarms), as one string.
    pub digest: String,
    /// Human-readable reasons for `failed > 0`.
    pub complaints: Vec<String>,
    /// Kept for the traced run's counts.
    pub results: Vec<TrialResult>,
    pub report: Option<ServiceReport>,
}

fn trial_digest(r: &TrialResult) -> String {
    format!(
        "{}|{}|{}|{:?}|{:?}|{}|{}",
        serde_json::to_string(&r.stats).expect("stats serialize"),
        r.detected,
        r.false_alarm,
        r.localized_correctly,
        r.iter_goodput,
        serde_json::to_string(&r.alarms).expect("alarms serialize"),
        r.ctrl
            .as_ref()
            .map(|c| serde_json::to_string(c).expect("ctrl outcome serializes"))
            .unwrap_or_default(),
    )
}

/// A trial fails when the transport gave up on a flow or left one open.
fn check_trial(
    r: &TrialResult,
    expect_flows: u64,
    what: &str,
    complaints: &mut Vec<String>,
) -> bool {
    let ok = r.stats.flows_failed == 0 && r.stats.flows_completed == expect_flows;
    if !ok {
        complaints.push(format!(
            "{what}: flows_failed={} flows_completed={} expected={expect_flows}",
            r.stats.flows_failed, r.stats.flows_completed
        ));
    }
    ok
}

fn trials_output(
    inputs: &Inputs,
    results: Vec<TrialResult>,
    flows_of: impl Fn(usize) -> u64,
    simulated: Simulated,
    mut complaints: Vec<String>,
) -> UnitOutput {
    let mut failed = 0;
    let mut digest = String::new();
    for (i, r) in results.iter().enumerate() {
        let what = format!("{} trial {i}", inputs.workload.name());
        if !check_trial(r, flows_of(i), &what, &mut complaints) {
            failed += 1;
        }
        digest.push_str(&trial_digest(r));
        digest.push('\n');
    }
    UnitOutput {
        ops: results.len() as u64,
        failed,
        pkts: results.iter().map(|r| r.stats.data_pkts_delivered).sum(),
        trials: results.len() as u64,
        snapshots: 0,
        simulated,
        digest,
        complaints,
        results,
        report: None,
    }
}

fn ns_to_us(ns: Option<u64>) -> Option<f64> {
    ns.map(|n| n as f64 / 1000.0)
}

/// Last-iteration goodput over the mean goodput before the fault.
fn goodput_recovery(r: &TrialResult, fault_iter: u32) -> Option<f64> {
    let pre: Vec<f64> = r
        .iter_goodput
        .iter()
        .filter(|(i, _)| *i < fault_iter)
        .map(|&(_, g)| g)
        .collect();
    let last = r.iter_goodput.last()?.1;
    (!pre.is_empty()).then(|| last / (pre.iter().sum::<f64>() / pre.len() as f64))
}

/// The closed-loop results of one controller trial (`None`s when the
/// controller did not act; `measure::check_simulated` rejects that).
fn ctrl_simulated(spec: &TrialSpec, with_ctrl: &TrialResult) -> Simulated {
    let ctrl = with_ctrl.ctrl.as_ref();
    let fault_iter = spec.fault.map_or(0, |f| f.at_iter);
    Simulated {
        tt_detect_us: ns_to_us(ctrl.and_then(|c| c.time_to_detect_ns)),
        tt_mitigate_us: ns_to_us(ctrl.and_then(|c| c.time_to_mitigate_ns)),
        goodput_recovery: goodput_recovery(with_ctrl, fault_iter),
        false_mitigations: ctrl.map_or(0, |c| u64::from(c.false_mitigations)),
        ctrl_actions: ctrl.map_or(0, |c| c.actions.len() as u64),
        ctrl_rebaselines: ctrl.map_or(0, |c| u64::from(c.rebaselines)),
        ..Default::default()
    }
}

/// Run one unit. The caller times it.
pub fn run_unit(inputs: &Inputs) -> UnitOutput {
    match inputs.workload {
        Workload::PaperLive | Workload::SteadyAdaptive | Workload::SteadyLeastLoaded => {
            let r = run_trial(&inputs.specs[0]);
            let rates = Rates::from_trials([&r]);
            let simulated = Simulated {
                detect_tpr: inputs.specs[0].fault.map(|_| rates.tpr()),
                detect_fpr: rates.fpr(),
                ..Default::default()
            };
            trials_output(
                inputs,
                vec![r],
                |_| inputs.expect_flows[0],
                simulated,
                Vec::new(),
            )
        }
        Workload::FaultLoop => {
            let spec = &inputs.specs[0];
            let with_ctrl = run_ctrl_trial(spec, CtrlConfig::default());
            let plain = run_trial(spec);
            let rates = Rates::from_trials([&plain]);
            let simulated = Simulated {
                detect_tpr: Some(rates.tpr()),
                detect_fpr: rates.fpr(),
                ..ctrl_simulated(spec, &with_ctrl)
            };
            trials_output(
                inputs,
                vec![with_ctrl, plain],
                |_| inputs.expect_flows[0],
                simulated,
                Vec::new(),
            )
        }
        Workload::SweepSmall => {
            let results = Campaign::with_threads(SWEEP_THREADS).run(&inputs.specs);
            let rates = Rates::from_trials(&results);
            let simulated = Simulated {
                detect_tpr: Some(rates.tpr()),
                detect_fpr: rates.fpr(),
                ..Default::default()
            };
            trials_output(
                inputs,
                results,
                |i| inputs.expect_flows[i],
                simulated,
                Vec::new(),
            )
        }
        Workload::MonitordIngest => monitord_unit(inputs),
    }
}

/// The reference unit's simulated results, steadied over the untimed
/// extra trials (`Inputs::extra_specs`), run once per run. The pipeline
/// judges every metric by its spread over ten different seeds, and two
/// simulated results depend on the seed more than their bound should allow:
///
/// * `sweep_small`: catching a 1 % drop with a 1 % threshold is a coin flip
///   per trial, so TPR over the 36 faulty timed trials moves by 10 % of its
///   median from seed to seed; over 144 faulty trials it moves by 3 %.
/// * `fault_loop`: time to detect depends on where the dead cable sits
///   (quartiles 411 / 425 / 450 us over 340 placements, some past 700 us).
///   Across seeds one placement spreads by 6-14 % of the median, the
///   median over five by 5-12 %, over thirteen by 6-7 %, over twenty-five
///   by 2.5 %.
///
/// Returns `None` for workloads without extra trials.
pub fn steadied_simulated(
    inputs: &Inputs,
    reference: &UnitOutput,
) -> Option<(Simulated, Vec<String>)> {
    if inputs.extra_specs.is_empty() {
        return None;
    }
    let mut complaints = Vec::new();
    let mut check = |r: &TrialResult| {
        if r.stats.flows_failed > 0 {
            complaints.push(format!(
                "{} extra trial: {} flows failed",
                inputs.workload.name(),
                r.stats.flows_failed
            ));
        }
    };
    let mut simulated = reference.simulated.clone();
    if inputs.workload == Workload::FaultLoop {
        let mut all = vec![reference.simulated.clone()];
        for spec in &inputs.extra_specs {
            let r = run_ctrl_trial(spec, CtrlConfig::default());
            check(&r);
            all.push(ctrl_simulated(spec, &r));
        }
        // A trial the controller missed makes the median `None`, which the
        // invariants then reject.
        let med = |f: fn(&Simulated) -> Option<f64>| -> Option<f64> {
            let v: Option<Vec<f64>> = all.iter().map(f).collect();
            v.map(|v| crate::stats::median(&v))
        };
        simulated.tt_detect_us = med(|s| s.tt_detect_us);
        simulated.tt_mitigate_us = med(|s| s.tt_mitigate_us);
        simulated.goodput_recovery = med(|s| s.goodput_recovery);
        simulated.false_mitigations = all.iter().map(|s| s.false_mitigations).sum();
    } else {
        let extra = Campaign::with_threads(SWEEP_THREADS).run(&inputs.extra_specs);
        extra.iter().for_each(&mut check);
        let rates = Rates::from_trials(reference.results.iter().chain(&extra));
        simulated.detect_tpr = Some(rates.tpr());
        simulated.detect_fpr = rates.fpr();
    }
    Some((simulated, complaints))
}

/// One service lifetime over the pre-encoded wire bytes.
pub fn monitord_lifetime(wire: &[u8]) -> (WireStats, ServiceReport) {
    let svc = Monitord::spawn(ServiceConfig::default());
    let stats = feed_lines(wire, &svc.handle()).expect("reading from memory cannot fail");
    (stats, svc.shutdown())
}

fn monitord_unit(inputs: &Inputs) -> UnitOutput {
    let (wire, report) = monitord_lifetime(&inputs.wire);
    monitord_output(inputs, wire, report)
}

pub fn monitord_output(inputs: &Inputs, wire: WireStats, report: ServiceReport) -> UnitOutput {
    let offered = (STREAMS as u64) * u64::from(SNAPS_PER_STREAM);
    let mut complaints = Vec::new();
    let lost = wire.malformed + wire.rejected + report.queue.dropped;
    let mut failed = lost + offered.saturating_sub(report.snapshots + lost);
    if failed > 0 {
        complaints.push(format!(
            "monitord: offered={offered} processed={} malformed={} rejected={} dropped={}",
            report.snapshots, wire.malformed, wire.rejected, report.queue.dropped
        ));
    }
    let mut digest = String::new();
    let (mut tp, mut fp) = (0u32, 0u32);
    if report.streams.len() != STREAMS {
        complaints.push(format!(
            "monitord: {} streams reported",
            report.streams.len()
        ));
        failed = failed.max(1);
    }
    for (i, s) in report.streams.iter().enumerate().take(STREAMS) {
        let alarms = serde_json::to_string(&s.alarms).expect("alarms serialize");
        if !s.closed || alarms != inputs.offline_alarms[i] {
            complaints.push(format!(
                "monitord: stream {} closed={} alarms differ from the offline monitor",
                s.fabric, s.closed
            ));
            failed += u64::from(s.snapshots.max(1));
        }
        match (inputs.stream_faulty[i], s.alarms.is_empty()) {
            (true, false) => tp += 1,
            (false, false) => fp += 1,
            _ => {}
        }
        digest.push_str(&alarms);
        digest.push_str(&format!(
            "|{:?}\n",
            s.localization.as_ref().map(|l| &l.cables)
        ));
    }
    let n_faulty = inputs.stream_faulty.iter().filter(|&&f| f).count() as f64;
    let n_clean = STREAMS as f64 - n_faulty;
    UnitOutput {
        ops: offered,
        failed: failed.min(offered),
        pkts: 0,
        trials: 0,
        snapshots: report.snapshots,
        simulated: Simulated {
            detect_tpr: Some(f64::from(tp) / n_faulty),
            detect_fpr: f64::from(fp) / n_clean,
            ..Default::default()
        },
        digest,
        complaints,
        results: Vec::new(),
        report: Some(report),
    }
}
