//! The evaluation harness: one-stop trial runner for every experiment.
//!
//! A [`TrialSpec`] describes a complete scenario — fabric shape, collective,
//! pre-existing (known) faults, an optionally injected silent fault, the
//! prediction model and detection threshold. [`run_trial`] executes it
//! end-to-end and returns per-iteration deviations, alarms, localization
//! verdicts and transport statistics. The `fp-bench` binaries are thin
//! sweeps over `TrialSpec`s; FPR/FNR/ROC aggregation lives here so tests
//! can exercise it too.

use crate::analytical::AnalyticalModel;
use crate::detector::Detector;
use crate::learned::LearnedUpdate;
use crate::localizer::{Localizer, RingLocalization};
use crate::model::{PortLoads, PortSrcLoads};
use crate::monitor::{Alarm, Monitor};
use crate::simulated::SimulationModel;
use fp_collectives::alltoall::alltoall_uniform;
use fp_collectives::halving::halving_doubling_allreduce;
use fp_collectives::jitter::JitterModel;
use fp_collectives::ring::{ring_allreduce, ring_reduce_scatter};
use fp_collectives::runner::{CollectiveRunner, RunnerConfig};
use fp_collectives::schedule::Schedule;
use fp_netsim::config::SimConfig;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::{HostId, LinkId};
use fp_netsim::rng::splitmix64;
use fp_netsim::sim::Simulator;
use fp_netsim::stats::Stats;
use fp_netsim::time::SimDuration;
use fp_netsim::topology::{FatTreeSpec, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Which collective the measured job runs.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum CollectiveKind {
    /// Full 2(N−1)-stage Ring-AllReduce (the paper's workload).
    RingAllReduce,
    /// N−1-stage ring ReduceScatter (the "31-stage" variant).
    RingReduceScatter,
    /// Uniform AlltoAll (multi-sender ports; used by localization).
    AllToAll,
    /// Recursive halving-doubling AllReduce (ablation).
    HalvingDoubling,
}

/// Which prediction model the monitor uses (§5.2).
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum ModelKind {
    /// Closed-form `d/(s−f)` model.
    Analytical,
    /// Clean-run simulation prediction.
    Simulation,
    /// Baseline learned from the first `warmup` iterations.
    Learned {
        /// Iterations averaged into the baseline.
        warmup: u32,
    },
}

/// The silent fault injected mid-run.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct FaultSpec {
    /// Fault kind.
    pub kind: InjectedFault,
    /// Iteration at whose start the fault is installed.
    pub at_iter: u32,
    /// Iteration at whose start the fault heals again (`None` = permanent).
    /// Transient faults drive the Fig. 3 learning-rebaseline experiment.
    pub heal_at_iter: Option<u32>,
    /// Apply to both directions of the cable (default: spine→leaf only,
    /// matching §6 "configure a single leaf-spine link to drop packets").
    pub bidirectional: bool,
}

/// Injectable silent fault kinds.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum InjectedFault {
    /// Random per-packet drop at `rate`.
    Drop {
        /// Drop probability.
        rate: f64,
    },
    /// Drop everything.
    Blackhole,
    /// Destination-selective black hole: only packets destined to the fault
    /// cable's leaf are dropped (a corrupted FIB entry for one prefix,
    /// `fp_netsim::FaultKind::DstBlackhole`).
    DstBlackhole,
}

/// A complete experiment scenario.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct TrialSpec {
    /// Leaf switch count.
    pub leaves: u32,
    /// Spine switch count.
    pub spines: u32,
    /// Hosts per leaf.
    pub hosts_per_leaf: u32,
    /// Parallel leaf–spine links.
    pub parallel_links: u32,
    /// Collective kind.
    pub collective: CollectiveKind,
    /// Collective buffer size per node (for AllToAll: bytes per pair =
    /// `bytes_per_node / (n_hosts − 1)`).
    pub bytes_per_node: u64,
    /// Training iterations.
    pub iterations: u32,
    /// Per-node iteration-start jitter.
    pub jitter: JitterModel,
    /// Number of pre-existing known (admin-down) leaf–spine cables.
    pub preexisting: u32,
    /// Silent fault to inject, if any.
    pub fault: Option<FaultSpec>,
    /// Prediction model.
    pub model: ModelKind,
    /// Detection threshold (paper: 0.01).
    pub threshold: f64,
    /// Fabric/transport parameters (includes the spray policy).
    pub sim: SimConfig,
    /// Master seed (fault placement, spray randomness, jitter).
    pub seed: u64,
    /// Inert: never read. Intra-trial sharding was removed (DESIGN.md §9);
    /// the field stays only because the frozen `benchmark/` package names
    /// it, and goes with the `benchmark`-archetype PR that drops the four
    /// `*.shard.*` context probes.
    #[serde(default)]
    pub shards: Option<u32>,
    /// Inert: never read. Removed together with [`TrialSpec::shards`] by the
    /// same follow-up PR.
    #[serde(default)]
    pub shard_epoch: Option<u32>,
    /// Temporal-symmetry fast-forward: memoize steady-state collective
    /// iterations and replay their recorded deltas instead of simulating
    /// them (`None` = the `FP_MEMO` environment override, default off).
    /// Results are byte-identical either way; fault onsets, heal edges and
    /// scheduled controls act as barriers the replay never crosses. Trials
    /// that are ineligible (start jitter, online controller, telemetry
    /// recorder — see [`memo_ineligibility`]) run fully
    /// live with the reason in [`TrialResult::memo_fallback`]; ineligible
    /// *configurations* (random or adaptive spray) surface the engine's
    /// own refusal reason the same way.
    #[serde(default)]
    pub memo: Option<bool>,
}

impl Default for TrialSpec {
    /// The paper's §6 setup: 32 leaves × 16 spines, one host per leaf,
    /// Ring-AllReduce on all nodes, analytical model, 1% threshold.
    fn default() -> Self {
        TrialSpec {
            leaves: 32,
            spines: 16,
            hosts_per_leaf: 1,
            parallel_links: 1,
            collective: CollectiveKind::RingAllReduce,
            bytes_per_node: 64 * 1024 * 1024,
            iterations: 3,
            jitter: JitterModel::Uniform {
                max: SimDuration::from_us(1),
            },
            preexisting: 0,
            fault: None,
            model: ModelKind::Analytical,
            threshold: 0.01,
            sim: SimConfig::default(),
            seed: 1,
            shards: None,
            shard_epoch: None,
            memo: None,
        }
    }
}

/// A control-plane phase, for telemetry labelling.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum CtrlPhase {
    /// The online monitor raised a fresh alarm.
    Detect,
    /// The localizer named culprit ports.
    Localize,
    /// A scheduled remediation was applied by the engine.
    Mitigate,
    /// Detection re-armed against the post-mitigation load shape.
    Rebaseline,
}

impl CtrlPhase {
    /// Stable lowercase label for telemetry.
    pub fn name(self) -> &'static str {
        match self {
            CtrlPhase::Detect => "detect",
            CtrlPhase::Localize => "localize",
            CtrlPhase::Mitigate => "mitigate",
            CtrlPhase::Rebaseline => "rebaseline",
        }
    }
}

/// One timestamped control-plane step.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlAction {
    /// Simulated time the step happened, nanoseconds.
    pub t_ns: u64,
    /// Which phase of the loop.
    pub phase: CtrlPhase,
    /// Free-form detail for humans.
    pub detail: String,
}

/// What a controller did during a run, reported by
/// [`TrialController::summary`] after the simulation drains.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlSummary {
    /// Simulated time of the first fresh alarm the controller acted on.
    pub detect_ns: Option<u64>,
    /// Simulated time the first remediation was applied by the engine.
    pub mitigate_ns: Option<u64>,
    /// Iteration during which the first remediation landed.
    pub mitigate_iter: Option<u32>,
    /// `(leaf, vspine)` cables the controller admin-downed.
    pub mitigated_ports: Vec<(u32, u32)>,
    /// Times detection was re-armed (baseline relearns).
    pub rebaselines: u32,
    /// Every timestamped step, in order.
    pub actions: Vec<CtrlAction>,
}

/// End-to-end closed-loop outcome of a controller-enabled trial: the
/// controller's own record ([`CtrlSummary`]) joined with the harness's
/// ground truth (fault install time and cable identity).
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlOutcome {
    /// Fault install → first acted-on alarm, nanoseconds. Measured from
    /// run start when no fault was injected (a false detection).
    pub time_to_detect_ns: Option<u64>,
    /// Fault install → first remediation applied, nanoseconds.
    pub time_to_mitigate_ns: Option<u64>,
    /// Iteration during which the first remediation landed.
    pub mitigate_iter: Option<u32>,
    /// `(leaf, vspine)` cables the controller admin-downed.
    pub mitigated_ports: Vec<(u32, u32)>,
    /// Mitigated cables that were *not* the injected fault — healthy links
    /// taken down by a wrong verdict (every mitigation in a fault-free run
    /// counts).
    pub false_mitigations: u32,
    /// Times detection was re-armed.
    pub rebaselines: u32,
    /// Every timestamped control step, in order.
    pub actions: Vec<CtrlAction>,
}

/// An online control plane riding a trial: called at every iteration end
/// (counters for that iteration are complete, no later packets exist yet),
/// free to read the simulator's counters and schedule remediation via
/// [`Simulator::schedule_control`]. Implementations live in `fp-ctrl`;
/// the harness only needs this interface, keeping the dependency one-way.
pub trait TrialController {
    /// Iteration `iter` of the measured job has fully completed.
    fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32);
    /// The controller's record of what it did.
    fn summary(&self) -> CtrlSummary;
}

/// Everything a trial produced.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Max |relative deviation| per evaluated iteration.
    pub iter_max_dev: Vec<(u32, f64)>,
    /// Alarms raised by the monitor.
    pub alarms: Vec<Alarm>,
    /// Injected-fault port `(dst_leaf, vspine)`, if a fault was injected.
    pub fault_port: Option<(u32, u32)>,
    /// Iteration the fault was installed at.
    pub fault_iter: Option<u32>,
    /// Iteration the fault healed at, if transient.
    pub heal_iter: Option<u32>,
    /// An alarm fired in a fault-active iteration.
    pub detected: bool,
    /// An alarm fired in a fault-free iteration.
    pub false_alarm: bool,
    /// Ring-correlation localization over post-fault alarms (rings with one
    /// host per leaf only).
    pub localization: Option<RingLocalization>,
    /// The localization names exactly the injected cable/port.
    pub localized_correctly: Option<bool>,
    /// Pre-existing admin-down cables `(leaf, vspine)`.
    pub preexisting_ports: Vec<(u32, u32)>,
    /// Learned-model verdicts (empty unless `ModelKind::Learned`).
    pub learned_events: Vec<(u32, LearnedUpdate)>,
    /// Transport/fabric statistics.
    pub stats: Stats,
    /// Retained trace-ring records (drops, fault transitions, PFC state
    /// changes, flow failures), oldest first.
    pub trace: Vec<fp_netsim::trace::TraceRecord>,
    /// Events offered to the trace ring, including any evicted ones.
    pub trace_offered: u64,
    /// The ring evicted records (`trace_offered > trace.len()`); exports
    /// must surface this — the retained window is the *most recent* slice.
    pub trace_truncated: bool,
    /// Observed per-port loads per iteration (for figure harnesses).
    pub observed: Vec<PortLoads>,
    /// The model prediction (`None` for learned until formed).
    pub predicted: Option<PortLoads>,
    /// Per-sender predicted loads (analytical/simulation models).
    pub predicted_by_src: Option<PortSrcLoads>,
    /// Per-sender observed loads per iteration.
    pub observed_by_src: Vec<PortSrcLoads>,
    /// Which event-scheduler backend ran the trial (telemetry only; result
    /// rows never serialize this, so heap/wheel runs stay byte-identical).
    pub sched_kind: fp_netsim::engine::SchedKind,
    /// Scheduler occupancy counters (telemetry only, like `sched_kind`).
    pub sched: fp_netsim::engine::SchedStats,
    /// Per-iteration goodput `(iter, bits/sec)` of the measured job, from
    /// the engine's always-on span log: schedule bytes over iteration span.
    pub iter_goodput: Vec<(u32, f64)>,
    /// Closed-loop outcome when a controller rode the trial
    /// ([`run_trial_ctl`]); `None` otherwise.
    pub ctrl: Option<CtrlOutcome>,
    /// Inert: always 0. Intra-trial sharding was removed (DESIGN.md §9);
    /// the field stays only because the frozen `benchmark/` package reads
    /// it, and goes with the `benchmark`-archetype PR that drops the four
    /// `*.shard.*` context probes.
    pub shard_windows: u64,
    /// Inert: always 0. Removed together with
    /// [`TrialResult::shard_windows`] by the same follow-up PR.
    pub shard_syncs: u64,
    /// Per-iteration counter snapshots of the measured job in scan order —
    /// the stream a monitor service ingests ([`crate::snapshot`]). The
    /// final row has `last` set; `fabric` is empty until a feed
    /// ([`monitord_feed`]) stamps a stream id.
    pub snapshots: Vec<crate::snapshot::CounterSnapshot>,
    /// Temporal-symmetry fast-forwards performed (0 unless the trial
    /// requested memoization and steady state converged).
    pub memo_hits: u64,
    /// Collective iterations replayed instead of simulated.
    pub memo_replayed_iters: u64,
    /// Engine events the replayed spans account for (already included in
    /// `stats.events`, which stays byte-identical to a live run).
    pub memo_replayed_events: u64,
    /// Why a trial that *requested* memoization ran fully live, or the
    /// engine's first per-boundary refusal reason (`None` when memoization
    /// was not requested or every boundary was eligible). The same reason
    /// is exported as a `memo_fallback` telemetry milestone, so the
    /// downgrade is never silent.
    pub memo_fallback: Option<String>,
}

// `fp-bench` campaigns fan trials out across worker threads; this fails to
// compile if `TrialSpec` or `TrialResult` ever grows a field that is not
// thread-safe (e.g. an `Rc` or interior-mutable cache).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TrialSpec>();
    assert_send_sync::<TrialResult>();
};

/// Build the collective schedule for a spec.
pub fn build_schedule(spec: &TrialSpec) -> Schedule {
    let n = (spec.leaves * spec.hosts_per_leaf) as usize;
    let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
    match spec.collective {
        CollectiveKind::RingAllReduce => ring_allreduce(&hosts, spec.bytes_per_node),
        CollectiveKind::RingReduceScatter => ring_reduce_scatter(&hosts, spec.bytes_per_node),
        CollectiveKind::AllToAll => {
            let per_pair = (spec.bytes_per_node / (n as u64 - 1)).max(1);
            alltoall_uniform(&hosts, per_pair)
        }
        CollectiveKind::HalvingDoubling => {
            let n64 = n as u64;
            let bytes = spec.bytes_per_node / n64 * n64; // divisible
            halving_doubling_allreduce(&hosts, bytes.max(n64))
        }
    }
}

/// A `(leaf, vspine)` cable endpoint pair.
type Cable = (u32, u32);

/// Deterministically choose `count` distinct pre-existing fault cables plus
/// (optionally) the injected-fault cable, all distinct, never taking a
/// leaf's last uplink.
fn choose_cables(
    spec: &TrialSpec,
    rng: &mut SmallRng,
    count: u32,
    want_fault: bool,
) -> (Vec<Cable>, Option<Cable>) {
    let nv = spec.spines * spec.parallel_links;
    let mut used: std::collections::HashSet<(u32, u32)> = Default::default();
    let mut per_leaf = vec![0u32; spec.leaves as usize];
    let mut pre = Vec::new();
    let pick = |rng: &mut SmallRng,
                used: &mut std::collections::HashSet<(u32, u32)>,
                per_leaf: &mut [u32]| {
        // Bounded rejection sampling: placements that would take a leaf's
        // last uplink are rejected; an infeasible request (more cables than
        // the fabric can lose) fails loudly instead of spinning.
        for _ in 0..100_000 {
            let leaf = rng.gen_range(0..spec.leaves);
            let v = rng.gen_range(0..nv);
            if used.contains(&(leaf, v)) || per_leaf[leaf as usize] + 1 >= nv {
                continue;
            }
            used.insert((leaf, v));
            per_leaf[leaf as usize] += 1;
            return (leaf, v);
        }
        panic!(
            "cannot place another faulty cable: {} leaves x {} vspines with {} already down",
            spec.leaves,
            nv,
            used.len()
        );
    };
    for _ in 0..count {
        let c = pick(rng, &mut used, &mut per_leaf);
        pre.push(c);
    }
    let fault = want_fault.then(|| pick(rng, &mut used, &mut per_leaf));
    (pre, fault)
}

/// Execute one trial end-to-end.
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    run_trial_with(spec, None).0
}

/// [`run_trial`] with an optional telemetry recorder riding along.
///
/// When `recorder` is `Some`, the simulator drives its periodic link
/// sampler and funnels flow-completion / RTO / PFC observations into it
/// during the run; afterwards the harness drains the trace ring, the
/// monitor's alarms and the fault/detection milestones into the same
/// recorder as structured events, then hands the recorder back so the
/// caller can [`finish`](fp_telemetry::Recorder::finish) it (write
/// artifacts). `run_trial` is exactly `run_trial_with(spec, None)`, so a
/// disabled recorder costs nothing and cannot perturb results.
pub fn run_trial_with(
    spec: &TrialSpec,
    recorder: Option<Box<dyn fp_telemetry::Recorder>>,
) -> (TrialResult, Option<Box<dyn fp_telemetry::Recorder>>) {
    run_trial_ctl(spec, recorder, None)
}

/// Why a trial that requests memoization (`FP_MEMO` / [`TrialSpec::memo`])
/// must run fully live, or `None` when the harness can enable it. Start
/// jitter draws from the runner's private RNG, invisible to the engine
/// fingerprint; controllers and recorders observe every live iteration.
/// Spray-policy ineligibility (random draws, the adaptive policy's
/// absolute-grid deficit decay) is the engine's own gate and surfaces
/// through [`fp_netsim::prelude::MemoCounters::fallback`] instead.
pub fn memo_ineligibility(
    spec: &TrialSpec,
    has_controller: bool,
    has_recorder: bool,
) -> Option<String> {
    if has_controller {
        return Some("an online controller observes every iteration end".into());
    }
    if has_recorder {
        return Some("telemetry recorder samples on absolute time".into());
    }
    if spec.jitter != JitterModel::None {
        return Some("per-node start jitter draws outside the fingerprint".into());
    }
    None
}

/// [`run_trial_with`] plus an optional online [`TrialController`].
///
/// The controller is called back at every iteration end with `&mut
/// Simulator`, so it can scan the counters incrementally and schedule
/// remediation ([`Simulator::schedule_control`]) that lands after its
/// reaction latency. The controller is shared via `Rc<RefCell<..>>` only
/// for the duration of this call (the iteration-end hook holds one clone);
/// nothing `!Send` escapes into the returned [`TrialResult`], so campaigns
/// still fan controller-enabled trials across threads by constructing one
/// controller per trial inside the worker.
pub fn run_trial_ctl(
    spec: &TrialSpec,
    recorder: Option<Box<dyn fp_telemetry::Recorder>>,
    controller: Option<Rc<RefCell<dyn TrialController>>>,
) -> (TrialResult, Option<Box<dyn fp_telemetry::Recorder>>) {
    let job = 1u32;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: spec.leaves,
        spines: spec.spines,
        hosts_per_leaf: spec.hosts_per_leaf,
        parallel_links: spec.parallel_links,
        ..Default::default()
    });
    let mut place_rng = SmallRng::seed_from_u64(splitmix64(spec.seed ^ 0xFA_17));
    let (preexisting_ports, fault_port) =
        choose_cables(spec, &mut place_rng, spec.preexisting, spec.fault.is_some());

    // Known faults: cables are down in both directions, visible to routing.
    let mut admin_down: Vec<LinkId> = Vec::new();
    for &(leaf, v) in &preexisting_ports {
        admin_down.push(topo.uplink(leaf, v));
        admin_down.push(topo.downlink(v, leaf));
    }

    let sched = build_schedule(spec);
    let sched_total_bytes = sched.total_bytes();
    // Multi-destination collectives get the paper's §5.1 subset treatment:
    // one measured (tagged, prioritized) non-local flow per leaf; the rest
    // of the collective runs unmeasured. Demand models the subset only.
    let measured = match spec.collective {
        CollectiveKind::AllToAll => {
            let subset = fp_collectives::alltoall::single_nonlocal_subset(&sched, &topo.host_leaf);
            Some(subset)
        }
        _ => None,
    };
    let demand = match &measured {
        Some(subset) => fp_collectives::alltoall::demand_of_subset(&sched, subset, topo.n_hosts()),
        None => sched.demand(topo.n_hosts()),
    };

    // Prediction.
    let (predicted, predicted_by_src) = match spec.model {
        ModelKind::Analytical => {
            let p = AnalyticalModel::new(&topo, admin_down.iter().copied()).predict(&demand);
            (Some(p.loads), Some(p.by_src))
        }
        ModelKind::Simulation => {
            let subset = match &measured {
                Some(s) => fp_collectives::runner::MeasuredSubset::Transfers(s.clone()),
                None => fp_collectives::runner::MeasuredSubset::All,
            };
            let (l, s) = SimulationModel::new(spec.sim.clone()).predict_measured(
                &topo,
                &admin_down,
                &sched,
                job,
                subset,
            );
            (Some(l), Some(s))
        }
        ModelKind::Learned { .. } => (None, None),
    };

    let mut rcfg = RunnerConfig {
        job,
        iterations: spec.iterations,
        jitter: spec.jitter,
        jitter_seed: splitmix64(spec.seed ^ 0x717),
        measured: match &measured {
            Some(subset) => fp_collectives::runner::MeasuredSubset::Transfers(subset.clone()),
            None => fp_collectives::runner::MeasuredSubset::All,
        },
        ..Default::default()
    };

    // Ground-truth fault install time, for time-to-detect/-mitigate.
    let install_ns: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    // The injected fault, translated to the engine's terms.
    let injected = spec.fault.zip(fault_port).map(|(f, (fleaf, fv))| {
        let kind = match f.kind {
            InjectedFault::Drop { rate } => FaultKind::SilentDrop { rate },
            InjectedFault::Blackhole => FaultKind::SilentBlackhole,
            InjectedFault::DstBlackhole => FaultKind::DstBlackhole {
                dst_leaf: fleaf as u16,
            },
        };
        (f, topo.downlink(fv, fleaf), kind)
    });

    // Temporal-symmetry fast-forward: enable when requested and eligible.
    // Fault onsets and heal edges are barriers a replay never crosses, so
    // the iteration-start install/heal hook — which only acts at exactly
    // those iterations — is safe to skip in between (`memo_barrier_hooks`).
    let memo_requested = spec
        .memo
        .unwrap_or_else(fp_netsim::sim::memo::memo_from_env);
    let memo_ineligible = if memo_requested {
        memo_ineligibility(spec, controller.is_some(), recorder.is_some())
    } else {
        None
    };
    let memo_enable = memo_requested && memo_ineligible.is_none();
    let memo_barriers: Vec<u32> = spec
        .fault
        .map(|f| {
            let mut b = vec![f.at_iter];
            if let Some(h) = f.heal_at_iter {
                b.push(h.max(f.at_iter));
            }
            b
        })
        .unwrap_or_default();

    let mut sim = Simulator::new(topo, spec.sim.clone(), spec.seed);
    if let Some(rec) = recorder {
        sim.set_recorder(rec);
    }
    if memo_enable {
        sim.enable_memo(memo_barriers);
        rcfg.memo_barrier_hooks = true;
    }
    for &l in &admin_down {
        sim.apply_fault_now(l, FaultAction::Set(FaultKind::AdminDown), false);
    }
    let mut runner = CollectiveRunner::new(sched, rcfg);
    if let Some((f, down, kind)) = injected {
        let mut installed = false;
        let mut healed = false;
        let install_ns = install_ns.clone();
        runner.set_iteration_start_hook(Box::new(move |sim, iter| {
            if !installed && iter >= f.at_iter {
                installed = true;
                install_ns.set(Some(sim.now().as_ns()));
                sim.apply_fault_now(down, FaultAction::Set(kind), f.bidirectional);
            }
            if let Some(h) = f.heal_at_iter {
                if installed && !healed && iter >= h {
                    healed = true;
                    sim.apply_fault_now(down, FaultAction::Clear, f.bidirectional);
                }
            }
        }));
    }
    if let Some(ctl) = controller.clone() {
        runner.set_iteration_end_hook(Box::new(move |sim, iter| {
            ctl.borrow_mut().on_iteration_end(sim, iter);
        }));
    }
    sim.set_app(Box::new(runner));
    sim.run();
    // Copy out what the analysis reads and free the simulator — its flow
    // table and queues are most of a trial's memory — before the analysis
    // allocates: kept alive to the end it cost +23 % peak RSS on the
    // benchmark's 24-iteration `steady_adaptive`.
    let end_ns = sim.now().as_ns();
    let memo_counters = sim.memo_counters().unwrap_or_default();
    let stats = sim.stats.clone();
    let counters = sim.counters.clone();
    let spans = sim.iter_spans().to_vec();
    let trace = sim.trace.to_records();
    let (trace_offered, trace_truncated) = (sim.trace.offered, sim.trace.truncated());
    let (sched_kind, sched) = (sim.sched_kind(), sim.sched_stats());
    let mut recorder = sim.take_recorder();
    drop(sim);
    let memo_fallback = if memo_requested {
        memo_ineligible.or_else(|| memo_counters.fallback.clone())
    } else {
        None
    };

    // Monitoring.
    let detector = Detector::new(spec.threshold);
    let mut monitor = match (&spec.model, &predicted) {
        (ModelKind::Learned { warmup }, _) => Monitor::new_learned(job, detector, *warmup),
        (_, Some(p)) => Monitor::new_fixed(job, detector, p.clone()),
        _ => unreachable!("non-learned model without prediction"),
    };
    monitor.scan(&counters, true);

    // Collect observations for figure harnesses, and the snapshot stream a
    // monitor service would have ingested iteration by iteration.
    let mut observed = Vec::new();
    let mut observed_by_src = Vec::new();
    for i in counters.iters_of(job) {
        let c = counters.get(job, i).expect("listed iteration");
        observed.push(PortLoads::from_counters(c));
        observed_by_src.push(PortSrcLoads::from_counters(c));
    }
    let snapshots = crate::snapshot::CounterSnapshot::sequence_from(&counters, job);

    // Outcomes.
    let fault_iter = spec.fault.map(|f| f.at_iter);
    let heal_iter = spec.fault.and_then(|f| f.heal_at_iter);
    let faulty = |iter: u32| -> bool {
        match (fault_iter, heal_iter) {
            (Some(fi), Some(h)) => iter >= fi && iter < h,
            (Some(fi), None) => iter >= fi,
            _ => false,
        }
    };
    let detected = monitor.alarms.iter().any(|a| faulty(a.iter));
    let false_alarm = monitor.alarms.iter().any(|a| !faulty(a.iter));

    // Ring localization (single host per leaf rings only).
    let is_ring = matches!(
        spec.collective,
        CollectiveKind::RingAllReduce | CollectiveKind::RingReduceScatter
    );
    let (localization, localized_correctly) = if let (Some(fi), Some((fleaf, fv)), true, 1) =
        (fault_iter, fault_port, is_ring, spec.hosts_per_leaf)
    {
        let alarmed = monitor.shortfall_ports(fi);
        let leaves = spec.leaves;
        let loc = Localizer::default().localize_ring(&alarmed, |l| (l + 1) % leaves);
        let bidir = spec.fault.map(|f| f.bidirectional).unwrap_or(false);
        let correct = if bidir {
            loc.cables == vec![(fleaf, fv)]
        } else {
            loc.cables.is_empty() && loc.unpaired == vec![(fleaf, fv)]
        };
        (Some(loc), Some(correct))
    } else {
        (None, None)
    };

    // Per-iteration goodput of the measured job, from the engine's
    // always-on span log.
    let iter_goodput: Vec<(u32, f64)> = spans
        .iter()
        .filter(|s| s.job == job)
        .map(|s| {
            let span_ns = s.end.as_ns().saturating_sub(s.start.as_ns()).max(1);
            (
                s.iter,
                sched_total_bytes as f64 * 8.0 / (span_ns as f64 * 1e-9),
            )
        })
        .collect();

    // Closed-loop outcome: join the controller's record with ground truth.
    let ctrl = controller.map(|c| {
        let s = c.borrow().summary();
        let inst = install_ns.get();
        // Latencies are relative to the fault install when one happened;
        // absolute when the controller acted in a fault-free run (any such
        // action is a false detection/mitigation).
        let delta = |t: Option<u64>| match (t, inst) {
            (Some(t), Some(i)) => Some(t.saturating_sub(i)),
            (Some(t), None) => Some(t),
            _ => None,
        };
        let false_mitigations = s
            .mitigated_ports
            .iter()
            .filter(|&&p| Some(p) != fault_port)
            .count() as u32;
        CtrlOutcome {
            time_to_detect_ns: delta(s.detect_ns),
            time_to_mitigate_ns: delta(s.mitigate_ns),
            mitigate_iter: s.mitigate_iter,
            mitigated_ports: s.mitigated_ports,
            false_mitigations,
            rebaselines: s.rebaselines,
            actions: s.actions,
        }
    });

    // Structured-event export: drain the trace ring, the monitor's alarms
    // and the trial milestones into the recorder, then hand it back.
    if let Some(rec) = recorder.as_deref_mut() {
        if let Some(reason) = &memo_fallback {
            rec.on_event(
                0,
                &fp_telemetry::Event::Milestone {
                    name: "memo_fallback".into(),
                    detail: reason.clone(),
                },
            );
        }
        for r in &trace {
            rec.on_event(r.t_ns, &r.event.to_telemetry());
        }
        monitor.export_alarms(end_ns, rec, |a| {
            let loc = localization.as_ref()?;
            a.deviations.iter().find_map(|d| {
                let p = (d.leaf, d.vspine);
                if loc.cables.contains(&p) {
                    Some(format!("cable({},{})", p.0, p.1))
                } else if loc.unpaired.contains(&p) {
                    Some(format!("unpaired({},{})", p.0, p.1))
                } else {
                    None
                }
            })
        });
        if let Some(c) = &ctrl {
            for a in &c.actions {
                rec.on_event(
                    a.t_ns,
                    &fp_telemetry::Event::Control {
                        phase: a.phase.name().into(),
                        detail: a.detail.clone(),
                    },
                );
            }
        }
        if let (Some(f), Some((fleaf, fv))) = (spec.fault, fault_port) {
            rec.on_event(
                end_ns,
                &fp_telemetry::Event::Milestone {
                    name: "fault_installed".into(),
                    detail: format!("iter {} port ({fleaf},{fv})", f.at_iter),
                },
            );
            if let Some(h) = f.heal_at_iter {
                rec.on_event(
                    end_ns,
                    &fp_telemetry::Event::Milestone {
                        name: "fault_healed".into(),
                        detail: format!("iter {h} port ({fleaf},{fv})"),
                    },
                );
            }
        }
        if let Some(first) = monitor.alarms.iter().map(|a| a.iter).min() {
            rec.on_event(
                end_ns,
                &fp_telemetry::Event::Milestone {
                    name: if detected {
                        "fault_detected".into()
                    } else {
                        "false_alarm".into()
                    },
                    detail: format!("first alarm at iter {first}"),
                },
            );
        }
    }

    let result = TrialResult {
        iter_max_dev: monitor.iter_max_dev.clone(),
        alarms: monitor.alarms.clone(),
        fault_port,
        fault_iter,
        heal_iter,
        detected,
        false_alarm,
        localization,
        localized_correctly,
        preexisting_ports,
        learned_events: monitor.learned_events.clone(),
        stats,
        trace,
        trace_offered,
        trace_truncated,
        observed,
        predicted,
        predicted_by_src,
        observed_by_src,
        sched_kind,
        sched,
        iter_goodput,
        ctrl,
        shard_windows: 0,
        shard_syncs: 0,
        snapshots,
        memo_hits: memo_counters.hits,
        memo_replayed_iters: memo_counters.replayed_iters,
        memo_replayed_events: memo_counters.replayed_events,
        memo_fallback,
    };
    (result, recorder)
}

/// Run `specs` on a pool of `threads` workers and stream every trial's
/// per-iteration [`CounterSnapshot`](crate::snapshot::CounterSnapshot)
/// sequence into `push` — the feed side of a monitor service
/// (`fp-monitord` wraps its ingest handle in exactly this closure shape).
/// Each trial becomes one stream, stamped `fabric-<index>`; snapshots
/// within a stream arrive in scan order, while concurrent trials
/// interleave arbitrarily, which is what a service keyed by
/// `(fabric, job)` must tolerate. Returns the trial results in spec
/// order, so callers can compare a service's per-stream alarms against
/// the offline monitor's ([`TrialResult::alarms`]).
pub fn monitord_feed(
    specs: &[TrialSpec],
    threads: usize,
    push: impl Fn(crate::snapshot::CounterSnapshot) + Sync,
) -> Vec<TrialResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<TrialResult>>> =
        specs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let push = &push;
    let cursor = &cursor;
    let results_ref = &results;
    std::thread::scope(|s| {
        for _ in 0..threads.max(1).min(specs.len().max(1)) {
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let r = run_trial(spec);
                for snap in &r.snapshots {
                    let mut snap = snap.clone();
                    snap.fabric = format!("fabric-{i:03}");
                    push(snap);
                }
                *results_ref[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker finished its trial"))
        .collect()
}

/// Binary classification tallies over iterations.
#[derive(Copy, Clone, Default, PartialEq, Serialize, Deserialize, Debug)]
pub struct Rates {
    /// Faulty iterations alarmed.
    pub tp: u32,
    /// Faulty iterations missed.
    pub fn_: u32,
    /// Clean iterations alarmed.
    pub fp: u32,
    /// Clean iterations passed.
    pub tn: u32,
}

impl Rates {
    /// False-positive rate (`fp / (fp + tn)`), 0 if no clean iterations.
    pub fn fpr(&self) -> f64 {
        let d = self.fp + self.tn;
        if d == 0 {
            0.0
        } else {
            self.fp as f64 / d as f64
        }
    }

    /// False-negative rate (`fn / (fn + tp)`), 0 if no faulty iterations.
    pub fn fnr(&self) -> f64 {
        let d = self.fn_ + self.tp;
        if d == 0 {
            0.0
        } else {
            self.fn_ as f64 / d as f64
        }
    }

    /// True-positive rate.
    pub fn tpr(&self) -> f64 {
        1.0 - self.fnr()
    }

    /// Tally one trial's iterations at the trial's own threshold.
    pub fn add_trial(&mut self, r: &TrialResult) {
        let alarmed: std::collections::HashSet<u32> = r.alarms.iter().map(|a| a.iter).collect();
        for &(iter, _) in &r.iter_max_dev {
            let faulty = r.is_faulty_iter(iter);
            match (faulty, alarmed.contains(&iter)) {
                (true, true) => self.tp += 1,
                (true, false) => self.fn_ += 1,
                (false, true) => self.fp += 1,
                (false, false) => self.tn += 1,
            }
        }
    }

    /// Tally many trials.
    pub fn from_trials<'a>(trials: impl IntoIterator<Item = &'a TrialResult>) -> Rates {
        let mut r = Rates::default();
        for t in trials {
            r.add_trial(t);
        }
        r
    }
}

/// One point of a ROC curve.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct RocPoint {
    /// Detection threshold.
    pub threshold: f64,
    /// False-positive rate at that threshold.
    pub fpr: f64,
    /// True-positive rate at that threshold.
    pub tpr: f64,
}

/// Evaluate thresholds offline against recorded max-deviations: `clean` are
/// deviations of fault-free iterations, `faulty` of fault-active ones.
pub fn roc_curve(clean: &[f64], faulty: &[f64], thresholds: &[f64]) -> Vec<RocPoint> {
    thresholds
        .iter()
        .map(|&t| RocPoint {
            threshold: t,
            fpr: frac_above(clean, t),
            tpr: frac_above(faulty, t),
        })
        .collect()
}

fn frac_above(xs: &[f64], t: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x > t).count() as f64 / xs.len() as f64
}

impl TrialResult {
    /// Was the injected fault active during `iter`?
    pub fn is_faulty_iter(&self, iter: u32) -> bool {
        match (self.fault_iter, self.heal_iter) {
            (Some(fi), Some(h)) => iter >= fi && iter < h,
            (Some(fi), None) => iter >= fi,
            _ => false,
        }
    }

    /// Iterations between fault installation and the first alarm
    /// (0 = caught within the very iteration it appeared — the paper's
    /// "instantaneous detection"). `None` if no fault or never detected.
    pub fn detection_latency_iters(&self) -> Option<u32> {
        let fi = self.fault_iter?;
        self.alarms
            .iter()
            .filter(|a| a.iter >= fi)
            .map(|a| a.iter - fi)
            .min()
    }
}

/// Split a trial's recorded deviations into (clean, faulty) by iteration.
pub fn split_devs(r: &TrialResult) -> (Vec<f64>, Vec<f64>) {
    let mut clean = Vec::new();
    let mut faulty = Vec::new();
    for &(iter, d) in &r.iter_max_dev {
        if r.is_faulty_iter(iter) {
            faulty.push(d);
        } else {
            clean.push(d);
        }
    }
    (clean, faulty)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small, fast spec for unit tests (full-size runs live in fp-bench and
    /// the integration suite).
    fn small_spec() -> TrialSpec {
        TrialSpec {
            leaves: 8,
            spines: 4,
            bytes_per_node: 8 * 1024 * 1024,
            iterations: 3,
            ..Default::default()
        }
    }

    #[test]
    fn clean_trial_raises_no_alarm() {
        let r = run_trial(&small_spec());
        assert!(!r.false_alarm, "alarms: {:?}", r.alarms);
        assert!(!r.detected);
        assert_eq!(r.iter_max_dev.len(), 3);
        for &(_, d) in &r.iter_max_dev {
            assert!(d < 0.01, "clean deviation {d}");
        }
    }

    #[test]
    fn injected_drop_is_detected_and_localized() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.02 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert!(r.detected, "devs: {:?}", r.iter_max_dev);
        assert!(!r.false_alarm);
        assert_eq!(r.localized_correctly, Some(true), "{:?}", r.localization);
    }

    #[test]
    fn bidirectional_fault_localizes_to_cable() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: true,
        });
        let r = run_trial(&spec);
        assert!(r.detected);
        assert_eq!(r.localized_correctly, Some(true), "{:?}", r.localization);
    }

    #[test]
    fn preexisting_faults_do_not_false_alarm() {
        let mut spec = small_spec();
        spec.preexisting = 3;
        let r = run_trial(&spec);
        assert_eq!(r.preexisting_ports.len(), 3);
        assert!(!r.false_alarm, "alarms: {:?}", r.alarms);
    }

    #[test]
    fn new_fault_detected_on_top_of_preexisting() {
        let mut spec = small_spec();
        spec.preexisting = 2;
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert!(r.detected);
        assert!(!r.false_alarm);
    }

    #[test]
    fn learned_model_detects_too() {
        let mut spec = small_spec();
        spec.model = ModelKind::Learned { warmup: 1 };
        spec.iterations = 4;
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.03 },
            at_iter: 2,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert!(r.detected, "learned events: {:?}", r.learned_events);
        assert!(!r.false_alarm);
    }

    #[test]
    fn blackhole_is_a_screaming_signal() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert!(r.detected);
        // The faulty iteration's deviation is enormous.
        let (_, faulty) = split_devs(&r);
        assert!(faulty.iter().any(|&d| d > 0.05), "{faulty:?}");
    }

    #[test]
    fn detection_is_instantaneous() {
        // §6: "precise, instantaneous detection" — the alarm fires in the
        // very iteration the fault appears.
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert_eq!(r.detection_latency_iters(), Some(0));
        // No fault → no latency to speak of.
        let clean = run_trial(&small_spec());
        assert_eq!(clean.detection_latency_iters(), None);
    }

    use std::cell::RefCell;
    use std::rc::Rc;

    /// Test recorder sharing its observations through an `Rc` so the test
    /// can inspect them after `run_trial_with` hands the box back.
    #[derive(Default)]
    struct Shared {
        events: Vec<(u64, fp_telemetry::Event)>,
        spans: Vec<(u32, u32, u64, u64)>,
        samples: usize,
    }
    struct Collect(Rc<RefCell<Shared>>);
    impl fp_telemetry::Recorder for Collect {
        fn sample_interval_ns(&self) -> u64 {
            100_000
        }
        fn on_link_sample(&mut self, _t_ns: u64, _link: u32, _s: &fp_telemetry::LinkSample) {
            self.0.borrow_mut().samples += 1;
        }
        fn on_event(&mut self, t_ns: u64, ev: &fp_telemetry::Event) {
            self.0.borrow_mut().events.push((t_ns, ev.clone()));
        }
        fn on_iteration(&mut self, job: u32, iter: u32, start_ns: u64, end_ns: u64) {
            self.0
                .borrow_mut()
                .spans
                .push((job, iter, start_ns, end_ns));
        }
    }

    #[test]
    fn recorder_rides_along_and_captures_the_story() {
        use fp_telemetry::Event;
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.05 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let shared = Rc::new(RefCell::new(Shared::default()));
        let (r, rec) = run_trial_with(&spec, Some(Box::new(Collect(shared.clone()))));
        assert!(rec.is_some(), "the recorder comes back for finish()");
        drop(rec);
        assert!(r.detected);
        let s = shared.borrow();
        // One span per iteration, in order, well-formed.
        assert_eq!(s.spans.len(), spec.iterations as usize);
        for (i, &(job, iter, start, end)) in s.spans.iter().enumerate() {
            assert_eq!(job, 1);
            assert_eq!(iter, i as u32);
            assert!(start < end);
        }
        assert!(s.samples > 0, "link sampler ran");
        // The full story landed as structured events: the fault install from
        // the trace ring, the monitor's alarms, and both milestones.
        let has = |f: &dyn Fn(&Event) -> bool| s.events.iter().any(|(_, e)| f(e));
        assert!(has(&|e| matches!(e, Event::FaultSet { .. })));
        assert!(has(&|e| matches!(e, Event::Alarm { .. })));
        assert!(has(
            &|e| matches!(e, Event::Milestone { name, .. } if name == "fault_installed")
        ));
        assert!(has(
            &|e| matches!(e, Event::Milestone { name, .. } if name == "fault_detected")
        ));
    }

    #[test]
    fn attached_recorder_does_not_perturb_the_trial() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.02 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let base = run_trial(&spec);
        let shared = Rc::new(RefCell::new(Shared::default()));
        let (r, _) = run_trial_with(&spec, Some(Box::new(Collect(shared))));
        assert_eq!(base.stats.events, r.stats.events);
        assert_eq!(base.iter_max_dev, r.iter_max_dev);
        assert_eq!(base.alarms, r.alarms);
        assert_eq!(base.stats.pkts_txed, r.stats.pkts_txed);

        // Neither do the inert shard fields (kept for the frozen
        // `benchmark/` package) or the variable that used to fill them in,
        // which no other test in this binary touches and nothing reads.
        std::env::set_var("FP_SHARDS", "2");
        let inert = run_trial(&TrialSpec {
            shards: Some(2),
            shard_epoch: Some(1),
            ..spec.clone()
        });
        std::env::remove_var("FP_SHARDS");
        assert_eq!(format!("{inert:?}"), format!("{base:?}"));
        assert_eq!((inert.shard_windows, inert.shard_syncs), (0, 0));
    }

    #[test]
    fn iter_goodput_is_populated_and_steady_when_clean() {
        let r = run_trial(&small_spec());
        assert_eq!(r.iter_goodput.len(), 3);
        for (i, &(iter, bps)) in r.iter_goodput.iter().enumerate() {
            assert_eq!(iter, i as u32);
            assert!(bps > 0.0);
        }
        let (_, g0) = r.iter_goodput[0];
        for &(_, g) in &r.iter_goodput {
            assert!(
                (g - g0).abs() / g0 < 0.05,
                "clean goodput varies: {g} vs {g0}"
            );
        }
        assert!(r.ctrl.is_none(), "no controller, no ctrl outcome");
    }

    #[test]
    fn dst_blackhole_is_detected_like_a_blackhole() {
        let mut spec = small_spec();
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::DstBlackhole,
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        let r = run_trial(&spec);
        assert!(r.detected);
        assert!(!r.false_alarm);
    }

    /// Scripted controller: admin-down a fixed cable at the end of a fixed
    /// iteration — exercises the `run_trial_ctl` plumbing without the real
    /// `fp-ctrl` logic (which lives downstream of this crate).
    struct Scripted {
        at_iter: u32,
        cable: (u32, u32),
        summary: CtrlSummary,
    }
    impl TrialController for Scripted {
        fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32) {
            if iter == self.at_iter && self.summary.detect_ns.is_none() {
                let now = sim.now();
                let (leaf, v) = self.cable;
                let link = sim.topo.downlink(v, leaf);
                sim.schedule_control(
                    now + SimDuration::from_us(5),
                    fp_netsim::control::ControlAction::admin_down_cable(link),
                );
                self.summary.detect_ns = Some(now.as_ns());
            }
            for ac in sim.applied_controls() {
                if self.summary.mitigate_ns.is_none() {
                    self.summary.mitigate_ns = Some(ac.at.as_ns());
                    self.summary.mitigate_iter = Some(iter);
                    self.summary.mitigated_ports.push(self.cable);
                }
            }
        }
        fn summary(&self) -> CtrlSummary {
            self.summary.clone()
        }
    }

    #[test]
    fn scripted_controller_flows_into_ctrl_outcome() {
        let mut spec = small_spec();
        spec.iterations = 4;
        spec.fault = Some(FaultSpec {
            kind: InjectedFault::Blackhole,
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        });
        // Dry-run to learn where the fault lands, then script that cable.
        let probe = run_trial(&spec);
        let cable = probe.fault_port.unwrap();
        let ctl = Rc::new(RefCell::new(Scripted {
            at_iter: 1,
            cable,
            summary: CtrlSummary::default(),
        }));
        let (r, _) = run_trial_ctl(&spec, None, Some(ctl));
        let c = r.ctrl.expect("controller ran");
        assert!(c.time_to_detect_ns.is_some());
        assert!(c.time_to_mitigate_ns.is_some());
        assert!(c.time_to_mitigate_ns >= c.time_to_detect_ns);
        assert_eq!(c.mitigated_ports, vec![cable]);
        assert_eq!(c.false_mitigations, 0, "the scripted cable IS the fault");
        // Post-mitigation goodput beats the unmitigated faulty iteration.
        let g = |i: usize| r.iter_goodput[i].1;
        assert!(g(3) > g(1), "mitigation should restore goodput");
    }

    #[test]
    fn scripted_controller_on_healthy_cable_counts_false_mitigation() {
        let mut spec = small_spec();
        spec.iterations = 3;
        let ctl = Rc::new(RefCell::new(Scripted {
            at_iter: 0,
            cable: (2, 1),
            summary: CtrlSummary::default(),
        }));
        let (r, _) = run_trial_ctl(&spec, None, Some(ctl));
        let c = r.ctrl.expect("controller ran");
        assert_eq!(c.false_mitigations, 1, "healthy cable downed in clean run");
    }

    #[test]
    fn rates_arithmetic() {
        let r = Rates {
            tp: 8,
            fn_: 2,
            fp: 1,
            tn: 9,
        };
        assert!((r.fnr() - 0.2).abs() < 1e-12);
        assert!((r.fpr() - 0.1).abs() < 1e-12);
        assert!((r.tpr() - 0.8).abs() < 1e-12);
        assert_eq!(Rates::default().fpr(), 0.0);
        assert_eq!(Rates::default().fnr(), 0.0);
    }

    #[test]
    fn roc_curve_monotonic_in_threshold() {
        let clean = [0.001, 0.002, 0.004, 0.008];
        let faulty = [0.012, 0.015, 0.02, 0.006];
        let pts = roc_curve(&clean, &faulty, &[0.0005, 0.005, 0.01, 0.05]);
        for w in pts.windows(2) {
            assert!(w[0].fpr >= w[1].fpr);
            assert!(w[0].tpr >= w[1].tpr);
        }
        // Perfect separation exists at 0.01 except the 0.006 faulty sample.
        let p01 = pts.iter().find(|p| p.threshold == 0.01).unwrap();
        assert_eq!(p01.fpr, 0.0);
        assert!((p01.tpr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cable_placement_respects_constraints() {
        // 4 leaves x 2 vspines can lose at most one cable per leaf:
        // 3 pre-existing + 1 injected = the maximum feasible 4.
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            preexisting: 3,
            ..small_spec()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let (pre, fault) = choose_cables(&spec, &mut rng, 3, true);
        let mut all = pre.clone();
        all.push(fault.unwrap());
        // Distinct.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        // No leaf lost both uplinks.
        for leaf in 0..4u32 {
            let cnt = all.iter().filter(|(l, _)| *l == leaf).count();
            assert!(cnt < 2, "leaf {leaf} lost all uplinks");
        }
    }

    #[test]
    #[should_panic(expected = "cannot place another faulty cable")]
    fn infeasible_cable_placement_panics() {
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            ..small_spec()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = choose_cables(&spec, &mut rng, 5, false);
    }
}
