//! Stage 2 of a trial — **run**: [`prepare`] settles everything that
//! happens once before the first event (topology, cable placement,
//! schedule, measured subset, prediction, runner config); [`execute`] is
//! the only code in the harness that holds a `Simulator` and hands back a
//! [`RawRun`] — plain data, the simulator already freed. The three public
//! doors differ only in what rides along.

use super::score::{export, score, CtrlSummary, TrialResult};
use super::spec::{
    build_schedule, choose_cables, Cable, CollectiveKind, FaultSpec, InjectedFault, ModelKind,
    TrialSpec,
};
use crate::analytical::AnalyticalModel;
use crate::model::PortLoads;
use crate::simulated::SimulationModel;
use crate::snapshot::CounterSnapshot;
use fp_collectives::alltoall::{demand_of_subset, single_nonlocal_subset};
use fp_collectives::jitter::JitterModel;
use fp_collectives::runner::{CollectiveRunner, MeasuredSubset, RunnerConfig};
use fp_collectives::schedule::Schedule;
use fp_netsim::counters::CounterStore;
use fp_netsim::engine::{SchedKind, SchedStats};
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::LinkId;
use fp_netsim::rng::splitmix64;
use fp_netsim::sim::memo::MemoCounters;
use fp_netsim::sim::{IterSpanRecord, Simulator};
use fp_netsim::stats::Stats;
use fp_netsim::topology::Topology;
use fp_netsim::trace::TraceRecord;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The measured collective's job id (the tag sentinel).
pub(super) const JOB: u32 = 1;

/// A telemetry recorder riding a trial, or none.
type Rec = Option<Box<dyn fp_telemetry::Recorder>>;

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

/// Everything settled before the first event.
struct Prepared<'a> {
    spec: &'a TrialSpec,
    topo: Topology,
    sched: Schedule,
    rcfg: RunnerConfig,
    /// Known faults: both directions of each pre-existing cable.
    admin_down: Vec<LinkId>,
    /// The injected fault in the engine's terms: spec, downlink, kind.
    injected: Option<(FaultSpec, LinkId, FaultKind)>,
    preexisting_ports: Vec<Cable>,
    fault_port: Option<Cable>,
    predicted: Option<PortLoads>,
}

/// What a finished run leaves behind, copied out of the simulator: the
/// only hand-off between running and scoring.
pub(super) struct RawRun {
    pub preexisting_ports: Vec<Cable>,
    pub fault_port: Option<Cable>,
    pub predicted: Option<PortLoads>,
    /// Application bytes one iteration of the schedule moves.
    pub sched_total_bytes: u64,
    /// Ground-truth fault install time, for time-to-detect/-mitigate.
    pub install_ns: Option<u64>,
    pub end_ns: u64,
    pub counters: CounterStore,
    pub spans: Vec<IterSpanRecord>,
    pub stats: Stats,
    pub trace: Vec<TraceRecord>,
    pub trace_offered: u64,
    pub trace_truncated: bool,
    pub sched_kind: SchedKind,
    pub sched: SchedStats,
    /// Fast-forward accounting; `fallback` is why a trial that requested
    /// memoization ran live, the harness's reason first, else the engine's.
    pub memo: MemoCounters,
    /// The controller's own record, when one rode the trial.
    pub ctrl: Option<CtrlSummary>,
}

fn prepare(spec: &TrialSpec) -> Prepared<'_> {
    let topo = Topology::fat_tree(spec.fabric());
    let mut place_rng = SmallRng::seed_from_u64(splitmix64(spec.seed ^ 0xFA_17));
    let (preexisting_ports, fault_port) =
        choose_cables(spec, &mut place_rng, spec.preexisting, spec.fault.is_some());

    // Known faults: cables are down in both directions, visible to routing.
    let admin_down: Vec<LinkId> = preexisting_ports
        .iter()
        .flat_map(|&(leaf, v)| [topo.uplink(leaf, v), topo.downlink(v, leaf)])
        .collect();

    let sched = build_schedule(spec);
    // Multi-destination collectives get the paper's §5.1 subset treatment:
    // one measured (tagged, prioritized) non-local flow per leaf; the rest
    // of the collective runs unmeasured. Demand models the subset only.
    let measured = match spec.collective {
        CollectiveKind::AllToAll => {
            MeasuredSubset::Transfers(single_nonlocal_subset(&sched, &topo.host_leaf))
        }
        _ => MeasuredSubset::All,
    };
    let predicted = match spec.model {
        ModelKind::Analytical => {
            let demand = match &measured {
                MeasuredSubset::Transfers(subset) => {
                    demand_of_subset(&sched, subset, topo.n_hosts())
                }
                MeasuredSubset::All => sched.demand(topo.n_hosts()),
            };
            let p = AnalyticalModel::new(&topo, admin_down.iter().copied()).predict(&demand);
            Some(p.loads)
        }
        ModelKind::Simulation => Some(SimulationModel::new(spec.sim.clone()).predict_measured(
            &topo,
            &admin_down,
            &sched,
            JOB,
            measured.clone(),
        )),
        ModelKind::Learned { .. } => None,
    };

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
    let rcfg = RunnerConfig {
        job: JOB,
        iterations: spec.iterations,
        jitter: spec.jitter,
        jitter_seed: splitmix64(spec.seed ^ 0x717),
        measured,
        ..Default::default()
    };
    Prepared {
        spec,
        topo,
        sched,
        rcfg,
        admin_down,
        injected,
        preexisting_ports,
        fault_port,
        predicted,
    }
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

/// Run the prepared trial to completion and copy out what scoring reads.
/// The recorder comes back for the export and the caller's `finish`.
fn execute(
    mut p: Prepared<'_>,
    recorder: Rec,
    controller: Option<Rc<RefCell<dyn TrialController>>>,
) -> (RawRun, Rec) {
    let spec = p.spec;
    // Temporal-symmetry fast-forward: enable when requested and eligible.
    // Fault onsets and heal edges are barriers a replay never crosses, so
    // the iteration-start install/heal hook — which only acts at exactly
    // those iterations — is safe to skip in between (`memo_barrier_hooks`).
    let memo_requested = spec.memo.unwrap_or(false);
    let memo_ineligible = memo_requested
        .then(|| memo_ineligibility(spec, controller.is_some(), recorder.is_some()))
        .flatten();

    let mut sim = Simulator::new(p.topo, spec.sim.clone(), spec.seed);
    if let Some(rec) = recorder {
        sim.set_recorder(rec);
    }
    if memo_requested && memo_ineligible.is_none() {
        let barriers = spec.fault.map_or(Vec::new(), |f| {
            let heal = f.heal_at_iter.map(|h| h.max(f.at_iter));
            std::iter::once(f.at_iter).chain(heal).collect()
        });
        sim.enable_memo(barriers);
        p.rcfg.memo_barrier_hooks = true;
    }
    for &l in &p.admin_down {
        sim.apply_fault_now(l, FaultAction::Set(FaultKind::AdminDown), false);
    }
    let sched_total_bytes = p.sched.total_bytes();
    let mut runner = CollectiveRunner::new(p.sched, p.rcfg);
    let install_ns: Rc<Cell<Option<u64>>> = Rc::default();
    if let Some((f, down, kind)) = p.injected {
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

    // Copy out what scoring reads and free the simulator — its flow table
    // and queues are most of a trial's memory — before scoring allocates:
    // kept alive to the end it cost +23 % peak RSS on the benchmark's
    // 24-iteration `steady_adaptive`.
    let mut memo = sim.memo_counters().unwrap_or_default();
    memo.fallback = memo_ineligible.or(memo.fallback);
    let raw = RawRun {
        preexisting_ports: p.preexisting_ports,
        fault_port: p.fault_port,
        predicted: p.predicted,
        sched_total_bytes,
        install_ns: install_ns.get(),
        end_ns: sim.now().as_ns(),
        counters: sim.counters.clone(),
        spans: sim.iter_spans().to_vec(),
        stats: sim.stats.clone(),
        trace: sim.trace.to_records(),
        trace_offered: sim.trace.offered,
        trace_truncated: sim.trace.truncated(),
        sched_kind: sim.sched_kind(),
        sched: sim.sched_stats(),
        memo,
        ctrl: controller.map(|c| c.borrow().summary()),
    };
    (raw, sim.take_recorder())
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
pub fn run_trial_with(spec: &TrialSpec, recorder: Rec) -> (TrialResult, Rec) {
    run_trial_ctl(spec, recorder, None)
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
    recorder: Rec,
    controller: Option<Rc<RefCell<dyn TrialController>>>,
) -> (TrialResult, Rec) {
    let (raw, mut recorder) = execute(prepare(spec), recorder, controller);
    let end_ns = raw.end_ns;
    let result = score(spec, raw);
    if let Some(rec) = recorder.as_deref_mut() {
        export(rec, spec, &result, end_ns);
    }
    (result, recorder)
}

/// Run `specs` on a pool of `threads` workers and stream every trial's
/// per-iteration [`CounterSnapshot`] sequence into `push` — the feed side
/// of a monitor service (`fp-monitord` wraps its ingest handle in exactly
/// this closure shape). Each trial becomes one stream, stamped
/// `fabric-<index>`; snapshots within a stream arrive in scan order, while
/// concurrent trials interleave arbitrarily, which is what a service keyed
/// by `(fabric, job)` must tolerate. Returns the trial results in spec
/// order, so callers can compare a service's per-stream alarms against
/// the offline monitor's ([`TrialResult::alarms`]).
pub fn monitord_feed(
    specs: &[TrialSpec],
    threads: usize,
    push: impl Fn(CounterSnapshot) + Sync,
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

#[cfg(test)]
mod tests {
    use super::super::score::split_devs;
    use super::*;
    use fp_netsim::time::SimDuration;

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
        // `benchmark/` package).
        let inert = run_trial(&TrialSpec {
            shards: Some(2),
            shard_epoch: Some(1),
            ..spec.clone()
        });
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
}
