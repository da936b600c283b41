//! Stage 2 of a trial — **run**: [`prepare`] resolves a [`TrialSpec`] into
//! a [`Scenario`] plus what scoring reads beside it. [`Scenario::run`] is
//! the one place the harness, the sweeps and the examples drive a
//! `Simulator`; it hands back a [`RawRun`], the simulator already freed.

use super::score::{export, score, CtrlAction, Scorer, TrialResult};
use super::spec::{
    build_schedule, choose_cables, Cable, CollectiveKind, InjectedFault, ModelKind, TrialSpec,
};
use crate::analytical::AnalyticalModel;
use crate::model::PortLoads;
use crate::simulated::SimulationModel;
use fp_collectives::alltoall::{demand_of_subset, single_nonlocal_subset};
use fp_collectives::jitter::JitterModel;
use fp_collectives::runner::{CollectiveRunner, MeasuredSubset, RunnerConfig};
use fp_collectives::schedule::Schedule;
use fp_netsim::app::{Application, MultiApp};
use fp_netsim::config::SimConfig;
use fp_netsim::counters::CounterStore;
use fp_netsim::engine::SchedStats;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::LinkId;
use fp_netsim::rng::splitmix64;
use fp_netsim::sim::memo::MemoCounters;
use fp_netsim::sim::{IterSpanRecord, Simulator};
use fp_netsim::stats::Stats;
use fp_netsim::topology::Topology;
use fp_netsim::trace::TraceBuffer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The measured collective's job id (the tag sentinel).
pub const JOB: u32 = 1;

/// A telemetry recorder riding a trial, or none.
type Rec = Option<Box<dyn fp_telemetry::Recorder>>;

/// An online control plane riding a trial: called at every iteration end
/// (counters for that iteration are complete, no later packets exist yet),
/// before the trial's scorer takes the iterations that closed, free to
/// read that iteration's live counters and schedule remediation via
/// [`Simulator::schedule_control`]. Implementations live in `fp-ctrl`;
/// the harness only needs this interface, keeping the dependency one-way.
pub trait TrialController {
    /// Iteration `iter` of the measured job has fully completed.
    fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32);
    /// Hand back the controller's action log, the one record of what it
    /// did, once the run has drained.
    fn take_log(&mut self) -> Vec<CtrlAction>;
}

/// A run with every seed and placement already resolved.
pub struct Scenario {
    /// The fabric.
    pub topo: Topology,
    /// The measured job's collective.
    pub sched: Schedule,
    /// The measured job's runner (job id, iterations, priority, jitter).
    pub rcfg: RunnerConfig,
    /// Engine parameters.
    pub sim: SimConfig,
    /// The simulator's seed.
    pub seed: u64,
    /// Link changes applied in order before the first event.
    pub before: Vec<(LinkId, FaultAction)>,
    /// `(k, link, action)`: lands at the measured job's first iteration
    /// start `>= k`, in list order — keep the list ordered by `k`.
    pub at_iter: Vec<(u32, LinkId, FaultAction)>,
    /// Other applications, after the measured runner in one `MultiApp`.
    pub extra: Vec<Box<dyn Application>>,
    /// Fast-forward repeated iterations ([`Simulator::enable_memo`]), with
    /// the iterations of `at_iter` as barriers a replay never crosses.
    pub memo: bool,
}

/// What scoring reads beside the run: cable placement and prediction.
pub(super) struct Placed {
    pub(crate) preexisting_ports: Vec<Cable>,
    pub(crate) fault_port: Option<Cable>,
    pub(crate) predicted: Option<PortLoads>,
}

/// What a finished run leaves behind, moved out of the simulator.
pub struct RawRun {
    /// Application bytes one iteration of the schedule moves.
    pub(crate) sched_total_bytes: u64,
    /// When the first of [`Scenario::at_iter`] landed (a trial's fault).
    pub(crate) install_ns: Option<u64>,
    /// Simulated time when the run went idle.
    pub(crate) end_ns: u64,
    /// Every flow posted was delivered in full.
    pub all_flows_complete: bool,
    /// Leaf-ingress counters: every entry after [`Scenario::run`]; a
    /// trial's scorer has taken the measured job's.
    pub counters: CounterStore,
    /// Agg-ingress counters (3-level fabrics; empty on a fat tree).
    pub agg_counters: CounterStore,
    /// Every iteration's span.
    pub(crate) spans: Vec<IterSpanRecord>,
    /// Engine counters.
    pub stats: Stats,
    /// The exceptional-event trace.
    pub(crate) trace: TraceBuffer,
    /// The scheduler's own counters.
    pub(crate) sched: SchedStats,
    /// Fast-forward accounting (`fallback`: why a memo request ran live).
    pub memo: MemoCounters,
    /// The controller's action log, when one rode the trial.
    pub(crate) ctrl: Option<Vec<CtrlAction>>,
}

fn prepare(spec: &TrialSpec) -> (Scenario, Placed) {
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

    // The injected fault lands at its iteration and, if it heals, clears
    // at the first iteration start at or after both onset and heal; a
    // bidirectional one changes the downlink, then its peer.
    let mut at_iter = Vec::new();
    if let (Some(f), Some((fleaf, fv))) = (spec.fault, fault_port) {
        let kind = match f.kind {
            InjectedFault::Drop { rate } => FaultKind::SilentDrop { rate },
            InjectedFault::Blackhole => FaultKind::SilentBlackhole,
            InjectedFault::DstBlackhole => FaultKind::DstBlackhole {
                dst_leaf: fleaf as u16,
            },
        };
        let down = topo.downlink(fv, fleaf);
        let heal = f
            .heal_at_iter
            .map(|h| (h.max(f.at_iter), FaultAction::Clear));
        for (k, action) in std::iter::once((f.at_iter, FaultAction::Set(kind))).chain(heal) {
            at_iter.push((k, down, action));
            if f.bidirectional {
                at_iter.push((k, topo.peer[down.idx()], action));
            }
        }
    }
    let rcfg = RunnerConfig {
        job: JOB,
        iterations: spec.iterations,
        jitter: spec.jitter,
        jitter_seed: splitmix64(spec.seed ^ 0x717),
        measured,
        ..Default::default()
    };
    let scenario = Scenario {
        before: admin_down
            .into_iter()
            .map(|l| (l, FaultAction::Set(FaultKind::AdminDown)))
            .collect(),
        at_iter,
        memo: spec.memo.unwrap_or(false),
        ..Scenario::new(topo, sched, rcfg, spec.sim.clone(), spec.seed)
    };
    let placed = Placed {
        preexisting_ports,
        fault_port,
        predicted,
    };
    (scenario, placed)
}

/// Why a run that requests memoization ([`TrialSpec::memo`] / [`Scenario::memo`])
/// must run fully live, or `None` when the harness can enable it. Start
/// jitter draws from the runner's private RNG, invisible to the engine
/// fingerprint; controllers and recorders observe every live iteration.
/// Spray-policy ineligibility (random draws, the adaptive policy's
/// absolute-grid deficit decay) is the engine's own gate and surfaces
/// through [`fp_netsim::prelude::MemoCounters::fallback`] instead.
pub fn memo_ineligibility(jitter: JitterModel, controller: bool, recorder: bool) -> Option<String> {
    if controller {
        return Some("an online controller observes every iteration end".into());
    }
    if recorder {
        return Some("telemetry recorder samples on absolute time".into());
    }
    if jitter != JitterModel::None {
        return Some("per-node start jitter draws outside the fingerprint".into());
    }
    None
}

impl Scenario {
    /// `sched` under `rcfg` on `topo` and nothing else: no link changes,
    /// no other applications, memo off.
    pub fn new(
        topo: Topology,
        sched: Schedule,
        rcfg: RunnerConfig,
        sim: SimConfig,
        seed: u64,
    ) -> Self {
        Scenario {
            topo,
            sched,
            rcfg,
            sim,
            seed,
            before: Vec::new(),
            at_iter: Vec::new(),
            extra: Vec::new(),
            memo: false,
        }
    }

    /// Run to completion and move out what the run left behind, every
    /// counter entry included.
    pub fn run(self) -> RawRun {
        self.run_observed(None, None, None).0
    }

    /// [`Scenario::run`] with a recorder, a controller and a scorer riding
    /// along; the recorder comes back for the export and the caller's
    /// `finish`. At each iteration end, after the controller, the scorer
    /// takes the iterations that closed; the rest it takes once the run
    /// has drained, and always all of them when memo is engaged, whose
    /// replay must see the counters it recorded.
    fn run_observed(
        mut self,
        recorder: Rec,
        controller: Option<Rc<RefCell<dyn TrialController>>>,
        scorer: Option<&Rc<RefCell<Scorer>>>,
    ) -> (RawRun, Rec) {
        // Temporal-symmetry fast-forward: enable when requested and eligible.
        // The boundary changes are barriers a replay never crosses, so the
        // iteration-start hook — which only acts at exactly those
        // iterations — is safe to skip in between (`memo_barrier_hooks`).
        let memo_ineligible = self
            .memo
            .then(|| memo_ineligibility(self.rcfg.jitter, controller.is_some(), recorder.is_some()))
            .flatten();

        let mut sim = Simulator::new(self.topo, self.sim, self.seed);
        if let Some(rec) = recorder {
            sim.set_recorder(rec);
        }
        let memo = self.memo && memo_ineligible.is_none();
        if memo {
            sim.enable_memo(self.at_iter.iter().map(|c| c.0).collect());
            self.rcfg.memo_barrier_hooks = true;
        }
        for &(link, action) in &self.before {
            sim.apply_fault_now(link, action, false);
        }
        let sched_total_bytes = self.sched.total_bytes();
        let mut runner = CollectiveRunner::new(self.sched, self.rcfg);
        let install_ns: Rc<Cell<Option<u64>>> = Rc::default();
        if !self.at_iter.is_empty() {
            let (at_iter, install_ns) = (self.at_iter, install_ns.clone());
            let mut next = 0;
            runner.set_iteration_start_hook(Box::new(move |sim, iter| {
                while let Some(&(_, link, action)) = at_iter.get(next).filter(|c| c.0 <= iter) {
                    if next == 0 {
                        install_ns.set(Some(sim.now().as_ns()));
                    }
                    sim.apply_fault_now(link, action, false);
                    next += 1;
                }
            }));
        }
        let closing = scorer.filter(|_| !memo).cloned();
        if controller.is_some() || closing.is_some() {
            let ctl = controller.clone();
            runner.set_iteration_end_hook(Box::new(move |sim, iter| {
                if let Some(ctl) = &ctl {
                    ctl.borrow_mut().on_iteration_end(sim, iter);
                }
                if let Some(scorer) = &closing {
                    scorer.borrow_mut().close_below(sim, iter);
                }
            }));
        }
        if self.extra.is_empty() {
            sim.set_app(Box::new(runner));
        } else {
            let mut apps: Vec<Box<dyn Application>> = vec![Box::new(runner)];
            apps.extend(self.extra);
            sim.set_app(Box::new(MultiApp::new(apps)));
        }
        sim.run();
        if let Some(scorer) = scorer {
            scorer
                .borrow_mut()
                .take_below(&mut sim.counters, u32::MAX, true);
        }

        // Move out what the caller reads and free the simulator before
        // scoring allocates. The counters and the trace ring change hands;
        // nothing is copied.
        let mut memo = sim.memo_counters().unwrap_or_default();
        memo.fallback = memo_ineligible.or(memo.fallback);
        let raw = RawRun {
            sched_total_bytes,
            install_ns: install_ns.get(),
            end_ns: sim.now().as_ns(),
            all_flows_complete: sim.all_flows_complete(),
            counters: std::mem::replace(&mut sim.counters, CounterStore::new(0, 0)),
            agg_counters: std::mem::replace(&mut sim.agg_counters, CounterStore::new(0, 0)),
            spans: sim.iter_spans().to_vec(),
            stats: sim.stats.clone(),
            trace: std::mem::replace(&mut sim.trace, TraceBuffer::new(0)),
            sched: sim.sched_stats(),
            memo,
            ctrl: controller.map(|c| c.borrow_mut().take_log()),
        };
        (raw, sim.take_recorder())
    }
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
    let (scenario, placed) = prepare(spec);
    let scorer = Rc::new(RefCell::new(Scorer::new(spec, &placed)));
    let (raw, mut recorder) = scenario.run_observed(recorder, controller, Some(&scorer));
    let end_ns = raw.end_ns;
    let scorer = Rc::into_inner(scorer).expect("the run dropped its hook");
    let result = score(spec, placed, raw, scorer.into_inner());
    if let Some(rec) = recorder.as_deref_mut() {
        export(rec, spec, &result, end_ns);
    }
    (result, recorder)
}

#[cfg(test)]
mod tests {
    use super::super::score::{split_devs, CtrlPhase};
    use super::super::spec::FaultSpec;
    use super::*;
    use fp_netsim::control::{ControlAction, ControlVerb};
    use fp_netsim::time::{SimDuration, SimTime};
    use fp_netsim::trace::TraceEvent;

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
        log: Vec<CtrlAction>,
    }
    impl Scripted {
        fn new(at_iter: u32, cable: (u32, u32)) -> Self {
            let log = Vec::new();
            Scripted {
                at_iter,
                cable,
                log,
            }
        }
        fn act(&mut self, t_ns: u64, iter: u32, phase: CtrlPhase) {
            self.log.push(CtrlAction {
                t_ns,
                iter,
                phase,
                cable: Some(self.cable),
                verb: Some(ControlVerb::AdminDown),
                detail: String::new(),
            });
        }
    }
    impl TrialController for Scripted {
        fn on_iteration_end(&mut self, sim: &mut Simulator, iter: u32) {
            if iter == self.at_iter && self.log.is_empty() {
                let now = sim.now();
                let (leaf, v) = self.cable;
                let link = sim.topo.downlink(v, leaf);
                let action = ControlAction::cable(link, ControlVerb::AdminDown);
                sim.schedule_control(now + SimDuration::from_us(5), action);
                self.act(now.as_ns(), iter, CtrlPhase::Detect);
                self.act(now.as_ns(), iter, CtrlPhase::Localize);
            }
            let mitigated = self.log.iter().any(|a| a.phase == CtrlPhase::Mitigate);
            if let Some(ac) = sim.applied_controls().first().filter(|_| !mitigated) {
                self.act(ac.at.as_ns(), iter, CtrlPhase::Mitigate);
            }
        }
        fn take_log(&mut self) -> Vec<CtrlAction> {
            std::mem::take(&mut self.log)
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
        let ctl = Rc::new(RefCell::new(Scripted::new(1, cable)));
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
        let ctl = Rc::new(RefCell::new(Scripted::new(0, (2, 1))));
        let (r, _) = run_trial_ctl(&spec, None, Some(ctl));
        let c = r.ctrl.expect("controller ran");
        assert_eq!(c.false_mitigations, 1, "healthy cable downed in clean run");
    }

    /// A trial scored as its iterations close reports what the whole-store
    /// path reported: one flushing scan of the finished store and its
    /// whole snapshot sequence, over `Scenario::run` of the same prepared
    /// scenario.
    #[test]
    fn scoring_as_iterations_close_equals_scanning_the_finished_store() {
        use crate::detector::Detector;
        use crate::monitor::Monitor;
        use crate::snapshot::CounterSnapshot;
        let fault = |kind, at_iter, heal_at_iter, bidirectional| {
            Some(FaultSpec {
                kind,
                at_iter,
                heal_at_iter,
                bidirectional,
            })
        };
        let drop = InjectedFault::Drop { rate: 0.03 };
        let base = TrialSpec {
            bytes_per_node: 2 * 1024 * 1024,
            iterations: 5,
            ..small_spec()
        };
        let learned = |warmup| ModelKind::Learned { warmup };
        let specs = [
            base.clone(),
            TrialSpec {
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                fault: fault(InjectedFault::Blackhole, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                fault: fault(InjectedFault::DstBlackhole, 1, Some(3), false),
                ..base.clone()
            },
            TrialSpec {
                fault: fault(drop, 2, None, true),
                ..base.clone()
            },
            TrialSpec {
                fault: fault(InjectedFault::Blackhole, 1, Some(3), true),
                ..base.clone()
            },
            TrialSpec {
                model: ModelKind::Simulation,
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                model: learned(1),
                fault: fault(drop, 0, Some(2), false),
                ..base.clone()
            },
            TrialSpec {
                model: learned(3),
                fault: fault(InjectedFault::Blackhole, 3, None, false),
                ..base.clone()
            },
            TrialSpec {
                preexisting: 2,
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                collective: CollectiveKind::AllToAll,
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                collective: CollectiveKind::HalvingDoubling,
                fault: fault(InjectedFault::Blackhole, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                jitter: JitterModel::None,
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
            TrialSpec {
                hosts_per_leaf: 2,
                fault: fault(drop, 2, None, false),
                ..base.clone()
            },
        ];
        for spec in specs {
            let r = run_trial(&spec);
            let (scenario, placed) = prepare(&spec);
            let detector = Detector::new(spec.threshold);
            let mut monitor = match spec.model {
                ModelKind::Learned { warmup } => Monitor::new_learned(JOB, detector, warmup),
                _ => Monitor::new_fixed(JOB, detector, placed.predicted.unwrap()),
            };
            let raw = scenario.run();
            monitor.scan(&raw.counters, true);
            let snapshots = CounterSnapshot::sequence_from(&raw.counters, JOB);
            assert_eq!(snapshots.len(), spec.iterations as usize, "{spec:?}");
            let show = |x: &dyn std::fmt::Debug| format!("{x:?}");
            assert_eq!(show(&r.alarms), show(&monitor.alarms), "{spec:?}");
            assert_eq!(show(&r.iter_max_dev), show(&monitor.iter_max_dev));
            assert_eq!(show(&r.learned_events), show(&monitor.learned_events));
            assert_eq!(show(&r.snapshots), show(&snapshots), "{spec:?}");
        }
    }

    /// A 4-leaf ring of five 64 KiB iterations on `topo`, with link changes
    /// before the run and at iteration starts.
    fn changed_ring(
        topo: Topology,
        before: Vec<(LinkId, FaultAction)>,
        at_iter: Vec<(u32, LinkId, FaultAction)>,
    ) -> RawRun {
        let hosts: Vec<_> = (0..4).map(fp_netsim::ids::HostId).collect();
        let sched = fp_collectives::ring::ring_allreduce(&hosts, 64 << 10);
        let rcfg = RunnerConfig {
            iterations: 5,
            ..Default::default()
        };
        Scenario {
            before,
            at_iter,
            ..Scenario::new(topo, sched, rcfg, SimConfig::default(), 3)
        }
        .run()
    }

    fn fat4() -> Topology {
        Topology::fat_tree(fp_netsim::topology::FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        })
    }

    /// The set and clear records of the run's trace, in order.
    fn link_changes(run: &RawRun) -> Vec<(u64, TraceEvent)> {
        run.trace
            .records()
            .filter(|(_, e)| {
                matches!(
                    e,
                    TraceEvent::FaultSet { .. } | TraceEvent::FaultCleared { .. }
                )
            })
            .map(|&(t, e)| (t.as_ns(), e))
            .collect()
    }

    /// `t` falls after iteration `k - 1` ended and before iteration `k`
    /// posted its first transfer.
    fn between_iterations(run: &RawRun, t: u64, k: usize) -> bool {
        run.spans[k - 1].end.as_ns() <= t && t < run.spans[k].start.as_ns()
    }

    #[test]
    fn changes_at_one_boundary_land_in_list_order() {
        let topo = fat4();
        let link = topo.downlink(1, 2);
        let kind = FaultKind::SilentDrop { rate: 0.5 };
        let run = changed_ring(
            topo,
            Vec::new(),
            vec![
                (2, link, FaultAction::Set(kind)),
                (2, link, FaultAction::Clear),
            ],
        );
        let changes = link_changes(&run);
        let at = changes[0].0;
        assert_eq!(
            changes,
            vec![
                (at, TraceEvent::FaultSet { link, kind }),
                (at, TraceEvent::FaultCleared { link }),
            ]
        );
        assert!(between_iterations(&run, at, 2));
        assert_eq!(run.install_ns, Some(at));
    }

    #[test]
    fn a_set_and_a_clear_bracket_exactly_their_iterations() {
        let topo = fat4();
        let link = topo.downlink(0, 3);
        let kind = FaultKind::SilentDrop { rate: 0.05 };
        let run = changed_ring(
            topo,
            Vec::new(),
            vec![
                (1, link, FaultAction::Set(kind)),
                (3, link, FaultAction::Clear),
            ],
        );
        let changes = link_changes(&run);
        let (set_at, clear_at) = (changes[0].0, changes[1].0);
        assert_eq!(
            changes,
            vec![
                (set_at, TraceEvent::FaultSet { link, kind }),
                (clear_at, TraceEvent::FaultCleared { link }),
            ]
        );
        assert!(between_iterations(&run, set_at, 1));
        assert!(between_iterations(&run, clear_at, 3));
        assert_eq!(run.install_ns, Some(set_at));
        assert!(run.all_flows_complete);
    }

    #[test]
    fn a_change_before_the_run_is_traced_at_zero_ahead_of_every_packet() {
        let topo = fat4();
        let link = topo.downlink(1, 2);
        let kind = FaultKind::SilentDrop { rate: 0.05 };
        let run = changed_ring(topo, vec![(link, FaultAction::Set(kind))], Vec::new());
        let records: Vec<_> = run.trace.records().collect();
        assert_eq!(
            *records[0],
            (SimTime::ZERO, TraceEvent::FaultSet { link, kind })
        );
        assert!(
            records[1..]
                .iter()
                .any(|(_, e)| matches!(e, TraceEvent::Drop { .. })),
            "the fault dropped packets after it was set"
        );
        assert_eq!(
            run.install_ns, None,
            "only boundary changes count as installs"
        );
    }
}
