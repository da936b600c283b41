//! Stage 3 of a trial — **score**. During the run the [`Scorer`] takes
//! each iteration of the measured job as it closes; after it [`score`] is
//! a pure function from the spec, the placement, what the run left
//! behind ([`RawRun`]) and the scorer to a [`TrialResult`] — join with
//! ground truth, ring verdict, goodput, controller outcome — then
//! [`export`] of the same story into a telemetry recorder. What
//! sweeps aggregate over many results ([`Rates`], [`roc_curve`],
//! [`goodput_phases`]) lives here too, so tests score with the same code.

use super::run::{Placed, RawRun, JOB};
use super::spec::{Cable, CollectiveKind, ModelKind, TrialSpec};
use crate::detector::Detector;
use crate::learned::LearnedUpdate;
use crate::localizer::{Localizer, RingLocalization};
use crate::model::PortLoads;
use crate::monitor::{Alarm, Monitor};
use crate::snapshot::CounterSnapshot;
use fp_netsim::control::ControlVerb;
use fp_netsim::counters::CounterStore;
use fp_netsim::sim::{IterSpanRecord, Simulator};
use fp_netsim::stats::Stats;
use serde::{Deserialize, Serialize};

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
    pub(crate) fn name(self) -> &'static str {
        match self {
            CtrlPhase::Detect => "detect",
            CtrlPhase::Localize => "localize",
            CtrlPhase::Mitigate => "mitigate",
            CtrlPhase::Rebaseline => "rebaseline",
        }
    }
}

/// One timestamped control-plane step. A controller's log of these is the
/// one record of what a closed loop did; [`CtrlOutcome`] is derived from it.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlAction {
    /// Simulated time the step happened, nanoseconds.
    pub t_ns: u64,
    /// The measured job's iteration whose end produced the step.
    pub iter: u32,
    /// Which phase of the loop.
    pub phase: CtrlPhase,
    /// The `(leaf, vspine)` cable a Localize or Mitigate step names.
    pub cable: Option<Cable>,
    /// The verb a Localize step scheduled or a Mitigate step harvested.
    pub verb: Option<ControlVerb>,
    /// Free-form detail for humans.
    pub detail: String,
}

impl CtrlAction {
    /// The verb this step scheduled, if it is a Localize step that sent one.
    pub fn scheduled(&self) -> Option<ControlVerb> {
        self.verb.filter(|_| self.phase == CtrlPhase::Localize)
    }
}

/// End-to-end closed-loop outcome of a controller-enabled trial: the
/// controller's action log joined with the harness's ground truth (fault
/// install time and cable identity).
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CtrlOutcome {
    /// Fault install → first acted-on alarm, nanoseconds. Measured from
    /// run start when no fault was injected (a false detection).
    pub time_to_detect_ns: Option<u64>,
    /// Fault install → first remediation applied, nanoseconds.
    pub time_to_mitigate_ns: Option<u64>,
    /// Iteration during which the first remediation landed.
    pub mitigate_iter: Option<u32>,
    /// `(leaf, vspine)` cables of the Mitigate steps: each verb the
    /// controller saw land, in order.
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
    /// The run's trace ring (drops, fault transitions, PFC state changes,
    /// flow failures), oldest record first. When it evicted records
    /// ([`TraceBuffer::truncated`](fp_netsim::trace::TraceBuffer::truncated))
    /// exports must say so — the retained window is the *most recent* slice.
    pub trace: fp_netsim::trace::TraceBuffer,
    /// The model prediction (`None` for learned until formed).
    pub predicted: Option<PortLoads>,
    /// Scheduler occupancy counters (telemetry only; result rows never
    /// serialize them).
    pub sched: fp_netsim::engine::SchedStats,
    /// Per-iteration goodput `(iter, bits/sec)` of the measured job, from
    /// the engine's always-on span log: schedule bytes over iteration span.
    pub iter_goodput: Vec<(u32, f64)>,
    /// Closed-loop outcome when a controller rode the trial
    /// ([`run_trial_ctl`](super::run_trial_ctl)); `None` otherwise.
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
    /// the stream a monitor service ingests ([`crate::snapshot`]), and the
    /// one copy of the observed cells
    /// ([`CounterSnapshot::loads`] for figure harnesses). The final row
    /// has `last` set; `fabric` is empty until a feed stamps a stream id.
    pub snapshots: Vec<CounterSnapshot>,
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

/// The trial's scorer: the measured job's counter entries, handed over as
/// they close, go through the per-snapshot step fp-monitord takes
/// ([`Monitor::score`]), so the trial holds only its open iterations.
pub(super) struct Scorer {
    monitor: Monitor,
    /// Every entry handed over, in iteration order.
    snapshots: Vec<CounterSnapshot>,
}

impl Scorer {
    /// A scorer for `spec`'s model, `placed` holding the prediction of a
    /// fixed one.
    pub(super) fn new(spec: &TrialSpec, placed: &Placed) -> Self {
        let detector = Detector::new(spec.threshold);
        let monitor = match (&spec.model, &placed.predicted) {
            (ModelKind::Learned { warmup }, _) => Monitor::new_learned(JOB, detector, *warmup),
            (_, Some(p)) => Monitor::new_fixed(JOB, detector, p.clone()),
            _ => unreachable!("non-learned model without prediction"),
        };
        Scorer {
            monitor,
            snapshots: Vec::new(),
        }
    }

    /// At iteration `iter`'s end, hand over the measured job's entries
    /// below it that no flow can still add a byte to. `iter`'s own entry,
    /// the newest, stays for the run's end to flush with, so none is taken
    /// while it is missing.
    pub(super) fn close_below(&mut self, sim: &mut Simulator, iter: u32) {
        if sim.counters.get(JOB, iter).is_some() {
            let quiet = (0..iter).rev().find(|&i| !sim.may_record(JOB, i));
            self.take_below(&mut sim.counters, quiet.map_or(0, |i| i + 1), false);
        }
    }

    /// Hand over the measured job's entries below `iter`, in order, `last`
    /// set on the final one when `end` (the run has drained).
    pub(super) fn take_below(&mut self, counters: &mut CounterStore, iter: u32, end: bool) {
        let entries = counters.take_below(JOB, iter);
        let n = entries.len();
        for (k, (i, entry)) in entries.into_iter().enumerate() {
            let mut snap = CounterSnapshot::of_entry(JOB, i, entry);
            snap.last = end && k + 1 == n;
            self.monitor.score(&mut snap.clone());
            self.snapshots.push(snap);
        }
    }
}

/// Score one run: everything [`TrialResult`] reports that the engine and
/// the scorer did not hand over ready-made.
pub(super) fn score(spec: &TrialSpec, placed: Placed, raw: RawRun, scorer: Scorer) -> TrialResult {
    let Scorer { monitor, snapshots } = scorer;
    let (localization, localized_correctly) =
        ring_verdict(spec, placed.fault_port, &monitor.alarms).unzip();
    let mut r = TrialResult {
        detected: false,
        false_alarm: false,
        iter_max_dev: monitor.iter_max_dev,
        alarms: monitor.alarms,
        learned_events: monitor.learned_events,
        fault_port: placed.fault_port,
        fault_iter: spec.fault.map(|f| f.at_iter),
        heal_iter: spec.fault.and_then(|f| f.heal_at_iter),
        localization,
        localized_correctly,
        preexisting_ports: placed.preexisting_ports,
        iter_goodput: iter_goodput(&raw.spans, raw.sched_total_bytes),
        ctrl: raw
            .ctrl
            .map(|log| ctrl_outcome(log, raw.install_ns, placed.fault_port)),
        stats: raw.stats,
        trace: raw.trace,
        predicted: placed.predicted,
        sched: raw.sched,
        shard_windows: 0,
        shard_syncs: 0,
        snapshots,
        memo_hits: raw.memo.hits,
        memo_replayed_iters: raw.memo.replayed_iters,
        memo_replayed_events: raw.memo.replayed_events,
        memo_fallback: raw.memo.fallback,
    };
    r.detected = r.alarms.iter().any(|a| r.is_faulty_iter(a.iter));
    r.false_alarm = r.alarms.iter().any(|a| !r.is_faulty_iter(a.iter));
    r
}

/// Ring localization over the alarms from the fault iteration on, and
/// whether it names exactly the injected cable (bidirectional fault) or
/// exactly the injected port, unpaired (one direction). Only for rings
/// with one host per leaf and an injected fault; `None` otherwise.
fn ring_verdict(
    spec: &TrialSpec,
    fault_port: Option<Cable>,
    alarms: &[Alarm],
) -> Option<(RingLocalization, bool)> {
    let is_ring = matches!(
        spec.collective,
        CollectiveKind::RingAllReduce | CollectiveKind::RingReduceScatter
    );
    let (Some(f), Some(port), true, 1) = (spec.fault, fault_port, is_ring, spec.hosts_per_leaf)
    else {
        return None;
    };
    let loc = Localizer::default()
        .localize_ring_alarms(alarms.iter().filter(|a| a.iter >= f.at_iter), spec.leaves);
    let correct = if f.bidirectional {
        loc.cables == [port]
    } else {
        loc.cables.is_empty() && loc.unpaired == [port]
    };
    Some((loc, correct))
}

/// Per-iteration goodput `(iter, bits/sec)` of the measured job from the
/// engine's always-on span log: the schedule's application bytes over each
/// iteration's span. Faults stretch the span (retransmissions, stalls), so
/// this is the workload-level signal a remediation loop is judged by.
fn iter_goodput(spans: &[IterSpanRecord], sched_total_bytes: u64) -> Vec<(u32, f64)> {
    spans
        .iter()
        .filter(|s| s.job == JOB)
        .map(|s| {
            let span_ns = s.end.as_ns().saturating_sub(s.start.as_ns()).max(1);
            (
                s.iter,
                sched_total_bytes as f64 * 8.0 / (span_ns as f64 * 1e-9),
            )
        })
        .collect()
}

/// Join the controller's action log with ground truth: every closed-loop
/// fact is read off the log here. Latencies are relative to the fault
/// install when one happened; absolute when the controller acted in a
/// fault-free run (any such action is a false detection/mitigation).
fn ctrl_outcome(
    actions: Vec<CtrlAction>,
    install_ns: Option<u64>,
    fault_port: Option<Cable>,
) -> CtrlOutcome {
    let first = |phase| actions.iter().find(|a| a.phase == phase);
    let delta = |a: Option<&CtrlAction>| a.map(|a| a.t_ns.saturating_sub(install_ns.unwrap_or(0)));
    let mitigate = first(CtrlPhase::Mitigate);
    let mitigated_ports: Vec<Cable> = actions
        .iter()
        .filter(|a| a.phase == CtrlPhase::Mitigate)
        .filter_map(|a| a.cable)
        .collect();
    CtrlOutcome {
        time_to_detect_ns: delta(first(CtrlPhase::Detect)),
        time_to_mitigate_ns: delta(mitigate),
        mitigate_iter: mitigate.map(|a| a.iter),
        false_mitigations: mitigated_ports
            .iter()
            .filter(|&&p| Some(p) != fault_port)
            .count() as u32,
        mitigated_ports,
        rebaselines: actions
            .iter()
            .filter(|a| a.phase == CtrlPhase::Rebaseline)
            .count() as u32,
        actions,
    }
}

/// Structured-event export: the trace ring, the fresh alarms with their
/// localization verdicts, the control steps and the trial milestones, as
/// recorder events. `end_ns` is the end-of-run clock the alarms are
/// attributed to.
pub(super) fn export(
    rec: &mut dyn fp_telemetry::Recorder,
    spec: &TrialSpec,
    r: &TrialResult,
    end_ns: u64,
) {
    let milestone =
        |rec: &mut dyn fp_telemetry::Recorder, t_ns: u64, name: &str, detail: String| {
            rec.on_event(
                t_ns,
                &fp_telemetry::Event::Milestone {
                    name: name.into(),
                    detail,
                },
            );
        };
    if let Some(reason) = &r.memo_fallback {
        milestone(rec, 0, "memo_fallback", reason.clone());
    }
    for (at, event) in r.trace.records() {
        rec.on_event(at.as_ns(), &event.to_telemetry());
    }
    Monitor::export_alarms(&r.alarms, end_ns, rec, |a| {
        let loc = r.localization.as_ref()?;
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
    for a in r.ctrl.iter().flat_map(|c| &c.actions) {
        rec.on_event(
            a.t_ns,
            &fp_telemetry::Event::Control {
                phase: a.phase.name().into(),
                detail: a.detail.clone(),
            },
        );
    }
    if let (Some(f), Some((fleaf, fv))) = (spec.fault, r.fault_port) {
        let detail = format!("iter {} port ({fleaf},{fv})", f.at_iter);
        milestone(rec, end_ns, "fault_installed", detail);
        if let Some(h) = f.heal_at_iter {
            let detail = format!("iter {h} port ({fleaf},{fv})");
            milestone(rec, end_ns, "fault_healed", detail);
        }
    }
    if let Some(first) = r.alarms.iter().map(|a| a.iter).min() {
        let name = if r.detected {
            "fault_detected"
        } else {
            "false_alarm"
        };
        milestone(rec, end_ns, name, format!("first alarm at iter {first}"));
    }
}

/// A run's goodput trajectory reduced to the three phases a remediation
/// sweep reports ([`goodput_phases`]).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct GoodputPhases {
    /// Mean over the iterations before the fault (the whole run when
    /// fault-free).
    pub pre_bps: f64,
    /// Worst iteration while the fault burned unmitigated.
    pub during_bps: f64,
    /// The final iteration.
    pub post_bps: f64,
    /// A fault was injected and the final iteration is back within 5 % of
    /// the pre-fault mean.
    pub recovered: bool,
}

/// Reduce [`TrialResult::iter_goodput`] to pre-fault / during-fault /
/// post-mitigation goodput. `onset` is the fault iteration (0 = fault-free
/// run: the whole trajectory counts as "pre"); `mitigate_iter` the
/// iteration the first remediation landed in, if one did — the fault burns
/// from `onset` up to it, or to the end of the run.
pub fn goodput_phases(
    iter_goodput: &[(u32, f64)],
    onset: u32,
    mitigate_iter: Option<u32>,
) -> GoodputPhases {
    let at = |iter: u32| {
        iter_goodput
            .iter()
            .find(|&&(i, _)| i == iter)
            .map_or(0.0, |&(_, g)| g)
    };
    let iters = iter_goodput.len() as u32;
    let pre_to = if onset == 0 { iters } else { onset };
    let pre_bps = (0..pre_to).map(at).sum::<f64>() / pre_to.max(1) as f64;
    let during_to = mitigate_iter.unwrap_or(iters).min(iters);
    let during_bps = (onset..during_to.max(onset + 1).min(iters))
        .map(at)
        .fold(f64::INFINITY, f64::min);
    let during_bps = if during_bps.is_finite() {
        during_bps
    } else {
        pre_bps
    };
    let post_bps = iter_goodput.last().map_or(0.0, |&(_, g)| g);
    GoodputPhases {
        pre_bps,
        during_bps,
        post_bps,
        recovered: onset > 0 && post_bps >= 0.95 * pre_bps,
    }
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
    fn add_trial(&mut self, r: &TrialResult) {
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
    fn is_faulty_iter(&self, iter: u32) -> bool {
        self.fault_iter
            .is_some_and(|at| iter >= at && self.heal_iter.is_none_or(|h| iter < h))
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
    use super::super::spec::{FaultSpec, InjectedFault};
    use super::*;
    use fp_netsim::counters::CounterStore;
    use fp_netsim::packet::CollectiveTag;
    use fp_netsim::time::SimTime;

    const LEAVES: u32 = 4;
    const VSPINES: u32 = 2;
    const ITERS: u32 = 4;

    /// A 4-leaf x 2-vspine ring spec whose fault (if any) starts at
    /// iteration 2; never run, only scored.
    fn spec(fault: Option<FaultSpec>) -> TrialSpec {
        TrialSpec {
            leaves: LEAVES,
            spines: VSPINES,
            iterations: ITERS,
            fault,
            ..Default::default()
        }
    }

    fn fault(heal_at_iter: Option<u32>, bidirectional: bool) -> Option<FaultSpec> {
        Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.1 },
            at_iter: 2,
            heal_at_iter,
            bidirectional,
        })
    }

    /// Hand-built run: every port predicted and observed at 1000 bytes per
    /// iteration, except that the `sagging` ports deliver 900 from
    /// iteration 2 on. Iterations last 1 us and move 1000 bytes.
    fn raw(sagging: &[Cable], fault_port: Option<Cable>) -> (Placed, RawRun) {
        let mut counters = CounterStore::new(LEAVES as usize, VSPINES as usize);
        let mut predicted = PortLoads::zeros(LEAVES as usize, VSPINES as usize);
        for iter in 0..ITERS {
            for leaf in 0..LEAVES {
                for v in 0..VSPINES {
                    let sag = iter >= 2 && sagging.contains(&(leaf, v));
                    counters.record(
                        leaf,
                        v,
                        CollectiveTag { job: 1, iter },
                        (leaf + LEAVES - 1) % LEAVES,
                        if sag { 900 } else { 1000 },
                        SimTime::from_ns(1_000 * iter as u64),
                    );
                    if iter == 0 {
                        predicted.add(leaf, v, 1000.0);
                    }
                }
            }
        }
        let placed = Placed {
            preexisting_ports: Vec::new(),
            fault_port,
            predicted: Some(predicted),
        };
        let run = RawRun {
            sched_total_bytes: 1000,
            install_ns: None,
            end_ns: 4_000,
            all_flows_complete: true,
            counters,
            agg_counters: CounterStore::new(0, 0),
            spans: (0..ITERS)
                .map(|iter| IterSpanRecord {
                    job: 1,
                    iter,
                    start: SimTime::from_ns(1_000 * iter as u64),
                    end: SimTime::from_ns(1_000 * (iter as u64 + 1)),
                })
                .collect(),
            stats: Stats::default(),
            trace: fp_netsim::trace::TraceBuffer::new(0),
            sched: Default::default(),
            memo: Default::default(),
            ctrl: None,
        };
        (placed, run)
    }

    /// Score a hand-built run as a trial does, its counters all handed
    /// over at the end.
    fn scored(spec: &TrialSpec, (placed, mut run): (Placed, RawRun)) -> TrialResult {
        let mut scorer = Scorer::new(spec, &placed);
        scorer.take_below(&mut run.counters, u32::MAX, true);
        assert!(run.counters.keys().is_empty());
        score(spec, placed, run, scorer)
    }

    #[test]
    fn alarms_are_judged_against_the_fault_window() {
        // Port (1,0) sags in iterations 2 and 3.
        let permanent = scored(&spec(fault(None, false)), raw(&[(1, 0)], Some((1, 0))));
        assert_eq!(permanent.alarms.len(), 2);
        assert!(permanent.detected && !permanent.false_alarm);
        assert_eq!((permanent.fault_iter, permanent.heal_iter), (Some(2), None));
        assert_eq!(permanent.detection_latency_iters(), Some(0));
        assert_eq!(permanent.iter_max_dev.len(), ITERS as usize);

        // Healed at 3: the iteration-3 alarm is outside the window.
        let healed = scored(&spec(fault(Some(3), false)), raw(&[(1, 0)], Some((1, 0))));
        assert!(healed.detected && healed.false_alarm);
        assert!(healed.is_faulty_iter(2) && !healed.is_faulty_iter(3));

        // No fault injected: every alarm is a false alarm.
        let clean = scored(&spec(None), raw(&[(1, 0)], None));
        assert!(!clean.detected && clean.false_alarm);
        assert!(clean.localization.is_none() && clean.localized_correctly.is_none());
    }

    #[test]
    fn ring_verdict_matches_the_fault_direction() {
        // One direction: the lone short port stays unpaired.
        let uni = scored(&spec(fault(None, false)), raw(&[(1, 0)], Some((1, 0))));
        let loc = uni.localization.as_ref().expect("ring verdict");
        assert!(loc.cables.is_empty());
        assert_eq!(loc.unpaired, vec![(1, 0)]);
        assert_eq!(uni.localized_correctly, Some(true));
        // The same evidence is wrong for a bidirectional fault ...
        let r = scored(&spec(fault(None, true)), raw(&[(1, 0)], Some((1, 0))));
        assert_eq!(r.localized_correctly, Some(false));
        // ... which shows as the leaf and its ring successor both short.
        let bi = scored(
            &spec(fault(None, true)),
            raw(&[(1, 0), (2, 0)], Some((1, 0))),
        );
        assert_eq!(bi.localization.as_ref().unwrap().cables, vec![(1, 0)]);
        assert_eq!(bi.localized_correctly, Some(true));
        // A verdict naming another cable is not correct.
        let off = scored(&spec(fault(None, false)), raw(&[(1, 0)], Some((3, 1))));
        assert_eq!(off.localized_correctly, Some(false));
    }

    #[test]
    fn no_alarm_yields_the_empty_verdict() {
        let r = scored(&spec(fault(None, false)), raw(&[], Some((1, 0))));
        assert!(r.alarms.is_empty() && !r.detected && !r.false_alarm);
        assert_eq!(r.localization, Some(RingLocalization::default()));
        assert_eq!(r.localized_correctly, Some(false));
        assert_eq!(r.detection_latency_iters(), None);
        // Multi-host leaves are not a one-sender-per-port ring: no verdict.
        let multi = TrialSpec {
            hosts_per_leaf: 2,
            ..spec(fault(None, false))
        };
        assert!(scored(&multi, raw(&[(1, 0)], Some((1, 0))))
            .localization
            .is_none());
    }

    /// A log step at the end of iteration `iter`; a step naming a cable
    /// carries `admin_down`.
    fn step(t_ns: u64, iter: u32, phase: CtrlPhase, cable: Option<Cable>) -> CtrlAction {
        let verb = cable.map(|_| ControlVerb::AdminDown);
        let detail = String::new();
        CtrlAction {
            t_ns,
            iter,
            phase,
            cable,
            verb,
            detail,
        }
    }

    #[test]
    fn goodput_and_controller_record_are_joined_with_ground_truth() {
        use CtrlPhase::{Detect, Localize, Mitigate, Rebaseline};
        let mut run = raw(&[], Some((1, 0)));
        run.1.install_ns = Some(100);
        let log = vec![
            step(150, 1, Detect, None),
            step(150, 1, Localize, Some((1, 0))),
            step(180, 2, Mitigate, Some((1, 0))),
            step(190, 2, Rebaseline, None),
            step(250, 3, Detect, None),
            step(250, 3, Localize, Some((3, 1))),
            step(300, 4, Mitigate, Some((3, 1))),
            step(310, 4, Rebaseline, None),
        ];
        run.1.ctrl = Some(log.clone());
        let r = scored(&spec(fault(None, false)), run);
        // 1000 bytes over 1 us (8 Gbit/s), every iteration.
        let bps = 1000.0 * 8.0 / (1000.0 * 1e-9);
        let expect: Vec<(u32, f64)> = (0..ITERS).map(|i| (i, bps)).collect();
        assert_eq!(r.iter_goodput, expect);
        assert_eq!(r.snapshots.len(), ITERS as usize);
        let c = r.ctrl.expect("controller record joined");
        // The first Detect and the first Mitigate, from the install.
        assert_eq!(c.time_to_detect_ns, Some(50));
        assert_eq!(
            (c.time_to_mitigate_ns, c.mitigate_iter),
            (Some(80), Some(2))
        );
        assert_eq!(c.mitigated_ports, vec![(1, 0), (3, 1)]);
        assert_eq!(c.false_mitigations, 1, "(3,1) was healthy");
        assert_eq!(c.rebaselines, 2);
        assert_eq!(c.actions, log);
        let scheduled: Vec<_> = c.actions.iter().filter_map(CtrlAction::scheduled).collect();
        assert_eq!(
            scheduled,
            [ControlVerb::AdminDown; 2],
            "Localize steps only"
        );

        // Fault-free run: latencies are absolute, every mitigation false.
        let mut run = raw(&[], None);
        run.1.ctrl = Some(vec![
            step(150, 0, Detect, None),
            step(150, 0, Localize, Some((1, 0))),
        ]);
        let c = scored(&spec(None), run).ctrl.unwrap();
        assert_eq!(
            (c.time_to_detect_ns, c.time_to_mitigate_ns),
            (Some(150), None)
        );
        assert!(c.mitigated_ports.is_empty(), "scheduled, never applied");
        let mut run = raw(&[], None);
        run.1.ctrl = Some(vec![step(180, 1, Mitigate, Some((1, 0)))]);
        let c = scored(&spec(None), run).ctrl.unwrap();
        assert_eq!(c.time_to_mitigate_ns, Some(180));
        assert_eq!(c.false_mitigations, 1);
    }

    fn trajectory(g: &[f64]) -> Vec<(u32, f64)> {
        (0u32..).zip(g.iter().copied()).collect()
    }

    #[test]
    fn goodput_phases_on_literal_trajectories() {
        // Fault-free (onset 0): the whole run is "pre"; nothing to recover.
        let p = goodput_phases(&trajectory(&[10.0, 20.0, 30.0]), 0, None);
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (20.0, 10.0, 30.0));
        assert!(!p.recovered);

        // Never mitigated: the fault burns from onset to the end.
        let g = trajectory(&[10.0, 10.0, 4.0, 2.0, 3.0]);
        let p = goodput_phases(&g, 2, None);
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (10.0, 2.0, 3.0));
        assert!(!p.recovered);

        // Mitigated inside the onset iteration: only that iteration burned.
        let g = trajectory(&[10.0, 10.0, 4.0, 9.6, 9.8]);
        let p = goodput_phases(&g, 2, Some(2));
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (10.0, 4.0, 9.8));
        assert!(p.recovered);
        // Mitigated two iterations later: the worst of 2 and 3.
        assert_eq!(goodput_phases(&g, 2, Some(4)).during_bps, 4.0);

        // One-iteration run, fault-free and with the fault past its end.
        let p = goodput_phases(&trajectory(&[7.0]), 0, None);
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (7.0, 7.0, 7.0));
        let p = goodput_phases(&trajectory(&[7.0]), 1, None);
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (7.0, 7.0, 7.0));
        assert!(p.recovered);
        // Nothing ran at all.
        let p = goodput_phases(&[], 0, None);
        assert_eq!((p.pre_bps, p.during_bps, p.post_bps), (0.0, 0.0, 0.0));
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
    fn a_deviation_exactly_at_the_threshold_is_not_an_alarm() {
        // As `Detector` judges (`exactly_at_threshold_is_not_an_alarm`), the
        // ROC counts a deviation only when it is strictly above.
        let pts = roc_curve(&[0.01, 0.002], &[0.01, 0.02], &[0.01]);
        assert_eq!((pts[0].fpr, pts[0].tpr), (0.0, 0.5));
    }
}
