//! Continuous monitoring (paper §5.1/§5.3).
//!
//! The [`Monitor`] consumes the in-switch counters as training iterations
//! complete and raises [`Alarm`]s on temporal-symmetry violations. Key
//! behaviours from the paper:
//!
//! * An iteration is considered finished when the *next* iteration's first
//!   packet is seen ("FlowPulse is oblivious to stragglers. It considers a
//!   collective as finished at the start of the next iteration") — so the
//!   monitor only evaluates *closed* iterations, plus an explicit flush at
//!   job end.
//! * Detection is per-leaf and requires no cross-switch coordination; the
//!   monitor here just batches all leaves' independent checks in one pass.
//! * The prediction can be a fixed model (analytical/simulation) or a
//!   [`LearnedModel`] with healing rebaseline.

use crate::detector::{Detector, Deviation};
use crate::learned::{LearnedModel, LearnedUpdate};
use crate::model::PortLoads;
use fp_netsim::counters::CounterStore;
use serde::{Deserialize, Serialize};

/// What [`Monitor::scan`] reads iterations from: a whole run's
/// [`CounterStore`], or a window holding only the iterations still open
/// ([`crate::snapshot::OpenWindow`]).
pub trait IterSource {
    /// Whether any counter of `(job, iter)` was recorded.
    fn has_iter(&self, job: u32, iter: u32) -> bool;
    /// The observed per-port loads of `(job, iter)`, if recorded.
    fn iter_loads(&self, job: u32, iter: u32) -> Option<PortLoads>;
}

impl IterSource for CounterStore {
    fn has_iter(&self, job: u32, iter: u32) -> bool {
        self.get(job, iter).is_some()
    }

    fn iter_loads(&self, job: u32, iter: u32) -> Option<PortLoads> {
        self.get(job, iter).map(PortLoads::from_counters)
    }
}

/// Where predictions come from.
pub enum ModelSource {
    /// Analytical or simulation-based prediction, fixed for the job.
    Fixed(PortLoads),
    /// Learn from the first iterations (with healing rebaseline).
    Learned(LearnedModel),
}

/// A per-leaf, per-iteration alarm.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Alarm {
    /// Training iteration that violated symmetry.
    pub iter: u32,
    /// Leaf that raised the alarm.
    pub leaf: u32,
    /// The offending ports.
    pub deviations: Vec<Deviation>,
    /// Hysteresis flag: `true` if this alarm opens a fault *episode* —
    /// i.e. at least one of its ports was not already alarming on the
    /// immediately preceding iteration. Consecutive-iteration repeats of
    /// an uncleared fault have `fresh = false`, so episode consumers (the
    /// control plane, the JSONL export) see one alarm per fault, while
    /// per-iteration detection rates still count every alarm.
    pub fresh: bool,
}

/// Continuous per-job monitor.
pub struct Monitor {
    /// Job (collective tag sentinel) being monitored.
    pub job: u32,
    /// Threshold comparator.
    pub detector: Detector,
    model: ModelSource,
    next_iter: u32,
    /// All alarms raised so far.
    pub alarms: Vec<Alarm>,
    /// Per-iteration max |relative deviation| (iter, value) — the raw
    /// signal ROC sweeps evaluate many thresholds against. Only recorded
    /// once a baseline/prediction exists.
    pub iter_max_dev: Vec<(u32, f64)>,
    /// Learned-model verdicts per iteration (empty for fixed models).
    pub learned_events: Vec<(u32, LearnedUpdate)>,
    /// Hysteresis state: last iteration each `(leaf, vspine)` port
    /// alarmed, for episode freshness tracking.
    port_last_alarm: std::collections::BTreeMap<(u32, u32), u32>,
}

impl Monitor {
    /// Monitor `job` against a fixed prediction.
    pub fn new_fixed(job: u32, detector: Detector, prediction: PortLoads) -> Self {
        Monitor {
            job,
            detector,
            model: ModelSource::Fixed(prediction),
            next_iter: 0,
            alarms: Vec::new(),
            iter_max_dev: Vec::new(),
            learned_events: Vec::new(),
            port_last_alarm: Default::default(),
        }
    }

    /// Monitor `job` with a baseline learned from the first `warmup`
    /// iterations.
    pub fn new_learned(job: u32, detector: Detector, warmup: u32) -> Self {
        Monitor {
            job,
            detector,
            model: ModelSource::Learned(LearnedModel::new(warmup, detector.threshold)),
            next_iter: 0,
            alarms: Vec::new(),
            iter_max_dev: Vec::new(),
            learned_events: Vec::new(),
            port_last_alarm: Default::default(),
        }
    }

    /// The learned model, if this monitor learns.
    pub fn learned(&self) -> Option<&LearnedModel> {
        match &self.model {
            ModelSource::Learned(m) => Some(m),
            ModelSource::Fixed(_) => None,
        }
    }

    /// Process every *closed* iteration in `counters`. Iteration `i` is
    /// closed once iteration `i+1` has been observed; pass `flush = true`
    /// at end of job to evaluate the trailing iteration too.
    pub fn scan<S: IterSource>(&mut self, counters: &S, flush: bool) {
        loop {
            let i = self.next_iter;
            let closed = flush
                || i.checked_add(1)
                    .is_some_and(|next| counters.has_iter(self.job, next));
            if !closed {
                break;
            }
            let Some(obs) = counters.iter_loads(self.job, i) else {
                break;
            };
            self.evaluate(i, &obs);
            self.next_iter += 1;
        }
    }

    /// The first iteration `scan` has not evaluated yet; everything below
    /// it will never be read again.
    pub fn next_iter(&self) -> u32 {
        self.next_iter
    }

    fn evaluate(&mut self, iter: u32, obs: &PortLoads) {
        let devs = match &mut self.model {
            ModelSource::Fixed(expected) => {
                self.iter_max_dev
                    .push((iter, self.detector.max_abs_rel(expected, obs)));
                self.detector.compare(expected, obs)
            }
            ModelSource::Learned(lm) => {
                // Measured against the baseline `obs` is judged by, so
                // before `observe`, which replaces it on a heal.
                if let Some(base) = lm.baseline() {
                    self.iter_max_dev
                        .push((iter, self.detector.max_abs_rel(base, obs)));
                }
                let verdict = lm.observe(obs);
                // A deviating verdict leaves the baseline it judged by in
                // place, so comparing after `observe` reads the same one.
                let devs = match (&verdict, lm.baseline()) {
                    (LearnedUpdate::Deviating { .. }, Some(base)) => {
                        self.detector.compare(base, obs)
                    }
                    _ => Vec::new(),
                };
                self.learned_events.push((iter, verdict));
                devs
            }
        };
        self.push_alarms(iter, devs);
    }

    fn push_alarms(&mut self, iter: u32, devs: Vec<Deviation>) {
        if devs.is_empty() {
            return;
        }
        // Group by leaf: each leaf raises its own independent alarm.
        let mut by_leaf: std::collections::BTreeMap<u32, Vec<Deviation>> = Default::default();
        for d in devs {
            by_leaf.entry(d.leaf).or_default().push(d);
        }
        for (leaf, deviations) in by_leaf {
            // Hysteresis: the alarm is fresh (opens an episode) unless every
            // one of its ports was already alarming on the previous
            // iteration. Ports within one iteration are unique, so updating
            // the map per leaf-group cannot affect sibling groups.
            let fresh = iter == 0
                || deviations
                    .iter()
                    .any(|d| self.port_last_alarm.get(&(d.leaf, d.vspine)) != Some(&(iter - 1)));
            for d in &deviations {
                self.port_last_alarm.insert((d.leaf, d.vspine), iter);
            }
            self.alarms.push(Alarm {
                iter,
                leaf,
                deviations,
                fresh,
            });
        }
    }

    /// Reset detection state after a remediation landed: force the learned
    /// model (if any) to relearn its baseline against the post-mitigation
    /// load shape, and clear the alarm-episode hysteresis so the next fault
    /// raises a fresh alarm. Past alarms are kept (rates/figures depend on
    /// the complete per-iteration record).
    pub fn rebaseline(&mut self) {
        if let ModelSource::Learned(lm) = &mut self.model {
            lm.force_relearn();
        }
        self.port_last_alarm.clear();
    }

    /// Skip evaluation forward to `iter`: iterations before it that have
    /// not yet been scanned are discarded without being compared. The
    /// control plane uses this to drop the mixed iteration during which a
    /// remediation landed mid-flight (partly faulty, partly healthy — it
    /// would poison a relearned baseline).
    pub fn skip_to(&mut self, iter: u32) {
        self.next_iter = self.next_iter.max(iter);
    }

    /// Alarms that opened a fault episode (see [`Alarm::fresh`]) at
    /// iteration ≥ `from`.
    pub fn fresh_alarms(&self, from: u32) -> impl Iterator<Item = &Alarm> {
        self.alarms
            .iter()
            .filter(move |a| a.fresh && a.iter >= from)
    }

    /// Export `alarms` (a monitor's, or a finished trial's) into a
    /// telemetry recorder as structured [`fp_telemetry::Event::Alarm`]s.
    /// Only *fresh* alarms are exported — one per fault episode, not one
    /// per iteration (see [`Alarm::fresh`]). `verdict` attaches each
    /// alarm's localization verdict, when one is known. Monitoring is
    /// post-hoc (counters are scanned after the run), so the caller
    /// supplies the simulated time `at_ns` the scan is attributed to —
    /// conventionally the end-of-run clock.
    pub fn export_alarms(
        alarms: &[Alarm],
        at_ns: u64,
        rec: &mut dyn fp_telemetry::Recorder,
        verdict: impl Fn(&Alarm) -> Option<String>,
    ) {
        for a in alarms.iter().filter(|a| a.fresh) {
            let worst_rel = a
                .deviations
                .iter()
                .map(|d| d.rel)
                .max_by(|x, y| x.abs().total_cmp(&y.abs()))
                .unwrap_or(0.0);
            rec.on_event(
                at_ns,
                &fp_telemetry::Event::Alarm {
                    iter: a.iter,
                    leaf: a.leaf,
                    worst_rel,
                    verdict: verdict(a),
                },
            );
        }
    }

    /// Alarms raised for iterations in `[from, to)`.
    pub fn alarms_in(&self, from: u32, to: u32) -> impl Iterator<Item = &Alarm> {
        self.alarms
            .iter()
            .filter(move |a| a.iter >= from && a.iter < to)
    }

    /// Alarmed `(leaf, vspine)` ports across all iterations ≥ `from`
    /// (input for ring localization).
    pub fn alarmed_ports(&self, from: u32) -> Vec<(u32, u32)> {
        collect_ports(self.alarms.iter().filter(|a| a.iter >= from), |_| true)
    }

    /// Alarmed ports showing a *shortfall* ([`shortfall_ports`]) across all
    /// iterations ≥ `from`.
    pub fn shortfall_ports(&self, from: u32) -> Vec<(u32, u32)> {
        shortfall_ports(self.alarms.iter().filter(|a| a.iter >= from))
    }
}

/// The `(leaf, vspine)` ports of `alarms` showing a *shortfall* (observed <
/// expected), sorted and deduplicated. Fault localization reasons about
/// reduced traffic (§5.3); ports that merely absorbed the retransmitted
/// excess are excluded. The one alarm → ports reduction: the offline
/// monitor, `fp-ctrl` and `fp-monitord` all localize from this list
/// ([`Localizer::localize_ring_alarms`](crate::localizer::Localizer::localize_ring_alarms)).
pub fn shortfall_ports<'a>(alarms: impl IntoIterator<Item = &'a Alarm>) -> Vec<(u32, u32)> {
    collect_ports(alarms, |rel| rel < 0.0)
}

fn collect_ports<'a>(
    alarms: impl IntoIterator<Item = &'a Alarm>,
    keep: impl Fn(f64) -> bool,
) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = alarms
        .into_iter()
        .flat_map(|a| {
            a.deviations
                .iter()
                .filter(|d| keep(d.rel))
                .map(|d| (d.leaf, d.vspine))
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netsim::packet::CollectiveTag;
    use fp_netsim::time::SimTime;

    /// Build a counter store with `iters` iterations of the given per-port
    /// byte matrix (1 leaf × 2 ports shape for brevity).
    fn store(iters: &[[u64; 2]]) -> CounterStore {
        let mut s = CounterStore::new(1, 2);
        for (i, ports) in iters.iter().enumerate() {
            for (v, &b) in ports.iter().enumerate() {
                if b > 0 {
                    s.record(
                        0,
                        v as u32,
                        CollectiveTag {
                            job: 1,
                            iter: i as u32,
                        },
                        0,
                        b,
                        SimTime::from_ns(i as u64),
                    );
                }
            }
        }
        s
    }

    fn prediction(a: f64, b: f64) -> PortLoads {
        PortLoads {
            n_leaves: 1,
            n_vspines: 2,
            bytes: vec![a, b],
        }
    }

    #[test]
    fn closed_iterations_only() {
        let s = store(&[[1000, 1000], [1000, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, false);
        // Iteration 0 closed by iteration 1's presence; iteration 1 open.
        assert_eq!(m.iter_max_dev.len(), 1);
        m.scan(&s, true);
        assert_eq!(m.iter_max_dev.len(), 2);
        assert!(m.alarms.is_empty());
    }

    #[test]
    fn scan_is_incremental() {
        let s = store(&[[1000, 1000], [1000, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, false);
        m.scan(&s, false); // idempotent on already-closed iterations
        m.scan(&s, true);
        assert_eq!(m.iter_max_dev.len(), 3);
        assert_eq!(m.alarms.len(), 1);
        assert_eq!(m.alarms[0].iter, 2);
        assert_eq!(m.alarms[0].leaf, 0);
        assert_eq!(m.alarms[0].deviations[0].vspine, 0);
    }

    #[test]
    fn learned_monitor_warms_then_detects() {
        let s = store(&[
            [1000, 1000], // warmup
            [1000, 1000], // consistent
            [940, 1000],  // fault
        ]);
        let mut m = Monitor::new_learned(1, Detector::new(0.01), 1);
        m.scan(&s, true);
        assert_eq!(m.alarms.len(), 1);
        assert_eq!(m.alarms[0].iter, 2);
        // iter 0 had no baseline yet → only 2 max-dev records.
        assert_eq!(m.iter_max_dev.len(), 2);
        assert!(matches!(
            m.learned_events[0],
            (0, LearnedUpdate::BaselineReady)
        ));
    }

    #[test]
    fn learned_monitor_rebaselines_on_heal() {
        let s = store(&[
            [700, 1000],  // transient fault during warmup
            [700, 1000],  // still faulty, consistent with learned baseline
            [1000, 1000], // heal: rebaseline, no alarm
            [1000, 1000], // consistent with new baseline
        ]);
        let mut m = Monitor::new_learned(1, Detector::new(0.01), 1);
        m.scan(&s, true);
        assert!(m.alarms.is_empty(), "heal must not alarm: {:?}", m.alarms);
        assert!(m
            .learned_events
            .iter()
            .any(|(_, u)| matches!(u, LearnedUpdate::Rebalanced)));
        assert_eq!(m.learned().unwrap().rebaselines, 1);
    }

    #[test]
    fn alarmed_ports_dedup() {
        let s = store(&[[900, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        assert_eq!(m.alarmed_ports(0), vec![(0, 0)]);
        assert_eq!(m.alarms.len(), 3); // one per iteration
        assert_eq!(m.alarms_in(1, 2).count(), 1);
    }

    #[test]
    fn hysteresis_one_fresh_alarm_per_episode() {
        // One uncleared fault alarming on three consecutive iterations:
        // episode consumers see exactly one fresh alarm, per-iteration
        // consumers still see all three.
        let s = store(&[[900, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        assert_eq!(m.alarms.len(), 3);
        assert_eq!(m.fresh_alarms(0).count(), 1);
        assert_eq!(m.fresh_alarms(0).next().unwrap().iter, 0);
    }

    #[test]
    fn hysteresis_gap_reopens_episode() {
        // Fault alarms, clears for one iteration, then alarms again: two
        // distinct episodes, two fresh alarms.
        let s = store(&[[900, 1000], [1000, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        assert_eq!(m.alarms.len(), 3);
        let fresh: Vec<u32> = m.fresh_alarms(0).map(|a| a.iter).collect();
        assert_eq!(fresh, vec![0, 2]);
    }

    #[test]
    fn rebaseline_rearms_hysteresis_and_relearns() {
        let s = store(&[[900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, false); // iter 0 closed, alarmed
        assert_eq!(m.fresh_alarms(0).count(), 1);
        m.rebaseline();
        m.scan(&s, true); // iter 1: same ports, but hysteresis was cleared
        assert_eq!(m.alarms.len(), 2);
        assert_eq!(m.fresh_alarms(0).count(), 2, "rebaseline re-arms episodes");

        let mut lm = Monitor::new_learned(1, Detector::new(0.01), 1);
        lm.scan(&store(&[[1000, 1000], [1000, 1000]]), true);
        assert!(lm.learned().unwrap().baseline().is_some());
        lm.rebaseline();
        assert!(lm.learned().unwrap().baseline().is_none());
        assert_eq!(lm.learned().unwrap().rebaselines, 1);
    }

    #[test]
    fn skip_to_discards_mixed_iterations() {
        // Iteration 1 is "mixed" (remediation landed mid-iteration): a
        // controller skips it before its counters close, so it is never
        // evaluated even though the skipped data looks alarming.
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&store(&[[1000, 1000], [600, 1000]]), false); // closes iter 0 only
        m.skip_to(2);
        m.scan(&store(&[[1000, 1000], [600, 1000], [1000, 1000]]), true);
        assert!(m.alarms.is_empty(), "skipped iteration must not alarm");
        assert_eq!(m.iter_max_dev.len(), 2); // iters 0 and 2
    }

    /// What `evaluate` derived from one observation while it still cloned
    /// the baseline before `observe` and the verdict after it: the learned
    /// event, the max-deviation record and the deviations alarmed on.
    fn evaluate_by_clone(
        lm: &mut LearnedModel,
        detector: &Detector,
        obs: &PortLoads,
    ) -> (LearnedUpdate, Option<f64>, Vec<Deviation>) {
        let baseline_before = lm.baseline().cloned();
        let verdict = lm.observe(obs);
        let event = verdict.clone();
        let mut max_dev = None;
        let mut devs = Vec::new();
        if let Some(base) = baseline_before {
            max_dev = Some(detector.max_abs_rel(&base, obs));
            if matches!(verdict, LearnedUpdate::Deviating { .. }) {
                devs = detector.compare(&base, obs);
            }
        }
        (event, max_dev, devs)
    }

    use crate::learned::tests::{shape, SHAPES};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The clone-free `evaluate` records what the cloning one did, step
        /// for step: through warm-up, noise, new faults, a heal that
        /// rebaselines (at once with `warmup` 1, after relearning with
        /// more) and `rebaseline()` calls in between.
        #[test]
        fn evaluate_matches_the_cloning_formulation(
            warmup in 1u32..4,
            // The detector's floor need not be the model's.
            min_expected in 0u32..3,
            steps in collection::vec((0usize..SHAPES.len(), 0u32..12), 1..40),
        ) {
            let detector = Detector {
                threshold: 0.01,
                min_expected: [1.0, 0.25, 2000.0][min_expected as usize],
            };
            let mut m = Monitor::new_learned(1, detector, warmup);
            let mut reference = LearnedModel::new(warmup, detector.threshold);
            let (mut events, mut max_devs, mut alarmed) = (Vec::new(), Vec::new(), Vec::new());
            for (iter, (k, rebaseline)) in steps.into_iter().enumerate() {
                let iter = iter as u32;
                if rebaseline == 0 {
                    m.rebaseline();
                    reference.force_relearn();
                }
                let obs = shape(k);
                m.evaluate(iter, &obs);
                let (event, max_dev, devs) = evaluate_by_clone(&mut reference, &detector, &obs);
                events.push((iter, event));
                max_devs.extend(max_dev.map(|d| (iter, d)));
                alarmed.extend(devs.into_iter().map(|d| (iter, d)));

                prop_assert_eq!(&m.learned_events, &events);
                prop_assert_eq!(&m.iter_max_dev, &max_devs);
                // `compare` lists ports leaf by leaf, the order alarms are
                // grouped in.
                let raised: Vec<(u32, Deviation)> = m
                    .alarms
                    .iter()
                    .flat_map(|a| a.deviations.iter().map(|&d| (a.iter, d)))
                    .collect();
                prop_assert_eq!(&raised, &alarmed);
                prop_assert_eq!(m.learned().unwrap().baseline(), reference.baseline());
            }
        }
    }

    #[test]
    fn export_emits_fresh_alarms_with_verdicts() {
        struct Collect(Vec<fp_telemetry::Event>);
        impl fp_telemetry::Recorder for Collect {
            fn on_event(&mut self, _t: u64, ev: &fp_telemetry::Event) {
                self.0.push(ev.clone());
            }
        }
        let s = store(&[[900, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        let mut c = Collect(Vec::new());
        Monitor::export_alarms(&m.alarms, 42, &mut c, |a| {
            Some(format!("cable({},0)", a.leaf))
        });
        assert_eq!(c.0.len(), 1, "one export per episode, not per iteration");
        assert_eq!(
            c.0[0],
            fp_telemetry::Event::Alarm {
                iter: 0,
                leaf: 0,
                worst_rel: -0.1,
                verdict: Some("cable(0,0)".into()),
            }
        );
    }
}
