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
use crate::model::{PortCells, PortLoads};
use crate::snapshot::CounterSnapshot;
use fp_netsim::counters::CounterStore;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// Where predictions come from.
enum ModelSource {
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
    pub(crate) job: u32,
    /// Threshold comparator.
    pub(crate) detector: Detector,
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
    port_last_alarm: BTreeMap<(u32, u32), u32>,
    /// The evaluated iteration's ports beyond the threshold, leaf by leaf;
    /// kept between iterations for its capacity.
    deviating: Vec<Deviation>,
    /// The iterations [`Self::score`] recorded and has not evaluated yet,
    /// each one's per-port byte cells row-major: one or two on a healthy
    /// stream, whatever its length.
    open: BTreeMap<u32, Vec<u64>>,
    /// `(n_leaves, n_vspines)` of the scored stream, fixed by its first
    /// snapshot that [`fits`](Self::fits).
    shape: Option<(u32, u32)>,
}

impl Monitor {
    /// Monitor `job` against a fixed prediction.
    pub fn new_fixed(job: u32, detector: Detector, prediction: PortLoads) -> Self {
        Self::with_model(job, detector, ModelSource::Fixed(prediction))
    }

    /// Monitor `job` with a baseline learned from the first `warmup`
    /// iterations.
    pub fn new_learned(job: u32, detector: Detector, warmup: u32) -> Self {
        let model = LearnedModel::new(warmup, detector.threshold);
        Self::with_model(job, detector, ModelSource::Learned(model))
    }

    fn with_model(job: u32, detector: Detector, model: ModelSource) -> Self {
        Monitor {
            job,
            detector,
            model,
            next_iter: 0,
            alarms: Vec::new(),
            iter_max_dev: Vec::new(),
            learned_events: Vec::new(),
            port_last_alarm: Default::default(),
            deviating: Vec::new(),
            open: BTreeMap::new(),
            shape: None,
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
    pub fn scan(&mut self, counters: &CounterStore, flush: bool) {
        let job = self.job;
        self.evaluate_closed(flush, |i| {
            counters.get(job, i).map(PortCells::from_counters)
        });
    }

    /// One snapshot's step on its stream, the one a monitor service and a
    /// trial both take: record `snap`'s cells (adding them to a repeated
    /// iteration's; an all-zero snapshot records nothing), evaluate every
    /// iteration that closed (flushing the rest when `snap` is the
    /// stream's [`last`](CounterSnapshot::last)), then forget what it has
    /// passed. The result is what [`Self::scan`] makes of the store
    /// [`CounterSnapshot::apply`] fills from the same snapshots, yet the
    /// monitor holds only the iterations it has not evaluated. The cells
    /// move in and `snap.bytes` comes back holding a spent buffer for the
    /// caller to reuse (empty when none was spent); any further spent
    /// buffer is freed. A late snapshot of an iteration already evaluated
    /// is discarded unread. The snapshot's `job` is not read: the caller
    /// routes each job's stream to its own monitor.
    ///
    /// # Panics
    /// If `snap` does not [`fit`](Self::fits) — the caller checks wire
    /// input first.
    pub fn score(&mut self, snap: &mut CounterSnapshot) {
        assert!(
            self.fits(snap),
            "snapshot cells do not match the stream's fabric shape"
        );
        self.shape = Some((snap.n_leaves, snap.n_vspines));
        let (n_leaves, n_vspines) = (snap.n_leaves as usize, snap.n_vspines as usize);
        let bytes = std::mem::take(&mut snap.bytes);
        if bytes.iter().any(|&b| b != 0) {
            match self.open.entry(snap.iter) {
                Entry::Vacant(e) => {
                    e.insert(bytes);
                }
                Entry::Occupied(mut e) => {
                    for (cell, b) in e.get_mut().iter_mut().zip(bytes) {
                        *cell += b;
                    }
                }
            }
        }
        let open = std::mem::take(&mut self.open);
        self.evaluate_closed(snap.last, |i| {
            let bytes = open.get(&i)?;
            Some(PortCells {
                n_leaves,
                n_vspines,
                bytes,
            })
        });
        self.open = open;
        let below = self.next_iter;
        while let Some(e) = self.open.first_entry().filter(|e| *e.key() < below) {
            snap.bytes = e.remove();
        }
    }

    /// Whether [`Self::score`] takes `snap`: it has one cell per port,
    /// `n_leaves × n_vspines` (a product of untrusted wire fields, taken in
    /// `u64` where it cannot wrap), and the stream's shape. The first
    /// snapshot that fits fixes that shape; one that does not fit fixes
    /// nothing.
    pub fn fits(&self, snap: &CounterSnapshot) -> bool {
        let dims = (snap.n_leaves, snap.n_vspines);
        self.shape.is_none_or(|shape| shape == dims)
            && snap.bytes.len() as u64 == u64::from(dims.0) * u64::from(dims.1)
    }

    /// Leaf count of the stream's shape, once a snapshot fixed it: the
    /// ring size its localization wraps around.
    pub fn n_leaves(&self) -> Option<u32> {
        self.shape.map(|(n_leaves, _)| n_leaves)
    }

    /// Iterations [`Self::score`] holds: recorded, not evaluated yet.
    pub fn open_iters(&self) -> usize {
        self.open.len()
    }

    /// Evaluate, from `next_iter` on, every iteration `cells` holds whose
    /// successor it holds too, or every one up to the first gap when
    /// `flush`.
    fn evaluate_closed<'c>(&mut self, flush: bool, cells: impl Fn(u32) -> Option<PortCells<'c>>) {
        loop {
            let i = self.next_iter;
            let closed = flush || i.checked_add(1).is_some_and(|next| cells(next).is_some());
            if !closed {
                break;
            }
            let Some(obs) = cells(i) else {
                break;
            };
            self.evaluate(i, obs);
            self.next_iter += 1;
        }
    }

    /// The first iteration not evaluated yet; everything below
    /// it will never be read again.
    pub fn next_iter(&self) -> u32 {
        self.next_iter
    }

    /// Judge one iteration in one pass over its cells: the pass's maximum
    /// is the `iter_max_dev` record and, under a learned model, what the
    /// model judges by; its deviations are raised when the model calls
    /// them a fault (a fixed model always does).
    fn evaluate(&mut self, iter: u32, obs: PortCells<'_>) {
        let (detector, deviating) = (&self.detector, &mut self.deviating);
        deviating.clear();
        let raise = match &mut self.model {
            ModelSource::Fixed(expected) => {
                let max = detector.judge(expected, obs, deviating);
                self.iter_max_dev.push((iter, max));
                true
            }
            ModelSource::Learned(lm) => {
                // Against the baseline before `observe` can replace it on a
                // heal.
                let max = lm
                    .baseline()
                    .map(|base| detector.judge(base, obs, deviating));
                self.iter_max_dev.extend(max.map(|m| (iter, m)));
                let verdict = lm.observe(obs, max);
                let raise = matches!(verdict, LearnedUpdate::Deviating { .. });
                self.learned_events.push((iter, verdict));
                raise
            }
        };
        if raise {
            self.push_alarms(iter);
        }
    }

    fn push_alarms(&mut self, iter: u32) {
        // Group by leaf: each leaf raises its own independent alarm. The
        // pass lists ports leaf by leaf, so a leaf's ports are one run.
        for group in self.deviating.chunk_by(|a, b| a.leaf == b.leaf) {
            // Hysteresis: the alarm is fresh (opens an episode) unless every
            // one of its ports was already alarming on the previous
            // iteration. Ports within one iteration are unique, so updating
            // the map per leaf-group cannot affect sibling groups.
            let fresh = iter == 0
                || group
                    .iter()
                    .any(|d| self.port_last_alarm.get(&(d.leaf, d.vspine)) != Some(&(iter - 1)));
            for d in group {
                self.port_last_alarm.insert((d.leaf, d.vspine), iter);
            }
            self.alarms.push(Alarm {
                iter,
                leaf: group[0].leaf,
                deviations: group.to_vec(),
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

    /// Export `alarms` (a monitor's, or a finished trial's) into a
    /// telemetry recorder as structured [`fp_telemetry::Event::Alarm`]s.
    /// Only *fresh* alarms are exported — one per fault episode, not one
    /// per iteration (see [`Alarm::fresh`]). `verdict` attaches each
    /// alarm's localization verdict, when one is known. A trial scores
    /// its iterations as they close but exports its alarms after the run,
    /// with the verdict only the whole run gives, so the caller supplies
    /// the simulated time `at_ns` they are attributed to — conventionally
    /// the end-of-run clock.
    pub(crate) fn export_alarms(
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
    let mut v: Vec<(u32, u32)> = alarms
        .into_iter()
        .flat_map(|a| {
            a.deviations
                .iter()
                .filter(|d| d.rel < 0.0)
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

    /// Alarms that opened a fault episode.
    fn fresh(m: &Monitor) -> impl Iterator<Item = &Alarm> {
        m.alarms.iter().filter(|a| a.fresh)
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
    fn hysteresis_one_fresh_alarm_per_episode() {
        // One uncleared fault alarming on three consecutive iterations:
        // episode consumers see exactly one fresh alarm, per-iteration
        // consumers still see all three.
        let s = store(&[[900, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        assert_eq!(m.alarms.len(), 3);
        assert_eq!(fresh(&m).count(), 1);
        assert_eq!(fresh(&m).next().unwrap().iter, 0);
    }

    #[test]
    fn hysteresis_gap_reopens_episode() {
        // Fault alarms, clears for one iteration, then alarms again: two
        // distinct episodes, two fresh alarms.
        let s = store(&[[900, 1000], [1000, 1000], [900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, true);
        assert_eq!(m.alarms.len(), 3);
        let iters: Vec<u32> = fresh(&m).map(|a| a.iter).collect();
        assert_eq!(iters, vec![0, 2]);
    }

    #[test]
    fn rebaseline_rearms_hysteresis_and_relearns() {
        let s = store(&[[900, 1000], [900, 1000]]);
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), prediction(1000.0, 1000.0));
        m.scan(&s, false); // iter 0 closed, alarmed
        assert_eq!(fresh(&m).count(), 1);
        m.rebaseline();
        m.scan(&s, true); // iter 1: same ports, but hysteresis was cleared
        assert_eq!(m.alarms.len(), 2);
        assert_eq!(fresh(&m).count(), 2, "rebaseline re-arms episodes");

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

    /// The first snapshot that fits fixes the stream's shape; one whose
    /// cells do not fill its own dimensions fits no stream and fixes
    /// nothing.
    #[test]
    fn the_first_snapshot_that_fits_fixes_the_shape() {
        let mut m = Monitor::new_learned(1, Detector::new(0.01), 1);
        let snap = |n_leaves, n_vspines, cells| CounterSnapshot {
            job: 1,
            n_leaves,
            n_vspines,
            bytes: vec![1000; cells],
            ..CounterSnapshot::default()
        };
        assert_eq!(m.n_leaves(), None);
        // 65536 × 65536 is 0 in `u32`, which no cells would match.
        for malformed in [snap(2, 2, 3), snap(1 << 16, 1 << 16, 0)] {
            assert!(!m.fits(&malformed));
        }
        assert!(m.fits(&snap(2, 1, 2)) && m.fits(&snap(1, 2, 2)));
        m.score(&mut snap(1, 2, 2));
        assert_eq!(m.n_leaves(), Some(1));
        assert!(m.fits(&snap(1, 2, 2)));
        assert!(!m.fits(&snap(2, 1, 2)), "a fixed shape refuses another");
    }

    /// The first snapshot a monitor scores fixes the stream's shape; a
    /// later one of another shape, even with as many cells, is refused.
    #[test]
    #[should_panic(expected = "snapshot cells do not match the stream's fabric shape")]
    fn a_snapshot_of_another_shape_panics() {
        let mut m = Monitor::new_learned(1, Detector::new(0.01), 1);
        let snap = |iter, n_leaves, n_vspines| CounterSnapshot {
            job: 1,
            iter,
            n_leaves,
            n_vspines,
            bytes: vec![1000; 2],
            ..CounterSnapshot::default()
        };
        m.score(&mut snap(0, 1, 2));
        m.score(&mut snap(1, 1, 2));
        assert_eq!(m.next_iter(), 1, "the first two snapshots are scored");
        m.score(&mut snap(2, 2, 1));
    }

    /// What `evaluate` derived from one observation while it still cloned
    /// the baseline before `observe` and the verdict after it, each figure
    /// from its own pass: the learned event, the max-deviation record and
    /// the deviations alarmed on.
    fn evaluate_by_clone(
        lm: &mut LearnedModel,
        detector: &Detector,
        obs: PortCells<'_>,
    ) -> (LearnedUpdate, Option<f64>, Vec<Deviation>) {
        let loads = obs.to_loads();
        let baseline_before = lm.baseline().cloned();
        let max_dev = baseline_before
            .as_ref()
            .map(|base| max_rel_dev(base, &loads));
        let verdict = lm.observe(obs, max_dev);
        let event = verdict.clone();
        let mut devs = Vec::new();
        if let Some(base) = baseline_before {
            if matches!(verdict, LearnedUpdate::Deviating { .. }) {
                devs = compare_by_port(detector, &base, &loads);
            }
        }
        (event, max_dev, devs)
    }

    use crate::detector::tests::{compare_by_port, max_rel_dev};
    use crate::learned::tests::{shape, SHAPES};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass, clone-free `evaluate` records what the cloning
        /// one did, step for step: through warm-up, noise, new faults, a
        /// heal that rebaselines (at once with `warmup` 1, after relearning
        /// with more) and `rebaseline()` calls in between.
        #[test]
        fn evaluate_matches_the_cloning_formulation(
            warmup in 1u32..4,
            steps in collection::vec((0usize..SHAPES.len(), 0u32..12), 1..40),
        ) {
            let detector = Detector::new(0.01);
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
                m.evaluate(iter, obs);
                let (event, max_dev, devs) = evaluate_by_clone(&mut reference, &detector, obs);
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
