//! Learning-based load prediction with healing rebaseline (paper §5.2,
//! Fig. 3).
//!
//! "It is also possible to learn the expected load on each port by simply
//! measuring the load during the first iterations of the collective. One
//! caveat is that a transient fault may exist during the first iterations,
//! but disappear thereafter. When a fault heals, the load observed on all
//! ports re-balances more evenly. When FlowPulse observes this behavior, it
//! replaces the baseline measurement with a new measurement reflecting the
//! improved network state."

use crate::model::{PortCells, PortLoads};
use serde::{Deserialize, Serialize};

/// What [`LearnedModel::observe`] concluded about an iteration.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum LearnedUpdate {
    /// Still collecting warm-up samples; no baseline yet.
    Warming,
    /// The baseline just became available.
    BaselineReady,
    /// Observation consistent with the baseline.
    Consistent,
    /// Observation deviates and looks like a *new fault* (imbalance grew or
    /// volume dropped).
    Deviating {
        /// Largest |relative deviation| across ports.
        max_rel: f64,
    },
    /// Observation deviates but looks like a *healed fault* (volume did not
    /// drop and ports re-balanced): the model rebaselined onto it.
    Rebalanced,
}

/// Baseline learned from the first iterations of a job.
#[derive(Clone, Debug)]
pub struct LearnedModel {
    /// Iterations averaged into the baseline.
    pub warmup: u32,
    /// Detection threshold used for the internal consistency check.
    pub threshold: f64,
    samples: Vec<PortLoads>,
    baseline: Option<PortLoads>,
    /// Times the baseline was replaced after observing a heal.
    pub rebaselines: u32,
}

impl LearnedModel {
    /// New model that averages `warmup` iterations into its baseline.
    pub fn new(warmup: u32, threshold: f64) -> Self {
        assert!(warmup >= 1);
        LearnedModel {
            warmup,
            threshold,
            samples: Vec::new(),
            baseline: None,
            rebaselines: 0,
        }
    }

    /// The current baseline, once learned.
    pub fn baseline(&self) -> Option<&PortLoads> {
        self.baseline.as_ref()
    }

    /// Drop the baseline and all warm-up samples, forcing the model to
    /// relearn from the next observations. Used by the control plane after
    /// a remediation lands: the post-mitigation fabric has a new
    /// `d/(s−f)` load shape, so detection must re-arm against it rather
    /// than keep comparing to the pre-fault baseline.
    pub fn force_relearn(&mut self) {
        self.baseline = None;
        self.samples.clear();
        self.rebaselines += 1;
    }

    /// Feed one iteration's observed cells, in order. `max_rel` is the
    /// largest |relative deviation| of `obs` from [`baseline`](Self::baseline),
    /// as the monitor's detector measured it; it is read only when there is
    /// a baseline. A [`PortLoads`] copy of `obs` is made only to keep it: as
    /// a warm-up sample, or as the new baseline after a heal.
    pub fn observe(&mut self, obs: PortCells<'_>, max_rel: Option<f64>) -> LearnedUpdate {
        let Some(base) = &self.baseline else {
            self.samples.push(obs.to_loads());
            if self.samples.len() as u32 >= self.warmup {
                self.baseline = Some(PortLoads::mean_of(&self.samples));
                self.samples.clear();
                return LearnedUpdate::BaselineReady;
            }
            return LearnedUpdate::Warming;
        };
        let max_rel = max_rel.expect("a deviation from the baseline");
        if max_rel <= self.threshold {
            return LearnedUpdate::Consistent;
        }
        if self.looks_like_heal(base, obs) {
            // Restart learning from this healthier state.
            self.rebaselines += 1;
            self.samples.clear();
            if self.warmup == 1 {
                self.baseline = Some(obs.to_loads());
            } else {
                self.samples.push(obs.to_loads());
                self.baseline = None;
            }
            return LearnedUpdate::Rebalanced;
        }
        LearnedUpdate::Deviating { max_rel }
    }

    /// Heuristic from §5.2: "When a fault heals, the load observed on all
    /// ports re-balances more evenly." The discriminator is per-leaf
    /// imbalance (coefficient of variation): a heal reduces it, a new
    /// fault increases it. Total volume is only a sanity guard — with a
    /// reliable transport, retransmissions restore the totals even under
    /// drops, and duplicate deliveries can slightly inflate a
    /// fault-period baseline, so the volume check carries a
    /// threshold-sized tolerance.
    fn looks_like_heal(&self, base: &PortLoads, obs: PortCells<'_>) -> bool {
        let tol = self.threshold.max(1e-6);
        let vol_ok = obs.total() >= base.total() * (1.0 - tol);
        if !vol_ok {
            return false;
        }
        // Per-leaf imbalance comparison, with threshold-scaled tolerance so
        // measurement noise (jitter, retransmission timing) on unrelated
        // leaves cannot veto a genuine heal. A *new* fault makes some
        // leaf's CoV rise markedly and no leaf's fall markedly, so it can
        // never pass this gate.
        let mut improved = false;
        for leaf in 0..base.n_leaves as u32 {
            let b = base.leaf_cov(leaf);
            let o = obs.leaf_cov(leaf);
            if o > b + tol {
                return false; // some leaf got *more* imbalanced: not a heal
            }
            if o < b - tol {
                improved = true;
            }
        }
        improved
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::detector::tests::max_rel_dev;
    use crate::detector::Detector;

    /// Observe one leaf's ports, judged as a monitor with the default
    /// detector judges them.
    fn feed(m: &mut LearnedModel, vals: &[u64]) -> LearnedUpdate {
        let obs = PortCells {
            n_leaves: 1,
            n_vspines: vals.len(),
            bytes: vals,
        };
        let max_rel = m
            .baseline()
            .map(|base| Detector::default().judge(base, obs, &mut Vec::new()));
        m.observe(obs, max_rel)
    }

    #[test]
    fn warmup_then_baseline() {
        let mut m = LearnedModel::new(2, 0.01);
        assert_eq!(feed(&mut m, &[100, 100]), LearnedUpdate::Warming);
        assert_eq!(feed(&mut m, &[102, 98]), LearnedUpdate::BaselineReady);
        let b = m.baseline().unwrap();
        assert_eq!(b.bytes, vec![101.0, 99.0]);
    }

    #[test]
    fn consistent_iterations_pass() {
        let mut m = LearnedModel::new(1, 0.01);
        feed(&mut m, &[1000, 1000]);
        assert_eq!(feed(&mut m, &[1001, 999]), LearnedUpdate::Consistent);
    }

    #[test]
    fn new_fault_deviates() {
        let mut m = LearnedModel::new(1, 0.01);
        feed(&mut m, &[1000, 1000]);
        // Port 0 loses 5%: volume down, imbalance up → a fault, not a heal.
        match feed(&mut m, &[950, 1000]) {
            LearnedUpdate::Deviating { max_rel } => assert!((max_rel - 0.05).abs() < 1e-9),
            u => panic!("expected Deviating, got {u:?}"),
        }
        assert_eq!(m.rebaselines, 0);
    }

    #[test]
    fn heal_rebaselines() {
        // Learn a baseline *during* a transient fault: port 0 suppressed.
        let mut m = LearnedModel::new(1, 0.01);
        feed(&mut m, &[700, 1000]);
        // Fault heals: port 0 returns to parity, volume up, imbalance down.
        assert_eq!(feed(&mut m, &[1000, 1000]), LearnedUpdate::Rebalanced);
        assert_eq!(m.rebaselines, 1);
        // With warmup=1 the new baseline is live immediately.
        assert_eq!(m.baseline().unwrap().bytes, vec![1000.0, 1000.0]);
        // Subsequent healthy iterations are consistent.
        assert_eq!(feed(&mut m, &[1000, 1000]), LearnedUpdate::Consistent);
    }

    #[test]
    fn heal_with_multi_iteration_warmup_relearns() {
        let mut m = LearnedModel::new(2, 0.01);
        feed(&mut m, &[700, 1000]);
        feed(&mut m, &[700, 1000]);
        assert!(m.baseline().is_some());
        assert_eq!(feed(&mut m, &[1000, 1000]), LearnedUpdate::Rebalanced);
        // One more sample completes the fresh warm-up.
        assert_eq!(feed(&mut m, &[1000, 1000]), LearnedUpdate::BaselineReady);
    }

    /// `observe` as it was while it still cloned the baseline on every
    /// call: the reference the borrowing version is held to. `floor` is the
    /// one the model is judged at.
    fn observe_by_clone(m: &mut LearnedModel, obs: PortCells<'_>, floor: f64) -> LearnedUpdate {
        let Some(base) = m.baseline.clone() else {
            m.samples.push(obs.to_loads());
            if m.samples.len() as u32 >= m.warmup {
                m.baseline = Some(PortLoads::mean_of(&m.samples));
                m.samples.clear();
                return LearnedUpdate::BaselineReady;
            }
            return LearnedUpdate::Warming;
        };
        let max_rel = max_rel_dev(&base, &obs.to_loads(), floor);
        if max_rel <= m.threshold {
            return LearnedUpdate::Consistent;
        }
        if m.looks_like_heal(&base, obs) {
            m.rebaselines += 1;
            m.samples.clear();
            m.samples.push(obs.to_loads());
            if m.warmup == 1 {
                m.baseline = Some(obs.to_loads());
                m.samples.clear();
            } else {
                m.baseline = None;
            }
            return LearnedUpdate::Rebalanced;
        }
        LearnedUpdate::Deviating { max_rel }
    }

    /// Port counters that walk a model through every verdict: a fault-time
    /// shape, the healed shape, noise inside the threshold, new faults, and
    /// near-empty ports whose warm-up means fall between 0 and 1.
    pub(crate) static SHAPES: [[u64; 4]; 8] = [
        [700, 1000, 1000, 1000],
        [1000, 1000, 1000, 1000],
        [1004, 997, 1000, 1001],
        [940, 1000, 1000, 1030],
        [900, 900, 900, 900],
        [0, 1000, 1000, 1000],
        [1000, 1000, 1, 3],
        [1, 1000, 0, 2],
    ];

    pub(crate) fn shape(k: usize) -> PortCells<'static> {
        PortCells {
            n_leaves: 2,
            n_vspines: 2,
            bytes: &SHAPES[k],
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Borrowing the baseline changed no verdict and no state: heal →
        /// `Rebalanced` with a one- and a multi-iteration warm-up,
        /// `force_relearn` at arbitrary points.
        #[test]
        fn observe_matches_the_cloning_formulation(
            warmup in 1u32..4,
            steps in collection::vec((0usize..SHAPES.len(), 0u32..12), 1..40),
        ) {
            let mut new = LearnedModel::new(warmup, 0.01);
            let mut old = new.clone();
            let detector = Detector::default();
            for (k, relearn) in steps {
                if relearn == 0 {
                    new.force_relearn();
                    old.force_relearn();
                }
                let max_rel = new
                    .baseline()
                    .map(|base| detector.judge(base, shape(k), &mut Vec::new()));
                let verdict = new.observe(shape(k), max_rel);
                prop_assert_eq!(
                    verdict,
                    observe_by_clone(&mut old, shape(k), detector.min_expected)
                );
                prop_assert_eq!(new.baseline(), old.baseline());
                prop_assert_eq!(&new.samples, &old.samples);
                prop_assert_eq!(new.rebaselines, old.rebaselines);
            }
        }
    }

    #[test]
    fn volume_drop_is_never_a_heal() {
        let mut m = LearnedModel::new(1, 0.01);
        feed(&mut m, &[1000, 1000]);
        // Re-balanced but *less* volume: e.g. a black hole that happens to
        // even things out must still alarm.
        match feed(&mut m, &[900, 900]) {
            LearnedUpdate::Deviating { .. } => {}
            u => panic!("expected Deviating, got {u:?}"),
        }
    }
}
