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

use crate::model::PortLoads;
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
    /// Minimum expected bytes for a port to participate in comparisons.
    pub min_expected: f64,
    /// Detect healing and rebaseline (Fig. 3). When false, a healed
    /// transient keeps alarming forever.
    pub healing_detection: bool,
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
            min_expected: 1.0,
            healing_detection: true,
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

    /// Feed one iteration's observed loads, in order.
    pub fn observe(&mut self, obs: &PortLoads) -> LearnedUpdate {
        let Some(base) = &self.baseline else {
            self.samples.push(obs.clone());
            if self.samples.len() as u32 >= self.warmup {
                self.baseline = Some(PortLoads::mean_of(&self.samples));
                self.samples.clear();
                return LearnedUpdate::BaselineReady;
            }
            return LearnedUpdate::Warming;
        };
        let max_rel = base.max_rel_dev(obs, self.min_expected);
        if max_rel <= self.threshold {
            return LearnedUpdate::Consistent;
        }
        if self.healing_detection && self.looks_like_heal(base, obs) {
            // Restart learning from this healthier state.
            self.rebaselines += 1;
            self.samples.clear();
            self.samples.push(obs.clone());
            if self.warmup == 1 {
                self.baseline = Some(obs.clone());
                self.samples.clear();
            } else {
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
    fn looks_like_heal(&self, base: &PortLoads, obs: &PortLoads) -> bool {
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

    fn loads(vals: &[f64]) -> PortLoads {
        PortLoads {
            n_leaves: 1,
            n_vspines: vals.len(),
            bytes: vals.to_vec(),
        }
    }

    #[test]
    fn warmup_then_baseline() {
        let mut m = LearnedModel::new(2, 0.01);
        assert_eq!(m.observe(&loads(&[100.0, 100.0])), LearnedUpdate::Warming);
        assert_eq!(
            m.observe(&loads(&[102.0, 98.0])),
            LearnedUpdate::BaselineReady
        );
        let b = m.baseline().unwrap();
        assert_eq!(b.bytes, vec![101.0, 99.0]);
    }

    #[test]
    fn consistent_iterations_pass() {
        let mut m = LearnedModel::new(1, 0.01);
        m.observe(&loads(&[1000.0, 1000.0]));
        assert_eq!(
            m.observe(&loads(&[1001.0, 999.0])),
            LearnedUpdate::Consistent
        );
    }

    #[test]
    fn new_fault_deviates() {
        let mut m = LearnedModel::new(1, 0.01);
        m.observe(&loads(&[1000.0, 1000.0]));
        // Port 0 loses 5%: volume down, imbalance up → a fault, not a heal.
        match m.observe(&loads(&[950.0, 1000.0])) {
            LearnedUpdate::Deviating { max_rel } => assert!((max_rel - 0.05).abs() < 1e-9),
            u => panic!("expected Deviating, got {u:?}"),
        }
        assert_eq!(m.rebaselines, 0);
    }

    #[test]
    fn heal_rebaselines() {
        // Learn a baseline *during* a transient fault: port 0 suppressed.
        let mut m = LearnedModel::new(1, 0.01);
        m.observe(&loads(&[700.0, 1000.0]));
        // Fault heals: port 0 returns to parity, volume up, imbalance down.
        assert_eq!(
            m.observe(&loads(&[1000.0, 1000.0])),
            LearnedUpdate::Rebalanced
        );
        assert_eq!(m.rebaselines, 1);
        // With warmup=1 the new baseline is live immediately.
        assert_eq!(m.baseline().unwrap().bytes, vec![1000.0, 1000.0]);
        // Subsequent healthy iterations are consistent.
        assert_eq!(
            m.observe(&loads(&[1000.0, 1000.0])),
            LearnedUpdate::Consistent
        );
    }

    #[test]
    fn heal_with_multi_iteration_warmup_relearns() {
        let mut m = LearnedModel::new(2, 0.01);
        m.observe(&loads(&[700.0, 1000.0]));
        m.observe(&loads(&[700.0, 1000.0]));
        assert!(m.baseline().is_some());
        assert_eq!(
            m.observe(&loads(&[1000.0, 1000.0])),
            LearnedUpdate::Rebalanced
        );
        // One more sample completes the fresh warm-up.
        assert_eq!(
            m.observe(&loads(&[1000.0, 1000.0])),
            LearnedUpdate::BaselineReady
        );
    }

    #[test]
    fn healing_detection_can_be_disabled() {
        let mut m = LearnedModel::new(1, 0.01);
        m.healing_detection = false;
        m.observe(&loads(&[700.0, 1000.0]));
        match m.observe(&loads(&[1000.0, 1000.0])) {
            LearnedUpdate::Deviating { .. } => {}
            u => panic!("expected Deviating, got {u:?}"),
        }
    }

    /// `observe` as it was while it still cloned the baseline on every
    /// call: the reference the borrowing version is held to.
    fn observe_by_clone(m: &mut LearnedModel, obs: &PortLoads) -> LearnedUpdate {
        let Some(base) = m.baseline.clone() else {
            m.samples.push(obs.clone());
            if m.samples.len() as u32 >= m.warmup {
                m.baseline = Some(PortLoads::mean_of(&m.samples));
                m.samples.clear();
                return LearnedUpdate::BaselineReady;
            }
            return LearnedUpdate::Warming;
        };
        let max_rel = base.max_rel_dev(obs, m.min_expected);
        if max_rel <= m.threshold {
            return LearnedUpdate::Consistent;
        }
        if m.healing_detection && m.looks_like_heal(&base, obs) {
            m.rebaselines += 1;
            m.samples.clear();
            m.samples.push(obs.clone());
            if m.warmup == 1 {
                m.baseline = Some(obs.clone());
                m.samples.clear();
            } else {
                m.baseline = None;
            }
            return LearnedUpdate::Rebalanced;
        }
        LearnedUpdate::Deviating { max_rel }
    }

    /// Port loads that walk a model through every verdict: a fault-time
    /// shape, the healed shape, noise inside the threshold, new faults.
    pub(crate) const SHAPES: [[f64; 4]; 7] = [
        [700.0, 1000.0, 1000.0, 1000.0],
        [1000.0, 1000.0, 1000.0, 1000.0],
        [1004.0, 997.0, 1000.0, 1001.0],
        [940.0, 1000.0, 1000.0, 1030.0],
        [900.0, 900.0, 900.0, 900.0],
        [0.0, 1000.0, 1000.0, 1000.0],
        [1000.0, 1000.0, 0.5, 3.0],
    ];

    pub(crate) fn shape(k: usize) -> PortLoads {
        PortLoads {
            n_leaves: 2,
            n_vspines: 2,
            bytes: SHAPES[k].to_vec(),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Borrowing the baseline changed no verdict and no state: heal →
        /// `Rebalanced` with a one- and a multi-iteration warm-up,
        /// `force_relearn` at arbitrary points, healing detection off.
        #[test]
        fn observe_matches_the_cloning_formulation(
            warmup in 1u32..4,
            healing in 0u32..4,
            steps in collection::vec((0usize..SHAPES.len(), 0u32..12), 1..40),
        ) {
            let mut new = LearnedModel::new(warmup, 0.01);
            new.healing_detection = healing > 0;
            let mut old = new.clone();
            for (k, relearn) in steps {
                if relearn == 0 {
                    new.force_relearn();
                    old.force_relearn();
                }
                prop_assert_eq!(new.observe(&shape(k)), observe_by_clone(&mut old, &shape(k)));
                prop_assert_eq!(new.baseline(), old.baseline());
                prop_assert_eq!(&new.samples, &old.samples);
                prop_assert_eq!(new.rebaselines, old.rebaselines);
            }
        }
    }

    #[test]
    fn volume_drop_is_never_a_heal() {
        let mut m = LearnedModel::new(1, 0.01);
        m.observe(&loads(&[1000.0, 1000.0]));
        // Re-balanced but *less* volume: e.g. a black hole that happens to
        // even things out must still alarm.
        match m.observe(&loads(&[900.0, 900.0])) {
            LearnedUpdate::Deviating { .. } => {}
            u => panic!("expected Deviating, got {u:?}"),
        }
    }
}
