//! Fault detection by per-port deviation (paper §5.3).
//!
//! "Every leaf switch counts the data volume received at each ingress port
//! from spines during each collective iteration. At the end of each
//! iteration … the switch compares the observations against the model
//! prediction. If the discrepancy exceeds a predefined threshold, the
//! switch declares a fault. … FlowPulse uses a detection threshold of 1%."

use crate::model::PortLoads;
use serde::{Deserialize, Serialize};

/// One port whose observation deviates from the prediction.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Deviation {
    /// Leaf that observed the deviation.
    pub leaf: u32,
    /// Monitored ingress port (virtual spine index).
    pub vspine: u32,
    /// Predicted bytes.
    pub expected: f64,
    /// Observed bytes.
    pub observed: f64,
    /// Signed relative deviation `(observed − expected) / expected`.
    pub rel: f64,
}

/// Threshold comparator.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Detector {
    /// Relative-deviation alarm threshold (paper default: 0.01).
    pub threshold: f64,
    /// Ports expected to carry fewer bytes than this are skipped (their
    /// relative deviation is meaningless); observed-but-unexpected traffic
    /// above this floor *is* flagged.
    pub min_expected: f64,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            threshold: 0.01,
            min_expected: 1.0,
        }
    }
}

impl Detector {
    /// A detector with the paper's 1% threshold.
    pub fn new(threshold: f64) -> Self {
        Detector {
            threshold,
            ..Default::default()
        }
    }

    /// All ports (across all leaves) deviating beyond the threshold.
    pub fn compare(&self, expected: &PortLoads, observed: &PortLoads) -> Vec<Deviation> {
        assert_eq!(expected.bytes.len(), observed.bytes.len(), "shape mismatch");
        let mut out = Vec::new();
        for leaf in 0..expected.n_leaves as u32 {
            for v in 0..expected.n_vspines as u32 {
                let e = expected.get(leaf, v);
                let o = observed.get(leaf, v);
                if e >= self.min_expected {
                    let rel = (o - e) / e;
                    if rel.abs() > self.threshold {
                        out.push(Deviation {
                            leaf,
                            vspine: v,
                            expected: e,
                            observed: o,
                            rel,
                        });
                    }
                } else if o > self.min_expected {
                    out.push(Deviation {
                        leaf,
                        vspine: v,
                        expected: e,
                        observed: o,
                        rel: f64::INFINITY,
                    });
                }
            }
        }
        out
    }

    /// Largest absolute relative deviation (for ROC sweeps, which evaluate
    /// many thresholds over one run).
    pub fn max_abs_rel(&self, expected: &PortLoads, observed: &PortLoads) -> f64 {
        expected.max_rel_dev(observed, self.min_expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(vals: &[f64]) -> PortLoads {
        PortLoads {
            n_leaves: 1,
            n_vspines: vals.len(),
            bytes: vals.to_vec(),
        }
    }

    #[test]
    fn no_deviation_within_threshold() {
        let d = Detector::new(0.01);
        let e = loads(&[1000.0, 1000.0]);
        let o = loads(&[995.0, 1004.0]); // ±0.5%
        assert!(d.compare(&e, &o).is_empty());
    }

    #[test]
    fn detects_shortfall_beyond_threshold() {
        let d = Detector::new(0.01);
        let e = loads(&[1000.0, 1000.0]);
        let o = loads(&[980.0, 1000.0]); // −2%
        let devs = d.compare(&e, &o);
        assert_eq!(devs.len(), 1);
        assert_eq!(devs[0].vspine, 0);
        assert!((devs[0].rel + 0.02).abs() < 1e-12);
    }

    #[test]
    fn detects_excess_too() {
        // Excess traffic (e.g. a routing loop or mis-tagged flows) also
        // breaks symmetry.
        let d = Detector::new(0.01);
        let e = loads(&[1000.0]);
        let o = loads(&[1030.0]);
        let devs = d.compare(&e, &o);
        assert_eq!(devs.len(), 1);
        assert!(devs[0].rel > 0.0);
    }

    #[test]
    fn tiny_expected_ports_are_skipped() {
        let d = Detector::new(0.01);
        let e = loads(&[0.0]);
        let o = loads(&[0.0]);
        assert!(d.compare(&e, &o).is_empty());
    }

    #[test]
    fn unexpected_traffic_is_flagged() {
        let d = Detector::new(0.01);
        let e = loads(&[0.0]);
        let o = loads(&[800.0]);
        let devs = d.compare(&e, &o);
        assert_eq!(devs.len(), 1);
        assert!(devs[0].rel.is_infinite());
    }

    #[test]
    fn deviations_name_their_leaf() {
        let d = Detector::new(0.01);
        let e = PortLoads {
            n_leaves: 2,
            n_vspines: 2,
            bytes: vec![100.0, 100.0, 100.0, 100.0],
        };
        let o = PortLoads {
            n_leaves: 2,
            n_vspines: 2,
            bytes: vec![100.0, 100.0, 90.0, 100.0],
        };
        let all = d.compare(&e, &o);
        assert_eq!(all.len(), 1);
        assert_eq!((all[0].leaf, all[0].vspine), (1, 0));
    }

    #[test]
    fn exactly_at_threshold_is_not_an_alarm() {
        // Strict inequality: 1% threshold tolerates exactly 1%.
        let d = Detector::new(0.01);
        let e = loads(&[1000.0]);
        let o = loads(&[990.0]);
        assert!(d.compare(&e, &o).is_empty());
    }

    #[test]
    fn near_zero_prediction_with_real_traffic_is_flagged() {
        // `min_expected` floor: a prediction *below* the floor but nonzero
        // must behave like the zero case — real observed traffic on the
        // port is a symmetry break, not a skipped comparison.
        let d = Detector::new(0.01);
        let e = loads(&[0.5]); // below min_expected = 1.0
        let o = loads(&[900.0]);
        let devs = d.compare(&e, &o);
        assert_eq!(devs.len(), 1);
        assert!(devs[0].rel.is_infinite());
        assert_eq!(devs[0].observed, 900.0);
    }

    #[test]
    fn tiny_expected_and_tiny_observed_is_not_a_spurious_alarm() {
        // Divide-by-near-zero guard: 0.25 predicted vs 0.75 observed is a
        // 200% "relative deviation" but both are noise below the floor —
        // no alarm.
        let d = Detector::new(0.01);
        let e = loads(&[0.25]);
        let o = loads(&[0.75]);
        assert!(d.compare(&e, &o).is_empty());

        // Same with observed exactly at the floor (strict `>` comparison).
        let o_at_floor = loads(&[d.min_expected]);
        assert!(d.compare(&e, &o_at_floor).is_empty());
    }

    #[test]
    fn floor_boundary_uses_the_ratio_path() {
        // A prediction exactly at `min_expected` participates in the
        // normal relative comparison (`>=` floor check), so a genuine
        // shortfall there still alarms with a finite rel.
        let d = Detector::new(0.01);
        let e = loads(&[1.0]);
        let o = loads(&[0.5]);
        let devs = d.compare(&e, &o);
        assert_eq!(devs.len(), 1);
        assert!((devs[0].rel + 0.5).abs() < 1e-12);
        assert!(devs[0].rel.is_finite());
    }
}
