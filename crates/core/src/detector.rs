//! Fault detection by per-port deviation (paper §5.3).
//!
//! "Every leaf switch counts the data volume received at each ingress port
//! from spines during each collective iteration. At the end of each
//! iteration … the switch compares the observations against the model
//! prediction. If the discrepancy exceeds a predefined threshold, the
//! switch declares a fault. … FlowPulse uses a detection threshold of 1%."

use crate::model::{PortCells, PortLoads};
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

/// Ports expected to carry fewer bytes than this are skipped (their
/// relative deviation is meaningless); observed-but-unexpected traffic
/// above this floor *is* flagged.
const MIN_EXPECTED: f64 = 1.0;

/// Threshold comparator.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Detector {
    /// Relative-deviation alarm threshold (paper default: 0.01).
    pub(crate) threshold: f64,
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new(0.01)
    }
}

impl Detector {
    /// A detector alarming past relative deviation `threshold`.
    pub fn new(threshold: f64) -> Self {
        Detector { threshold }
    }

    /// All ports (across all leaves) deviating beyond the threshold, leaf
    /// by leaf.
    pub fn compare(&self, expected: &PortLoads, observed: &PortLoads) -> Vec<Deviation> {
        let mut out = Vec::new();
        self.pass(expected, observed.bytes.iter().copied(), |d| out.push(d));
        out
    }

    /// Largest absolute relative deviation (for ROC sweeps, which evaluate
    /// many thresholds over one run).
    pub fn max_abs_rel(&self, expected: &PortLoads, observed: &PortLoads) -> f64 {
        self.pass(expected, observed.bytes.iter().copied(), |_| {})
    }

    /// One pass over every port of an observed iteration, read in place:
    /// appends to `out` the ports [`compare`](Self::compare) lists and
    /// returns the figure [`max_abs_rel`](Self::max_abs_rel) reports.
    pub(crate) fn judge(
        &self,
        expected: &PortLoads,
        observed: PortCells<'_>,
        out: &mut Vec<Deviation>,
    ) -> f64 {
        self.pass(expected, observed.values(), |d| out.push(d))
    }

    /// The deviation rule, once per port. A port expected to carry at
    /// least the floor deviates by `(o − e) / e`; one expected below it
    /// deviates only when it carries more than the floor — traffic where
    /// none was expected — which counts as 1 towards the maximum and is
    /// reported with an infinite `rel`. Inlined into each view, so that one
    /// that drops the maximum (`compare`) or the deviations (`max_abs_rel`)
    /// does not compute it: out of line, `compare` paid for the maximum,
    /// ≈ 15 % of its time on a 32 × 16 fabric (Xeon, 2 vCPU).
    #[inline(always)]
    fn pass(
        &self,
        expected: &PortLoads,
        observed: impl ExactSizeIterator<Item = f64>,
        mut deviating: impl FnMut(Deviation),
    ) -> f64 {
        assert_eq!(expected.bytes.len(), observed.len(), "shape mismatch");
        let mut worst = 0.0f64;
        for (i, (&e, o)) in expected.bytes.iter().zip(observed).enumerate() {
            let port = |rel| Deviation {
                leaf: (i / expected.n_vspines) as u32,
                vspine: (i % expected.n_vspines) as u32,
                expected: e,
                observed: o,
                rel,
            };
            if e >= MIN_EXPECTED {
                let rel = (o - e) / e;
                worst = worst.max(rel.abs());
                if rel.abs() > self.threshold {
                    deviating(port(rel));
                }
            } else if o > MIN_EXPECTED {
                worst = worst.max(1.0);
                deviating(port(f64::INFINITY));
            }
        }
        worst
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

    /// The maximum as `PortLoads::max_rel_dev` took it in its own pass
    /// over all ports: the reference the one-pass rule is held to.
    pub(crate) fn max_rel_dev(expected: &PortLoads, observed: &PortLoads) -> f64 {
        assert_eq!(expected.bytes.len(), observed.bytes.len(), "shape mismatch");
        let mut worst = 0.0f64;
        for (&e, &o) in expected.bytes.iter().zip(&observed.bytes) {
            if e >= MIN_EXPECTED {
                worst = worst.max(((o - e) / e).abs());
            } else if o > MIN_EXPECTED {
                worst = worst.max(1.0);
            }
        }
        worst
    }

    /// `compare` as it was, leaf by leaf and port by port.
    pub(crate) fn compare_by_port(
        d: &Detector,
        expected: &PortLoads,
        observed: &PortLoads,
    ) -> Vec<Deviation> {
        assert_eq!(expected.bytes.len(), observed.bytes.len(), "shape mismatch");
        let mut out = Vec::new();
        for leaf in 0..expected.n_leaves as u32 {
            for v in 0..expected.n_vspines as u32 {
                let e = expected.get(leaf, v);
                let o = observed.get(leaf, v);
                let dev = |rel| Deviation {
                    leaf,
                    vspine: v,
                    expected: e,
                    observed: o,
                    rel,
                };
                if e >= MIN_EXPECTED {
                    let rel = (o - e) / e;
                    if rel.abs() > d.threshold {
                        out.push(dev(rel));
                    }
                } else if o > MIN_EXPECTED {
                    out.push(dev(f64::INFINITY));
                }
            }
        }
        out
    }

    use proptest::prelude::*;

    /// The 2^53 + 1 and up that `as f64` rounds.
    const BIG: u64 = (1 << 53) + 1;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `judge` (cells in place), `compare` and `max_abs_rel` give what
        /// the two separate passes gave: the maximum bit for bit, the
        /// deviation list entry for entry. Ports expected below, at and
        /// above the floor (0, fractions, 1, 2000) with traffic above it or
        /// not, zeros, observed equal to expected, fractional expectations
        /// (warm-up means), values past 2^53, and thresholds 0 / 1 % / 1 / 2.
        #[test]
        fn one_pass_matches_the_two_pass_oracle(
            dims in (1usize..5, 1usize..6),
            threshold in 0usize..4,
            ports in collection::vec((0u32..7, 0u32..6, 0u64..=u64::MAX), 30),
        ) {
            let (n_leaves, n_vspines) = dims;
            let d = Detector::new([0.0, 0.01, 1.0, 2.0][threshold]);
            let mut expected = PortLoads::zeros(n_leaves, n_vspines);
            let mut cells = vec![0u64; n_leaves * n_vspines];
            for (i, &(e_kind, o_kind, r)) in ports.iter().take(cells.len()).enumerate() {
                let small = r % 5000;
                let e = match e_kind {
                    0 => 0.0,
                    1 => [0.25, 0.5, 1.0, 2000.0][(r % 4) as usize],
                    2 => small as f64 / 3.0,
                    3 => (BIG + r % 1000) as f64,
                    _ => small as f64,
                };
                expected.bytes[i] = e;
                cells[i] = match o_kind {
                    0 => 0,
                    1 => e as u64,
                    2 => (e as u64).saturating_add(r % 7).saturating_sub(3),
                    3 => BIG.max(r),
                    4 => r % 4,
                    _ => small,
                };
            }
            let observed = PortCells { n_leaves, n_vspines, bytes: &cells };
            let as_loads = observed.to_loads();
            let oracle_max = max_rel_dev(&expected, &as_loads);
            let oracle_devs = compare_by_port(&d, &expected, &as_loads);

            let mut devs = Vec::new();
            let max = d.judge(&expected, observed, &mut devs);
            prop_assert_eq!(max.to_bits(), oracle_max.to_bits());
            prop_assert_eq!(&devs, &oracle_devs);
            prop_assert_eq!(d.max_abs_rel(&expected, &as_loads).to_bits(), oracle_max.to_bits());
            prop_assert_eq!(&d.compare(&expected, &as_loads), &oracle_devs);
        }
    }

    #[test]
    fn max_abs_rel_symmetric_cases() {
        let d = Detector::default();
        let e = loads(&[100.0, 100.0]);
        assert_eq!(d.max_abs_rel(&e, &e), 0.0);
        let o = loads(&[98.0, 100.0]); // -2%
        assert!((d.max_abs_rel(&e, &o) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn unexpected_traffic_counts_as_deviation() {
        // Expect nothing, see 500 bytes: 1 towards the maximum.
        let d = Detector::default();
        assert_eq!(d.max_abs_rel(&loads(&[0.0]), &loads(&[500.0])), 1.0);
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
        // `MIN_EXPECTED` floor: a prediction *below* the floor but nonzero
        // must behave like the zero case — real observed traffic on the
        // port is a symmetry break, not a skipped comparison.
        let d = Detector::new(0.01);
        let e = loads(&[0.5]); // below MIN_EXPECTED = 1.0
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
        let o_at_floor = loads(&[MIN_EXPECTED]);
        assert!(d.compare(&e, &o_at_floor).is_empty());
    }

    #[test]
    fn floor_boundary_uses_the_ratio_path() {
        // A prediction exactly at `MIN_EXPECTED` participates in the
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
