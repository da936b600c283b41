//! Per-link load representations.
//!
//! A [`PortLoads`] holds the expected (or observed) byte volume on every
//! monitored port — the spine→leaf ingress ports of every leaf — for one
//! collective iteration. Load models (§5.2) produce predicted `PortLoads`;
//! the in-switch counters produce observed ones; the detector (§5.3)
//! compares them.

use fp_netsim::counters::IterCounters;
use serde::{Deserialize, Serialize};

/// Byte volume per `(leaf, vspine)` monitored port.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct PortLoads {
    /// Number of leaves.
    pub n_leaves: usize,
    /// Number of virtual spines (monitored ingress ports per leaf).
    pub n_vspines: usize,
    /// Row-major `[leaf][vspine]` bytes.
    pub bytes: Vec<f64>,
}

impl PortLoads {
    /// All-zero loads.
    pub fn zeros(n_leaves: usize, n_vspines: usize) -> Self {
        PortLoads {
            n_leaves,
            n_vspines,
            bytes: vec![0.0; n_leaves * n_vspines],
        }
    }

    /// Convert observed in-switch counters into loads.
    pub fn from_counters(c: &IterCounters) -> Self {
        let (n_leaves, n_vspines) = {
            // bytes layout is [leaf * n_vspines + vspine]
            let nl = c.first_seen.len();
            (nl, c.bytes.len() / nl.max(1))
        };
        PortLoads {
            n_leaves,
            n_vspines,
            bytes: c.bytes.iter().map(|&b| b as f64).collect(),
        }
    }

    /// Load on one port.
    pub fn get(&self, leaf: u32, vspine: u32) -> f64 {
        self.bytes[leaf as usize * self.n_vspines + vspine as usize]
    }

    /// Add to one port.
    pub fn add(&mut self, leaf: u32, vspine: u32, bytes: f64) {
        self.bytes[leaf as usize * self.n_vspines + vspine as usize] += bytes;
    }

    /// One leaf's monitored ports.
    pub fn leaf(&self, leaf: u32) -> &[f64] {
        let s = leaf as usize * self.n_vspines;
        &self.bytes[s..s + self.n_vspines]
    }

    /// Sum over all ports.
    pub fn total(&self) -> f64 {
        self.bytes.iter().sum()
    }

    /// Element-wise mean of several load maps (all same shape).
    pub fn mean_of(samples: &[PortLoads]) -> PortLoads {
        assert!(!samples.is_empty());
        let mut out = PortLoads::zeros(samples[0].n_leaves, samples[0].n_vspines);
        for s in samples {
            assert_eq!(s.bytes.len(), out.bytes.len(), "shape mismatch");
            for (o, &v) in out.bytes.iter_mut().zip(&s.bytes) {
                *o += v;
            }
        }
        let k = samples.len() as f64;
        for o in out.bytes.iter_mut() {
            *o /= k;
        }
        out
    }

    /// Coefficient of variation (σ/μ) of one leaf's non-trivial ports.
    /// Spatial-asymmetry measure: pre-existing faults push it up.
    pub fn leaf_cov(&self, leaf: u32) -> f64 {
        let ports = self.leaf(leaf);
        let n = ports.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = ports.iter().sum::<f64>() / n;
        if mean <= 0.0 {
            return 0.0;
        }
        let var = ports.iter().map(|&p| (p - mean) * (p - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }

    /// Largest |observed−expected|/expected across all ports with
    /// `expected ≥ min_expected`.
    pub fn max_rel_dev(&self, observed: &PortLoads, min_expected: f64) -> f64 {
        assert_eq!(self.bytes.len(), observed.bytes.len(), "shape mismatch");
        let mut worst = 0.0f64;
        for (&e, &o) in self.bytes.iter().zip(&observed.bytes) {
            if e >= min_expected {
                worst = worst.max(((o - e) / e).abs());
            } else if o > min_expected {
                // Traffic where none was expected is itself a deviation.
                worst = worst.max(1.0);
            }
        }
        worst
    }
}

/// Byte volume per `(row, vspine, src_leaf)` — the per-sender breakdown
/// used by the localization logic (§5.3, Fig. 4). Rows are leaves for the
/// leaf-level store and aggregation switches for the 3-level agg store.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct PortSrcLoads {
    /// Number of monitoring rows (leaves, or aggs for the 3-level store).
    pub n_leaves: usize,
    /// Number of virtual spines.
    pub n_vspines: usize,
    /// Number of traffic sources (always leaves).
    pub n_src: usize,
    /// `[(row * n_vspines + vspine) * n_src + src_leaf]` bytes.
    pub bytes: Vec<f64>,
}

impl PortSrcLoads {
    /// All-zero, sources = rows (2-level leaf store shape).
    pub fn zeros(n_leaves: usize, n_vspines: usize) -> Self {
        Self::zeros_with_src(n_leaves, n_vspines, n_leaves)
    }

    /// All-zero with an explicit source dimension.
    fn zeros_with_src(n_rows: usize, n_vspines: usize, n_src: usize) -> Self {
        PortSrcLoads {
            n_leaves: n_rows,
            n_vspines,
            n_src,
            bytes: vec![0.0; n_rows * n_vspines * n_src],
        }
    }

    /// Convert from in-switch counters.
    pub fn from_counters(c: &IterCounters) -> Self {
        let rows = c.first_seen.len();
        let nv = c.bytes.len().checked_div(rows).unwrap_or(0);
        let n_src = if c.bytes.is_empty() {
            0
        } else {
            c.by_src.len() / c.bytes.len()
        };
        PortSrcLoads {
            n_leaves: rows,
            n_vspines: nv,
            n_src,
            bytes: c.by_src.iter().map(|&b| b as f64).collect(),
        }
    }

    /// Bytes from `src_leaf` seen at `leaf` via `vspine`.
    pub fn get(&self, leaf: u32, vspine: u32, src_leaf: u32) -> f64 {
        self.bytes
            [(leaf as usize * self.n_vspines + vspine as usize) * self.n_src + src_leaf as usize]
    }

    /// Add bytes.
    pub fn add(&mut self, leaf: u32, vspine: u32, src_leaf: u32, bytes: f64) {
        self.bytes[(leaf as usize * self.n_vspines + vspine as usize) * self.n_src
            + src_leaf as usize] += bytes;
    }

    /// Collapse the per-sender axis into plain [`PortLoads`].
    pub fn port_totals(&self) -> PortLoads {
        let mut out = PortLoads::zeros(self.n_leaves, self.n_vspines);
        for leaf in 0..self.n_leaves {
            for v in 0..self.n_vspines {
                let base = (leaf * self.n_vspines + v) * self.n_src;
                out.bytes[leaf * self.n_vspines + v] =
                    self.bytes[base..base + self.n_src].iter().sum();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_accessors() {
        let mut p = PortLoads::zeros(2, 3);
        p.add(1, 2, 100.0);
        assert_eq!(p.get(1, 2), 100.0);
        assert_eq!(p.leaf(1), &[0.0, 0.0, 100.0]);
        assert_eq!(p.total(), 100.0);
    }

    #[test]
    fn mean_of_averages() {
        let mut a = PortLoads::zeros(1, 2);
        a.add(0, 0, 10.0);
        let mut b = PortLoads::zeros(1, 2);
        b.add(0, 0, 20.0);
        b.add(0, 1, 4.0);
        let m = PortLoads::mean_of(&[a, b]);
        assert_eq!(m.get(0, 0), 15.0);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn max_rel_dev_symmetric_cases() {
        let mut e = PortLoads::zeros(1, 2);
        e.add(0, 0, 100.0);
        e.add(0, 1, 100.0);
        let mut o = e.clone();
        assert_eq!(e.max_rel_dev(&o, 1.0), 0.0);
        o.bytes[0] = 98.0; // -2%
        let d = e.max_rel_dev(&o, 1.0);
        assert!((d - 0.02).abs() < 1e-12);
    }

    #[test]
    fn unexpected_traffic_counts_as_deviation() {
        let e = PortLoads::zeros(1, 1); // expect nothing
        let mut o = PortLoads::zeros(1, 1);
        o.add(0, 0, 500.0);
        assert_eq!(e.max_rel_dev(&o, 1.0), 1.0);
    }

    #[test]
    fn cov_reflects_imbalance() {
        let mut balanced = PortLoads::zeros(1, 4);
        for v in 0..4 {
            balanced.add(0, v, 100.0);
        }
        assert_eq!(balanced.leaf_cov(0), 0.0);
        let mut skewed = balanced.clone();
        skewed.bytes[0] = 10.0;
        assert!(skewed.leaf_cov(0) > 0.2);
    }

    #[test]
    fn port_src_roundtrip() {
        let mut p = PortSrcLoads::zeros(2, 2);
        p.add(1, 0, 0, 30.0);
        p.add(1, 0, 1, 12.0);
        assert_eq!(p.get(1, 0, 0), 30.0);
        let t = p.port_totals();
        assert_eq!(t.get(1, 0), 42.0);
        assert_eq!(t.get(0, 0), 0.0);
    }
}
