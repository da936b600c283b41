//! Per-link load representations.
//!
//! A [`PortLoads`] holds the expected (or observed) byte volume on every
//! monitored port — the spine→leaf ingress ports of every leaf — for one
//! collective iteration. Load models (§5.2) produce predicted `PortLoads`;
//! the in-switch counters produce observed ones, which the monitor reads
//! in place as [`PortCells`]; the detector (§5.3) compares the two.

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
        PortCells::from_counters(c).to_loads()
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
    pub(crate) fn mean_of(samples: &[PortLoads]) -> PortLoads {
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
    pub(crate) fn leaf_cov(&self, leaf: u32) -> f64 {
        cov(self.leaf(leaf).iter().copied())
    }
}

/// One iteration's observed per-port byte counters, borrowed from where
/// they are kept (a `CounterStore`, or a monitor's open iterations): the
/// same row-major `[leaf][vspine]` layout as [`PortLoads`], as the `u64`s
/// the switches count. Each value reads as `b as f64`, the conversion
/// [`PortLoads::from_counters`] makes.
#[derive(Copy, Clone, Debug)]
pub struct PortCells<'a> {
    /// Number of leaves.
    pub n_leaves: usize,
    /// Number of virtual spines (monitored ingress ports per leaf).
    pub n_vspines: usize,
    /// Row-major `[leaf][vspine]` bytes.
    pub bytes: &'a [u64],
}

impl<'a> PortCells<'a> {
    /// The per-port byte counters of one iteration's in-switch counters.
    pub(crate) fn from_counters(c: &'a IterCounters) -> Self {
        let (n_leaves, n_vspines, _) = c.dims();
        PortCells {
            n_leaves,
            n_vspines,
            bytes: &c.bytes,
        }
    }

    /// An owned copy as loads.
    pub(crate) fn to_loads(self) -> PortLoads {
        PortLoads {
            n_leaves: self.n_leaves,
            n_vspines: self.n_vspines,
            bytes: self.values().collect(),
        }
    }

    /// Every port's bytes as `f64`, row-major.
    pub(crate) fn values(self) -> impl ExactSizeIterator<Item = f64> + Clone + 'a {
        self.bytes.iter().map(|&b| b as f64)
    }

    /// Sum over all ports, as [`PortLoads::total`] sums the converted copy.
    pub(crate) fn total(self) -> f64 {
        self.values().sum()
    }

    /// [`PortLoads::leaf_cov`] of the converted copy.
    pub(crate) fn leaf_cov(self, leaf: u32) -> f64 {
        let s = leaf as usize * self.n_vspines;
        cov(self.bytes[s..s + self.n_vspines].iter().map(|&b| b as f64))
    }
}

/// Coefficient of variation (σ/μ) of `ports`; 0 when there are none or
/// their mean is not positive.
fn cov(ports: impl ExactSizeIterator<Item = f64> + Clone) -> f64 {
    let n = ports.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mean = ports.clone().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = ports.map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    var.sqrt() / mean
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
    pub(crate) fn zeros(n_leaves: usize, n_vspines: usize) -> Self {
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
        let (n_leaves, n_vspines, n_src) = c.dims();
        PortSrcLoads {
            n_leaves,
            n_vspines,
            n_src,
            bytes: c.src_cells().map(|b| b as f64).collect(),
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
    #[cfg(test)]
    pub(crate) fn port_totals(&self) -> PortLoads {
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
    fn cells_read_as_their_converted_copy() {
        // Values above 2^53 round on conversion; every statistic rounds
        // the same way on both sides.
        let big = (1u64 << 53) + 1;
        let bytes = [0, 7, 1000, 999, big, u64::MAX, 3, 3, 0, 0, 0, 0];
        let cells = PortCells {
            n_leaves: 3,
            n_vspines: 4,
            bytes: &bytes,
        };
        let loads = cells.to_loads();
        assert_eq!(loads.bytes[4], big as f64);
        assert_eq!(cells.total().to_bits(), loads.total().to_bits());
        for leaf in 0..3 {
            assert_eq!(
                cells.leaf_cov(leaf).to_bits(),
                loads.leaf_cov(leaf).to_bits()
            );
        }
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
