//! Demand matrices: how many bytes each host pair exchanges per iteration.
//!
//! The demand matrix is the application-level knowledge FlowPulse's
//! analytical model consumes (paper §5.2): "The application knows which
//! nodes will communicate over the course of the collective, as well as how
//! much data each pair will send."

use fp_netsim::ids::HostId;
use serde::{Deserialize, Serialize};

/// Dense N×N matrix of per-iteration bytes, indexed `[src][dst]`.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct DemandMatrix {
    n: usize,
    d: Vec<u64>,
}

impl DemandMatrix {
    /// Zero demand among `n` hosts.
    pub fn new(n: usize) -> Self {
        DemandMatrix {
            n,
            d: vec![0; n * n],
        }
    }

    /// Add `bytes` to the `(src, dst)` demand.
    pub fn add(&mut self, src: HostId, dst: HostId, bytes: u64) {
        assert_ne!(src, dst, "self-demand");
        self.d[src.idx() * self.n + dst.idx()] += bytes;
    }

    /// Demand from `src` to `dst`.
    pub fn get(&self, src: HostId, dst: HostId) -> u64 {
        self.d[src.idx() * self.n + dst.idx()]
    }

    /// Total bytes across all pairs.
    pub fn total(&self) -> u64 {
        self.d.iter().sum()
    }

    /// Iterate all non-zero `(src, dst, bytes)` entries.
    pub fn pairs(&self) -> impl Iterator<Item = (HostId, HostId, u64)> + '_ {
        let n = self.n;
        self.d
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(move |(i, &b)| (HostId((i / n) as u32), HostId((i % n) as u32), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(1), 100);
        d.add(HostId(0), HostId(1), 50);
        d.add(HostId(3), HostId(0), 7);
        assert_eq!(d.get(HostId(0), HostId(1)), 150);
        assert_eq!(d.get(HostId(1), HostId(0)), 0);
        assert_eq!(d.total(), 157);
    }

    #[test]
    fn pairs_skips_zeros() {
        let mut d = DemandMatrix::new(3);
        d.add(HostId(2), HostId(0), 9);
        let ps: Vec<_> = d.pairs().collect();
        assert_eq!(ps, vec![(HostId(2), HostId(0), 9)]);
    }

    #[test]
    #[should_panic]
    fn self_demand_panics() {
        let mut d = DemandMatrix::new(2);
        d.add(HostId(1), HostId(1), 1);
    }
}
