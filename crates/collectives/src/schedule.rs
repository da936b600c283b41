//! Collective schedules: transfers plus dependencies.
//!
//! A [`Schedule`] is the static communication plan of one collective
//! iteration: a list of point-to-point [`Transfer`]s, where a transfer may
//! depend on another transfer having *completed at its receiver* (the
//! receive-then-forward structure of pipelined rings and recursive
//! halving/doubling). The runner executes the same schedule every training
//! iteration — that repetition is the source of temporal symmetry (§4).

use crate::demand::DemandMatrix;
use fp_netsim::ids::HostId;
use serde::{Deserialize, Serialize};

/// One point-to-point message within a collective iteration.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct Transfer {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Message size in bytes.
    pub bytes: u64,
    /// Logical step (for inspection; execution order is driven by `deps`).
    pub step: u32,
}

/// A complete collective iteration plan.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub struct Schedule {
    /// Human-readable collective name.
    pub name: String,
    /// Participating hosts.
    pub nodes: Vec<HostId>,
    /// All transfers of one iteration.
    pub transfers: Vec<Transfer>,
    /// `deps[t]` = transfer that must complete before `t` may start
    /// (`None` = starts at iteration begin).
    pub deps: Vec<Option<u32>>,
}

impl Schedule {
    /// Indices of transfers with no prerequisite.
    pub fn roots(&self) -> Vec<u32> {
        self.deps
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i as u32))
            .collect()
    }

    /// Inverse dependency map: `children()[t]` = transfers unblocked when
    /// `t` completes.
    pub(crate) fn children(&self) -> Vec<Vec<u32>> {
        let mut ch = vec![Vec::new(); self.transfers.len()];
        for (i, d) in self.deps.iter().enumerate() {
            if let Some(p) = d {
                ch[*p as usize].push(i as u32);
            }
        }
        ch
    }

    /// Aggregate per-pair demand over one iteration, sized for `n_hosts`.
    pub fn demand(&self, n_hosts: usize) -> DemandMatrix {
        let mut d = DemandMatrix::new(n_hosts);
        for t in &self.transfers {
            d.add(t.src, t.dst, t.bytes);
        }
        d
    }

    /// Total bytes moved per iteration.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Number of distinct steps.
    pub fn n_steps(&self) -> u32 {
        self.transfers.iter().map(|t| t.step + 1).max().unwrap_or(0)
    }

    /// Structural sanity: deps in range and acyclic (prerequisite must have
    /// a strictly smaller step), transfers non-degenerate, and the
    /// dependency's receiver is the dependent transfer's sender (you can
    /// only forward what *you* received).
    pub fn validate(&self) -> Result<(), String> {
        if self.deps.len() != self.transfers.len() {
            return Err("deps/transfers length mismatch".into());
        }
        for (i, t) in self.transfers.iter().enumerate() {
            if t.src == t.dst {
                return Err(format!("transfer {i} is self-addressed"));
            }
            if t.bytes == 0 {
                return Err(format!("transfer {i} is empty"));
            }
            if let Some(p) = self.deps[i] {
                let p = p as usize;
                if p >= self.transfers.len() {
                    return Err(format!("transfer {i} depends on out-of-range {p}"));
                }
                if self.transfers[p].step >= t.step {
                    return Err(format!(
                        "transfer {i} (step {}) depends on {p} (step {}) — not acyclic",
                        t.step, self.transfers[p].step
                    ));
                }
                if self.transfers[p].dst != t.src {
                    return Err(format!(
                        "transfer {i} sender {} is not the receiver {} of its dependency",
                        t.src, self.transfers[p].dst
                    ));
                }
            }
        }
        Ok(())
    }

    /// Longest dependency chain length (pipeline depth).
    pub fn depth(&self) -> u32 {
        let mut depth = vec![0u32; self.transfers.len()];
        let mut max = 0;
        // deps always point to earlier indices after validate(); walk in order.
        for i in 0..self.transfers.len() {
            if let Some(p) = self.deps[i] {
                depth[i] = depth[p as usize] + 1;
            } else {
                depth[i] = 1;
            }
            max = max.max(depth[i]);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_step() -> Schedule {
        Schedule {
            name: "test".into(),
            nodes: vec![HostId(0), HostId(1), HostId(2)],
            transfers: vec![
                Transfer {
                    src: HostId(0),
                    dst: HostId(1),
                    bytes: 10,
                    step: 0,
                },
                Transfer {
                    src: HostId(1),
                    dst: HostId(2),
                    bytes: 10,
                    step: 1,
                },
            ],
            deps: vec![None, Some(0)],
        }
    }

    #[test]
    fn roots_and_children() {
        let s = two_step();
        assert_eq!(s.roots(), vec![0]);
        assert_eq!(s.children(), vec![vec![1], vec![]]);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.n_steps(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn demand_aggregates() {
        let s = two_step();
        let d = s.demand(3);
        assert_eq!(d.get(HostId(0), HostId(1)), 10);
        assert_eq!(d.get(HostId(1), HostId(2)), 10);
        assert_eq!(d.total(), 20);
    }

    #[test]
    fn validate_catches_cycles() {
        let mut s = two_step();
        s.transfers[1].step = 0; // same step as its dependency
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_wrong_forwarder() {
        let mut s = two_step();
        s.transfers[1].src = HostId(2); // dep's receiver is 1, not 2
        s.transfers[1].dst = HostId(0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_degenerate() {
        let mut s = two_step();
        s.transfers[0].bytes = 0;
        assert!(s.validate().is_err());
    }
}
