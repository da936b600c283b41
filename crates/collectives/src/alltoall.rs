//! AlltoAll collectives (paper §7 "Beyond reduction collectives").
//!
//! AlltoAll has a *dense* demand matrix — every node sends to every other
//! node — and, unlike data-parallel AllReduce, the per-pair volume may vary
//! (expert parallelism). FlowPulse's future-work section proposes handling
//! it by extracting the demand matrix and recomputing expected loads; this
//! module provides the uniform variant and the §5.1 measured subset, so
//! the localization experiments (which need multiple senders per monitored
//! port — Fig. 4) have a workload to run on.

use crate::schedule::{Schedule, Transfer};
use fp_netsim::ids::HostId;

/// Uniform AlltoAll: every node sends `bytes_per_pair` to every other node,
/// all transfers independent (step 0).
pub fn alltoall_uniform(nodes: &[HostId], bytes_per_pair: u64) -> Schedule {
    assert!(nodes.len() >= 2);
    assert!(bytes_per_pair > 0);
    let mut transfers = Vec::with_capacity(nodes.len() * (nodes.len() - 1));
    for &src in nodes {
        for &dst in nodes {
            if src != dst {
                transfers.push(Transfer {
                    src,
                    dst,
                    bytes: bytes_per_pair,
                    step: 0,
                });
            }
        }
    }
    let deps = vec![None; transfers.len()];
    Schedule {
        name: "alltoall-uniform".to_string(),
        nodes: nodes.to_vec(),
        transfers,
        deps,
    }
}

/// Pick the paper's §5.1 measured subset for a multi-destination schedule:
/// for each leaf, the single transfer to the cyclically-next leaf — every
/// leaf appears exactly once as a non-local sender and once as a receiver.
/// `host_leaf` maps host index → leaf index. Panics if some leaf has no
/// transfer to its successor (uniform AlltoAll always does).
pub fn single_nonlocal_subset(sched: &Schedule, host_leaf: &[u32]) -> Vec<u32> {
    let n_leaves = host_leaf.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut picked = Vec::with_capacity(n_leaves as usize);
    for l in 0..n_leaves {
        let succ = (l + 1) % n_leaves;
        let t = sched
            .transfers
            .iter()
            .position(|t| host_leaf[t.src.idx()] == l && host_leaf[t.dst.idx()] == succ)
            .unwrap_or_else(|| panic!("no transfer from leaf {l} to leaf {succ}"));
        picked.push(t as u32);
    }
    picked
}

/// Aggregate demand of a subset of transfers (the demand matrix FlowPulse
/// models when only a measured subset is tagged).
pub fn demand_of_subset(
    sched: &Schedule,
    subset: &[u32],
    n_hosts: usize,
) -> crate::demand::DemandMatrix {
    let mut d = crate::demand::DemandMatrix::new(n_hosts);
    for &i in subset {
        let t = sched.transfers[i as usize];
        d.add(t.src, t.dst, t.bytes);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn subset_covers_each_leaf_once() {
        let s = alltoall_uniform(&hosts(6), 100);
        let host_leaf: Vec<u32> = (0..6).collect(); // one host per leaf
        let subset = single_nonlocal_subset(&s, &host_leaf);
        assert_eq!(subset.len(), 6);
        // Each leaf sends exactly once (to its successor) and receives once.
        let mut senders = std::collections::HashSet::new();
        let mut receivers = std::collections::HashSet::new();
        for &i in &subset {
            let t = s.transfers[i as usize];
            assert!(senders.insert(t.src));
            assert!(receivers.insert(t.dst));
            assert_eq!(t.dst.0, (t.src.0 + 1) % 6);
        }
        let d = demand_of_subset(&s, &subset, 6);
        assert_eq!(d.total(), 600);
    }

    #[test]
    fn subset_with_multiple_hosts_per_leaf() {
        // 4 hosts on 2 leaves: subset picks one representative pair per
        // leaf boundary.
        let s = alltoall_uniform(&hosts(4), 50);
        let host_leaf = vec![0u32, 0, 1, 1];
        let subset = single_nonlocal_subset(&s, &host_leaf);
        assert_eq!(subset.len(), 2);
        for &i in &subset {
            let t = s.transfers[i as usize];
            assert_ne!(host_leaf[t.src.idx()], host_leaf[t.dst.idx()]);
        }
    }

    #[test]
    fn uniform_covers_all_pairs() {
        let s = alltoall_uniform(&hosts(4), 100);
        s.validate().unwrap();
        assert_eq!(s.transfers.len(), 12);
        assert_eq!(s.total_bytes(), 1200);
        assert_eq!(s.n_steps(), 1);
        let d = s.demand(4);
        for i in 0..4u32 {
            for j in 0..4u32 {
                let want = if i == j { 0 } else { 100 };
                assert_eq!(d.get(HostId(i), HostId(j)), want);
            }
        }
    }

    #[test]
    fn all_transfers_are_roots() {
        let s = alltoall_uniform(&hosts(3), 10);
        assert_eq!(s.roots().len(), s.transfers.len());
        assert_eq!(s.depth(), 1);
    }
}
