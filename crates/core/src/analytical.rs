//! The analytical per-link load model (paper §5.2).
//!
//! "If a given source-destination pair is expected to send *d* bytes, *f*
//! spines have failed links to either the source or destination, and there
//! are *s* total spines, then each remaining spine is traversed by
//! *d/(s−f)* bytes. … Adding up the contributions from each
//! source-destination pair whose destination corresponds to a given leaf
//! switch is all that is needed to predict the load on each of the leaf
//! switch's ingress ports from spines."
//!
//! Known (admin-down) faults shape the valid-spine sets — by the same
//! rule the engine's spray tables use, [`Topology::valid_planes`]; silent
//! faults, by definition, do not. The model is exact for an ideally
//! load-balanced APS fabric, which the `Adaptive` spray policy
//! approximates to within a packet or two per port (see Fig. 2 /
//! experiment E1).

use crate::model::{PortLoads, PortSrcLoads};
use fp_collectives::demand::DemandMatrix;
use fp_netsim::ids::LinkId;
use fp_netsim::topology::Topology;
use std::collections::HashSet;

/// Analytical load model over a fat-tree with known faults.
pub struct AnalyticalModel<'a> {
    topo: &'a Topology,
    admin_down: HashSet<LinkId>,
}

/// Prediction plus diagnostics.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Expected bytes per monitored leaf port.
    pub loads: PortLoads,
    /// Expected bytes per monitored leaf port, broken down by source leaf
    /// (feeds the localizer).
    pub by_src: PortSrcLoads,
    /// 3-level only: expected bytes per monitored agg port (rows = global
    /// aggs, columns = core slots) — the second monitoring tier of §7.
    pub agg_loads: Option<PortLoads>,
    /// Demand bytes with *no* valid path (every spine cut off by known
    /// faults). Non-zero means the fabric is partitioned for some pair.
    pub unroutable_bytes: u64,
}

impl<'a> AnalyticalModel<'a> {
    /// Model over `topo` with the given known-down directed links.
    /// (Pass both directions of a cable for physical-link faults.)
    pub fn new(topo: &'a Topology, admin_down: impl IntoIterator<Item = LinkId>) -> Self {
        AnalyticalModel {
            topo,
            admin_down: admin_down.into_iter().collect(),
        }
    }

    /// Predict per-port loads for one iteration of a collective with the
    /// given demand matrix. For 3-level topologies this also produces the
    /// agg-level prediction (§7: FlowPulse at both leaf and spine levels).
    pub fn predict(&self, demand: &DemandMatrix) -> Prediction {
        let topo = self.topo;
        let up = |l: LinkId| !self.admin_down.contains(&l);
        let (nl, nv) = (topo.n_leaves(), topo.n_vspines());
        let mut loads = PortLoads::zeros(nl, nv);
        let mut by_src = PortSrcLoads::zeros(nl, nv);
        let mut agg_loads = topo
            .is_three_level()
            .then(|| PortLoads::zeros(topo.n_aggs(), topo.cores_per_group as usize));
        let mut unroutable = 0u64;
        for (src, dst, d) in demand.pairs() {
            let src_leaf = topo.leaf_of(src);
            let dst_leaf = topo.leaf_of(dst);
            if src_leaf == dst_leaf {
                continue; // local traffic never crosses a spine
            }
            // First spray stage: an even split over the valid planes (in a
            // 3-level Clos, the aggs that still reach the destination pod).
            let planes: Vec<u32> = topo.valid_planes(src_leaf, dst_leaf, up).collect();
            if planes.is_empty() {
                unroutable += d;
                continue;
            }
            let share = d as f64 / planes.len() as f64;
            let (src_pod, dst_pod) = (topo.pod_of_leaf(src_leaf), topo.pod_of_leaf(dst_leaf));
            for a in planes {
                loads.add(dst_leaf, a, share);
                by_src.add(dst_leaf, a, src_leaf, share);
                // Cross-pod, second stage: agg → core over the valid slots.
                if let Some(al) = agg_loads.as_mut().filter(|_| src_pod != dst_pod) {
                    let g_src = topo.agg_global(src_pod, a);
                    let slots: Vec<u32> = topo.valid_core_slots(g_src, dst_pod, up).collect();
                    let share_k = share / slots.len() as f64;
                    for k in slots {
                        al.add(topo.agg_global(dst_pod, a), k, share_k);
                    }
                }
            }
        }
        Prediction {
            loads,
            by_src,
            agg_loads,
            unroutable_bytes: unroutable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netsim::ids::HostId;
    use fp_netsim::topology::FatTreeSpec;

    fn topo(leaves: u32, spines: u32) -> Topology {
        Topology::fat_tree(FatTreeSpec {
            leaves,
            spines,
            ..Default::default()
        })
    }

    #[test]
    fn fault_free_single_flow_splits_evenly() {
        let t = topo(4, 4);
        let m = AnalyticalModel::new(&t, []);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(2), 4_000);
        let p = m.predict(&d);
        for v in 0..4 {
            assert_eq!(p.loads.get(2, v), 1_000.0);
            assert_eq!(p.by_src.get(2, v, 0), 1_000.0);
        }
        assert_eq!(p.loads.total(), 4_000.0);
        assert_eq!(p.unroutable_bytes, 0);
    }

    #[test]
    fn source_side_fault_redistributes() {
        let t = topo(4, 4);
        // Source leaf 0's uplink to vspine 1 is down.
        let m = AnalyticalModel::new(&t, [t.uplink(0, 1)]);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(2), 3_000);
        let p = m.predict(&d);
        assert_eq!(p.loads.get(2, 1), 0.0);
        for v in [0u32, 2, 3] {
            assert_eq!(p.loads.get(2, v), 1_000.0);
        }
    }

    #[test]
    fn dest_side_fault_redistributes() {
        let t = topo(4, 4);
        // Destination leaf 2's downlink from vspine 3 is down.
        let m = AnalyticalModel::new(&t, [t.downlink(3, 2)]);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(1), HostId(2), 3_000);
        let p = m.predict(&d);
        assert_eq!(p.loads.get(2, 3), 0.0);
        assert_eq!(p.loads.get(2, 0), 1_000.0);
    }

    #[test]
    fn fault_on_unrelated_leaf_changes_nothing() {
        let t = topo(4, 4);
        let m = AnalyticalModel::new(&t, [t.uplink(3, 0)]);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(2), 4_000);
        let p = m.predict(&d);
        for v in 0..4 {
            assert_eq!(p.loads.get(2, v), 1_000.0);
        }
    }

    #[test]
    fn local_traffic_is_invisible() {
        let t = Topology::fat_tree(FatTreeSpec {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 2,
            ..Default::default()
        });
        let m = AnalyticalModel::new(&t, []);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(1), 9_999); // same leaf
        let p = m.predict(&d);
        assert_eq!(p.loads.total(), 0.0);
    }

    #[test]
    fn fully_cut_pair_is_unroutable() {
        let t = topo(2, 2);
        let m = AnalyticalModel::new(&t, [t.uplink(0, 0), t.uplink(0, 1)]);
        let mut d = DemandMatrix::new(2);
        d.add(HostId(0), HostId(1), 777);
        let p = m.predict(&d);
        assert_eq!(p.unroutable_bytes, 777);
        assert_eq!(p.loads.total(), 0.0);
    }

    #[test]
    fn ring_demand_concentrates_on_successor_leaf() {
        use fp_collectives::ring::ring_allreduce;
        let t = topo(4, 2);
        let hosts: Vec<HostId> = (0..4).map(HostId).collect();
        let sched = ring_allreduce(&hosts, 4_000);
        let d = sched.demand(4);
        let m = AnalyticalModel::new(&t, []);
        let p = m.predict(&d);
        // Each leaf receives only from its ring predecessor: per-port
        // by-src must be zero except src = pred(leaf).
        for leaf in 0..4u32 {
            let pred = (leaf + 3) % 4;
            for v in 0..2u32 {
                for src in 0..4u32 {
                    let b = p.by_src.get(leaf, v, src);
                    if src == pred {
                        assert!(b > 0.0);
                    } else {
                        assert_eq!(b, 0.0);
                    }
                }
            }
        }
        // Volume conservation: total = all non-local demand.
        assert!((p.loads.total() - d.total() as f64).abs() < 1e-6);
    }

    #[test]
    fn three_level_conserves_demand_at_both_tiers() {
        use fp_netsim::topology::Clos3Spec;
        let t = Topology::clos3(Clos3Spec {
            pods: 2,
            leaves_per_pod: 2,
            aggs_per_pod: 2,
            cores_per_group: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(3), 8_000); // cross-pod (pod0 -> pod1)
        d.add(HostId(0), HostId(1), 4_000); // intra-pod
        let p = AnalyticalModel::new(&t, []).predict(&d);
        assert_eq!(p.unroutable_bytes, 0);
        // Leaf tier conserves all non-local demand.
        assert!((p.loads.total() - 12_000.0).abs() < 1e-9);
        // Agg tier carries only the cross-pod share.
        let agg = p.agg_loads.as_ref().unwrap();
        assert!((agg.total() - 8_000.0).abs() < 1e-9);
        // Cross-pod share splits 2 aggs x 2 cores = 2000 per (agg, slot),
        // landing at the destination pod's aggs (global 2 and 3).
        for g in [2u32, 3] {
            for k in [0u32, 1] {
                assert!((agg.get(g, k) - 2_000.0).abs() < 1e-9);
            }
        }
        for g in [0u32, 1] {
            assert_eq!(agg.leaf(g).iter().sum::<f64>(), 0.0);
        }
    }

    #[test]
    fn three_level_core_fault_reshapes_agg_prediction() {
        use fp_netsim::topology::Clos3Spec;
        let t = Topology::clos3(Clos3Spec {
            pods: 2,
            leaves_per_pod: 2,
            aggs_per_pod: 2,
            cores_per_group: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(3), 8_000);
        // Known fault: core 0 (group 0) lost its link to pod 1.
        let down = t.core_downlink(0, 1);
        let p = AnalyticalModel::new(&t, [down]).predict(&d);
        let agg = p.agg_loads.as_ref().unwrap();
        // Group 0's surviving core slot carries the whole group share.
        let g_dst = t.agg_global(1, 0);
        assert!((agg.get(g_dst, 0) - 0.0).abs() < 1e-9);
        assert!((agg.get(g_dst, 1) - 4_000.0).abs() < 1e-9);
        // Leaf-level split across aggs is unchanged (both aggs still reach).
        assert!((p.loads.get(3, 0) - 4_000.0).abs() < 1e-9);
        assert!((p.loads.get(3, 1) - 4_000.0).abs() < 1e-9);
    }

    #[test]
    fn three_level_agg_cut_off_redistributes_leaf_tier() {
        use fp_netsim::topology::Clos3Spec;
        let t = Topology::clos3(Clos3Spec {
            pods: 2,
            leaves_per_pod: 2,
            aggs_per_pod: 2,
            cores_per_group: 1,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        let mut d = DemandMatrix::new(4);
        d.add(HostId(0), HostId(3), 6_000);
        // With one core per group, downing group 0's core link to pod 1
        // removes agg 0 entirely from the cross-pod path.
        let down = t.core_downlink(t.core_global(0, 0), 1);
        let p = AnalyticalModel::new(&t, [down]).predict(&d);
        assert_eq!(p.loads.get(3, 0), 0.0);
        assert!((p.loads.get(3, 1) - 6_000.0).abs() < 1e-9);
    }

    #[test]
    fn by_src_collapses_to_port_totals() {
        let t = topo(4, 4);
        let m = AnalyticalModel::new(&t, [t.uplink(1, 2)]);
        let mut d = DemandMatrix::new(4);
        d.add(HostId(1), HostId(3), 6_000);
        d.add(HostId(0), HostId(3), 8_000);
        let p = m.predict(&d);
        let collapsed = p.by_src.port_totals();
        for v in 0..4 {
            assert!((collapsed.get(3, v) - p.loads.get(3, v)).abs() < 1e-9);
        }
    }
}
