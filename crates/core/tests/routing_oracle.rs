//! The analytical model splits a pair over exactly the planes (and, across
//! pods, the core slots) that have a fully up path, found by fp-netsim's
//! path-enumerating oracle — the same oracle the engine's spray tables are
//! checked against, so model and fabric agree on §5.2's *s − f*.

use flowpulse::analytical::AnalyticalModel;
use fp_collectives::demand::DemandMatrix;
use fp_netsim::ids::{LinkId, NodeId, SwitchId};
use fp_netsim::rng::splitmix64;
use fp_netsim::topology::{Clos3Spec, FatTreeSpec, LinkClass, SwitchKind, Topology};

#[path = "../../netsim/src/path_oracle_tests.rs"]
mod path_oracle;

#[test]
fn model_splits_over_exactly_the_planes_with_an_up_path() {
    for topo in path_oracle::fabrics() {
        let (nl, nv, k) = (
            topo.n_leaves() as u32,
            topo.n_vspines() as u32,
            topo.cores_per_group,
        );
        for case in 0..24 {
            let down = path_oracle::admin_down(&topo, case);
            let up = |l: LinkId| !down[l.idx()];
            let known_down = (0..topo.n_links() as u32).map(LinkId).filter(|&l| !up(l));
            let model = AnalyticalModel::new(&topo, known_down);
            for src in 0..nl {
                for dst in (0..nl).filter(|&d| d != src) {
                    let mut demand = DemandMatrix::new(topo.n_hosts());
                    let host = |leaf| topo.hosts_of_leaf(leaf).next().unwrap();
                    demand.add(host(src), host(dst), 1 << 20);
                    let p = model.predict(&demand);
                    let want = path_oracle::planes(&topo, src, dst, &up);
                    let got: Vec<u32> = (0..nv).filter(|&v| p.loads.get(dst, v) > 0.0).collect();
                    let why = format!("{:?} case {case}: leaf {src} → {dst}", topo.spec);
                    assert_eq!(got, want, "{why}");
                    assert_eq!(p.unroutable_bytes > 0, want.is_empty(), "{why}");
                    let (src_pod, dst_pod) = (topo.pod_of_leaf(src), topo.pod_of_leaf(dst));
                    let Some(agg) = p.agg_loads.as_ref().filter(|_| src_pod != dst_pod) else {
                        continue;
                    };
                    for a in want {
                        let g_dst = topo.agg_global(dst_pod, a);
                        let slots: Vec<u32> = (0..k).filter(|&s| agg.get(g_dst, s) > 0.0).collect();
                        let g_src = topo.agg_global(src_pod, a);
                        assert_eq!(
                            slots,
                            path_oracle::core_slots(&topo, g_src, dst_pod, &up),
                            "{why}: agg {g_src}"
                        );
                    }
                }
            }
        }
    }
}
