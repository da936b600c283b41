//! Routing validity against path enumeration: for random admin-down sets
//! on small 2- and 3-level fabrics, [`Topology::valid_planes`] /
//! [`Topology::valid_core_slots`] and the engine's spray tables built from
//! them must name exactly the planes (core slots) that `path_oracle` finds
//! a fully admin-up path through.

use crate::config::SimConfig;
use crate::egress::LinkState;
use crate::ids::{LinkId, NodeId, SwitchId};
use crate::rng::splitmix64;
use crate::switch::Switches;
use crate::topology::{Clos3Spec, FatTreeSpec, LinkClass, SwitchKind, Topology};

#[path = "path_oracle_tests.rs"]
mod path_oracle;

/// Sprayed uplink → its plane or core slot.
fn slot(topo: &Topology, up: LinkId) -> u32 {
    match topo.links[up.idx()].class {
        LinkClass::LeafUp { vspine, .. } => vspine,
        LinkClass::AggUp { core_k, .. } => core_k,
        c => panic!("not a sprayed uplink: {c:?}"),
    }
}

#[test]
fn engine_tables_and_valid_planes_match_path_enumeration() {
    // Pairs left with no plane, with some, and with all of them.
    let mut seen = [0u32; 3];
    for topo in path_oracle::fabrics() {
        let nl = topo.n_leaves() as u32;
        for case in 0..64 {
            let down = path_oracle::admin_down(&topo, case);
            let up = |l: LinkId| !down[l.idx()];
            let mut links: Vec<LinkState> = (0..topo.n_links()).map(|_| LinkState::new()).collect();
            for (l, &d) in links.iter_mut().zip(&down) {
                l.admin_up = !d;
            }
            let mut sw = Switches::new(&topo, &SimConfig::default());
            sw.recompute_routing(&topo, &links);
            for src in 0..nl {
                for dst in 0..nl {
                    let want = path_oracle::planes(&topo, src, dst, &up);
                    let rule: Vec<u32> = topo.valid_planes(src, dst, up).collect();
                    let engine = &sw.state[src as usize].valid_up[dst as usize];
                    let engine: Vec<u32> = engine.iter().map(|&l| slot(&topo, l)).collect();
                    let why = format!("{:?} case {case}: leaf {src} → {dst}", topo.spec);
                    assert_eq!(rule, want, "valid_planes, {why}");
                    assert_eq!(engine, want, "engine table, {why}");
                    if src != dst {
                        seen[want.len().min(1) + (want.len() == topo.n_vspines()) as usize] += 1;
                    }
                }
            }
            for (sw_id, kind) in topo.switch_kind.iter().enumerate() {
                let SwitchKind::Spine(agg) = *kind else {
                    continue;
                };
                let own_pod = agg / topo.spec.spines;
                for dst_pod in (0..topo.pods).filter(|&p| topo.cores_per_group > 0 && p != own_pod)
                {
                    let want = path_oracle::core_slots(&topo, agg, dst_pod, &up);
                    let rule: Vec<u32> = topo.valid_core_slots(agg, dst_pod, up).collect();
                    let engine = &sw.state[sw_id].valid_core[dst_pod as usize];
                    let engine: Vec<u32> = engine.iter().map(|&l| slot(&topo, l)).collect();
                    assert_eq!(rule, want, "valid_core_slots, agg {agg} → pod {dst_pod}");
                    assert_eq!(engine, want, "engine core table, agg {agg} → pod {dst_pod}");
                }
            }
        }
    }
    // The corpus exercises the rule, not just the fault-free fabric.
    assert!(
        seen.iter().all(|&n| n > 100),
        "cut off, narrowed, whole: {seen:?}"
    );
}
