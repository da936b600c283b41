//! The dumbest routing oracle there is: walk the link table.
//!
//! Shared by fp-netsim's engine-table test (`routing_tests.rs`) and
//! fp-core's analytical-model test (`crates/core/tests/routing_oracle.rs`),
//! each of which includes this file as a child module and brings
//! `Topology`, `FatTreeSpec`, `Clos3Spec`, `LinkClass`, `SwitchKind`,
//! `LinkId`, `NodeId`, `SwitchId` and `splitmix64` into its own scope. Nothing here calls
//! `Topology::valid_planes` or knows how link tables are indexed: a path is
//! a chain of admin-up directed links, each starting where the last ended.

use super::{
    splitmix64, Clos3Spec, FatTreeSpec, LinkClass, LinkId, NodeId, SwitchId, SwitchKind, Topology,
};
use std::collections::BTreeSet;

/// Small fabrics with every feature the rule has to get right: parallel
/// planes, several hosts per leaf, several pods, one-core groups and a
/// single-pod 3-level Clos.
pub fn fabrics() -> Vec<Topology> {
    let ft = |leaves, spines, parallel_links, hosts_per_leaf| {
        Topology::fat_tree(FatTreeSpec {
            leaves,
            spines,
            parallel_links,
            hosts_per_leaf,
            ..Default::default()
        })
    };
    let clos = |pods, leaves_per_pod, aggs_per_pod, cores_per_group| {
        Topology::clos3(Clos3Spec {
            pods,
            leaves_per_pod,
            aggs_per_pod,
            cores_per_group,
            hosts_per_leaf: 2,
            ..Default::default()
        })
    };
    vec![
        ft(4, 2, 1, 1),
        ft(4, 2, 2, 3),
        ft(3, 3, 3, 1),
        clos(3, 2, 3, 2),
        clos(2, 2, 2, 1),
        clos(1, 3, 2, 2),
    ]
}

/// Admin-down set `case` over `topo`: each directed switch–switch link is
/// down with a probability drawn per case from 1/2 … 1/32, so some sets cut
/// whole pairs off and some leave the fabric untouched.
pub fn admin_down(topo: &Topology, case: u64) -> Vec<bool> {
    let mut word = 0x0ac1_e5ed ^ case;
    let mut draw = |n: u64| {
        word = splitmix64(word);
        word % n
    };
    let odds = 2 << draw(5);
    topo.links
        .iter()
        .map(|l| {
            let fabric = matches!((l.src, l.dst), (NodeId::Switch(_), NodeId::Switch(_)));
            fabric && draw(odds) == 0
        })
        .collect()
}

/// Plane of a leaf-facing fabric link.
fn plane(topo: &Topology, l: LinkId) -> Option<u32> {
    match topo.links[l.idx()].class {
        LinkClass::LeafUp { vspine, .. } | LinkClass::SpineDown { vspine, .. } => Some(vspine),
        _ => None,
    }
}

/// Every simple, valley-free (up, then down) path of `up` links from
/// `from` to `to`, as link lists; a path never passes through a host.
fn paths(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    up: &dyn Fn(LinkId) -> bool,
) -> Vec<Vec<LinkId>> {
    fn walk(
        topo: &Topology,
        to: NodeId,
        up: &dyn Fn(LinkId) -> bool,
        seen: &mut Vec<NodeId>,
        path: &mut Vec<LinkId>,
        out: &mut Vec<Vec<LinkId>>,
    ) {
        let at = *seen.last().expect("walk starts somewhere");
        if at == to && !path.is_empty() {
            out.push(path.clone());
            return;
        }
        let descending = path.iter().any(|&l| {
            matches!(
                topo.links[l.idx()].class,
                LinkClass::SpineDown { .. } | LinkClass::CoreDown { .. }
            )
        });
        for (i, l) in topo.links.iter().enumerate() {
            let id = LinkId(i as u32);
            let down = matches!(
                l.class,
                LinkClass::SpineDown { .. } | LinkClass::CoreDown { .. }
            );
            if l.src != at
                || !up(id)
                || matches!(l.dst, NodeId::Host(_))
                || seen.contains(&l.dst)
                || (descending && !down)
            {
                continue;
            }
            seen.push(l.dst);
            path.push(id);
            walk(topo, to, up, seen, path, out);
            path.pop();
            seen.pop();
        }
    }
    let mut out = Vec::new();
    walk(topo, to, up, &mut vec![from], &mut Vec::new(), &mut out);
    out
}

/// The switch playing `kind`.
fn node(topo: &Topology, kind: SwitchKind) -> NodeId {
    let id = topo.switch_kind.iter().position(|&k| k == kind);
    NodeId::Switch(SwitchId(id.expect("no such switch") as u32))
}

/// The planes `src_leaf → dst_leaf` traffic can use: those with a path of
/// up links that leaves the source leaf on the plane and enters the
/// destination leaf on the same plane.
pub fn planes(
    topo: &Topology,
    src_leaf: u32,
    dst_leaf: u32,
    up: &dyn Fn(LinkId) -> bool,
) -> Vec<u32> {
    let (from, to) = (
        node(topo, SwitchKind::Leaf(src_leaf)),
        node(topo, SwitchKind::Leaf(dst_leaf)),
    );
    let found: BTreeSet<u32> = paths(topo, from, to, up)
        .into_iter()
        .filter_map(|p| {
            let first = plane(topo, p[0])?;
            (plane(topo, *p.last()?) == Some(first)).then_some(first)
        })
        .collect();
    found.into_iter().collect()
}

/// The core slots agg `agg` can use toward `dst_pod` (another pod than
/// its own): slot `k` when a path of up links leaves on the agg's `k`-th
/// core uplink and reaches an agg of `dst_pod`.
pub fn core_slots(
    topo: &Topology,
    agg: u32,
    dst_pod: u32,
    up: &dyn Fn(LinkId) -> bool,
) -> Vec<u32> {
    let from = node(topo, SwitchKind::Spine(agg));
    let per_pod = topo.n_aggs() as u32 / topo.pods;
    let found: BTreeSet<u32> = (dst_pod * per_pod..(dst_pod + 1) * per_pod)
        .flat_map(|to| paths(topo, from, node(topo, SwitchKind::Spine(to)), up))
        .filter_map(|p| match topo.links[p[0].idx()].class {
            LinkClass::AggUp { core_k, .. } => Some(core_k),
            _ => None,
        })
        .collect();
    found.into_iter().collect()
}
