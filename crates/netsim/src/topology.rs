//! The fabric: 2- and 3-level Clos construction and the routing-validity
//! rule.
//!
//! The paper's fabric (§2, §6): a non-blocking two-level fat tree. Leaves
//! connect down to hosts and up to every spine; spraying happens on the way
//! up, downstream paths are deterministic. Parallel leaf–spine links are
//! supported and treated as independent *virtual spines* (paper §7 "Parallel
//! Links"): a packet that goes up on plane `p` comes down on plane `p`, so
//! each plane behaves as its own spine for both load-balancing and
//! monitoring purposes. A 3-level Clos (§7 "Network Topology") is the same
//! fabric cut into pods, with each pod's spines (its aggregation switches)
//! cabled to a core tier.
//!
//! One builder lays out both (DESIGN.md §5 "One fabric builder, one
//! routing rule"): host links by leaf then host, then leaf–spine links by
//! leaf then plane, then spine–core links by agg then core slot. Every
//! cable is two consecutive link ids, up first, so a link's
//! [`Topology::peer`] is the other half of its own cable. Which planes a
//! pair may use given which links are up is [`Topology::valid_planes`],
//! read by both the engine's spray tables and the analytical model.

use crate::ids::{HostId, LinkId, NodeId, SwitchId};
use crate::time::SimDuration;
use crate::units::Bandwidth;
use serde::{Deserialize, Serialize};

/// Physical parameters of one class of link.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct LinkSpec {
    /// Line rate.
    pub bandwidth: Bandwidth,
    /// One-way propagation + fixed pipeline latency.
    pub latency: SimDuration,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            bandwidth: Bandwidth::from_gbps(400),
            latency: SimDuration::from_ns(150),
        }
    }
}

/// Parameters of a 2-level fat tree.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct FatTreeSpec {
    /// Number of leaf switches.
    pub leaves: u32,
    /// Number of physical spine switches.
    pub spines: u32,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: u32,
    /// Parallel links between each leaf–spine pair (≥ 1).
    pub parallel_links: u32,
    /// Host–leaf link parameters. Every switch–switch cable runs at
    /// [`LinkSpec::default`].
    pub host_link: LinkSpec,
}

impl Default for FatTreeSpec {
    /// The paper's default evaluation fabric: 32 leaves × 16 spines, one
    /// host per leaf (§6 "each leaf is connected to a single end-host").
    fn default() -> Self {
        FatTreeSpec {
            leaves: 32,
            spines: 16,
            hosts_per_leaf: 1,
            parallel_links: 1,
            host_link: LinkSpec::default(),
        }
    }
}

impl FatTreeSpec {
    /// A full non-blocking fat tree built from switches of the given radix:
    /// `radix` leaves, `radix/2` spines (paper §6 "varying switch radix").
    pub fn from_radix(radix: u32) -> Self {
        assert!(
            radix >= 2 && radix.is_multiple_of(2),
            "radix must be even, ≥ 2"
        );
        FatTreeSpec {
            leaves: radix,
            spines: radix / 2,
            ..Default::default()
        }
    }

    /// Virtual spines (= uplink count per leaf).
    pub(crate) fn n_vspines(&self) -> u32 {
        self.spines * self.parallel_links
    }

    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.leaves == 0 || self.spines == 0 || self.hosts_per_leaf == 0 {
            return Err("leaves, spines and hosts_per_leaf must be positive".into());
        }
        if self.parallel_links == 0 {
            return Err("parallel_links must be ≥ 1".into());
        }
        if self.leaves > u16::MAX as u32 {
            return Err("too many leaves (u16 leaf indices)".into());
        }
        Ok(())
    }
}

/// Role of a directed link within the topology.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum LinkClass {
    /// Host → leaf (the host NIC egress).
    HostUp {
        /// Source host.
        host: u32,
        /// Destination leaf.
        leaf: u32,
    },
    /// Leaf → host.
    HostDown {
        /// Source leaf.
        leaf: u32,
        /// Destination host.
        host: u32,
    },
    /// Leaf → spine plane (upstream, sprayed). In a 3-level Clos the
    /// "spine" is the pod-local aggregation switch.
    LeafUp {
        /// Source leaf (global index).
        leaf: u32,
        /// Destination virtual spine (`spine * parallel + plane`; in a
        /// 3-level Clos the within-pod aggregation index).
        vspine: u32,
    },
    /// Spine plane → leaf (downstream; these are the ports FlowPulse
    /// monitors at the receiving leaf).
    SpineDown {
        /// Source virtual spine (within-pod index for 3-level).
        vspine: u32,
        /// Destination leaf (global index).
        leaf: u32,
    },
    /// Aggregation → core (3-level only; upstream, sprayed by the agg
    /// over its core group).
    AggUp {
        /// Source aggregation switch (global index).
        agg: u32,
        /// Core index *within the agg's group* (`0..cores_per_group`).
        core_k: u32,
    },
    /// Core → aggregation (3-level only; downstream, deterministic; these
    /// are the ports FlowPulse monitors at the receiving aggregation
    /// switch — paper §7 "deploying FlowPulse at both leaf and spine
    /// levels").
    CoreDown {
        /// Source core (global index).
        core: u32,
        /// Destination aggregation switch (global index).
        agg: u32,
    },
}

/// A directed link.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct LinkDef {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate.
    pub bandwidth: Bandwidth,
    /// One-way latency.
    pub latency: SimDuration,
    /// Topological role.
    pub class: LinkClass,
}

/// Which role a switch plays.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug)]
pub enum SwitchKind {
    /// Leaf `idx` (global).
    Leaf(u32),
    /// Physical spine `idx` (2-level), or aggregation switch `idx`
    /// (3-level, global: `pod * aggs_per_pod + within_pod_idx`).
    Spine(u32),
    /// Core switch `idx` (3-level only, global: `group * cores_per_group
    /// + within_group_idx`).
    Core(u32),
}

/// Parameters of a 3-level folded Clos (fat tree with pods — paper §7
/// "Network Topology": FlowPulse deployed at both leaf and spine levels).
///
/// Structure: `pods` pods, each with `leaves_per_pod` leaves fully meshed
/// to `aggs_per_pod` aggregation switches. Aggregation switch index `a` of
/// every pod connects to core group `a`, which holds `cores_per_group`
/// cores; each core in group `a` connects to agg `a` of every pod. Upward
/// paths spray twice (leaf→agg, agg→core); downward paths are
/// deterministic (core→agg→leaf), preserving the property FlowPulse's
/// monitoring relies on.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Clos3Spec {
    /// Number of pods.
    pub pods: u32,
    /// Leaves per pod.
    pub leaves_per_pod: u32,
    /// Aggregation switches per pod (= leaf uplinks = monitored leaf
    /// ports).
    pub aggs_per_pod: u32,
    /// Cores per aggregation group (= agg uplinks = monitored agg ports).
    pub cores_per_group: u32,
    /// Hosts per leaf.
    pub hosts_per_leaf: u32,
    /// Host link parameters. Leaf–agg and agg–core cables run at
    /// [`LinkSpec::default`].
    pub host_link: LinkSpec,
}

impl Default for Clos3Spec {
    fn default() -> Self {
        Clos3Spec {
            pods: 4,
            leaves_per_pod: 4,
            aggs_per_pod: 4,
            cores_per_group: 2,
            hosts_per_leaf: 1,
            host_link: LinkSpec::default(),
        }
    }
}

impl Clos3Spec {
    /// Basic sanity checks.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.pods == 0
            || self.leaves_per_pod == 0
            || self.aggs_per_pod == 0
            || self.cores_per_group == 0
            || self.hosts_per_leaf == 0
        {
            return Err("all Clos3 dimensions must be positive".into());
        }
        if self.pods * self.leaves_per_pod > u16::MAX as u32 {
            return Err("too many leaves (u16 leaf indices)".into());
        }
        Ok(())
    }
}

/// A fully-built topology: dense link tables plus lookup indices.
///
/// Switch ids: leaves are `0..n_leaves`, spines/aggs follow, then (3-level
/// only) cores.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The generating spec (for 3-level topologies this is a synthesized
    /// summary: `leaves` = total leaves, `spines` = aggs per pod).
    pub spec: FatTreeSpec,
    /// Number of pods (1 for a 2-level fat tree).
    pub pods: u32,
    /// Cores per aggregation group (0 for a 2-level fat tree).
    pub cores_per_group: u32,
    /// All directed links.
    pub links: Vec<LinkDef>,
    /// Reverse direction of each directed link: the other half of the same
    /// cable (`id ^ 1`).
    pub peer: Vec<LinkId>,
    /// Leaf index of each host.
    pub host_leaf: Vec<u32>,
    /// Host → its uplink (host→leaf) directed link.
    pub host_up: Vec<LinkId>,
    /// Host → the leaf→host downlink.
    pub host_down: Vec<LinkId>,
    /// `leaf_up[leaf][vspine]` = leaf→spine-plane (or pod-agg) uplink.
    pub leaf_up: Vec<Vec<LinkId>>,
    /// `spine_down[vspine][leaf]` = spine-plane (or pod-agg)→leaf downlink.
    pub spine_down: Vec<Vec<LinkId>>,
    /// 3-level only: `agg_up[global_agg][k]` = agg→core uplink.
    pub agg_up: Vec<Vec<LinkId>>,
    /// 3-level only: `core_down[global_core][pod]` = core→agg downlink.
    pub core_down: Vec<Vec<LinkId>>,
    /// Role of each switch id.
    pub switch_kind: Vec<SwitchKind>,
}

impl Topology {
    /// Build a 2-level fat tree from `spec`: one pod, no core tier. Panics
    /// on invalid specs (use [`FatTreeSpec::validate`] to pre-check
    /// untrusted input).
    pub fn fat_tree(spec: FatTreeSpec) -> Topology {
        spec.validate().expect("invalid FatTreeSpec");
        Topology::build(spec, 1, 0)
    }

    /// Build a 3-level folded Clos from `spec`: pods plus a core tier.
    /// Panics on invalid specs.
    pub fn clos3(spec: Clos3Spec) -> Topology {
        spec.validate().expect("invalid Clos3Spec");
        // Synthesized 2-level-compatible summary: `spines` = aggs per pod
        // so `n_vspines()` counts the monitored leaf ports.
        let summary = FatTreeSpec {
            leaves: spec.pods * spec.leaves_per_pod,
            spines: spec.aggs_per_pod,
            hosts_per_leaf: spec.hosts_per_leaf,
            parallel_links: 1,
            host_link: spec.host_link,
        };
        Topology::build(summary, spec.pods, spec.cores_per_group)
    }

    /// The one builder: `spec.spines` spines per pod (physical spines, or a
    /// pod's aggs), every leaf cabled to every plane of its pod's spines
    /// and, with `cores`, spine `a` of every pod cabled to each core of
    /// group `a`. Link ids follow the cable order in the module docs.
    fn build(spec: FatTreeSpec, pods: u32, cores: u32) -> Topology {
        let (nl, nh, np) = (spec.leaves, spec.hosts_per_leaf, spec.parallel_links);
        let (per_pod, nv) = (spec.spines, spec.n_vspines());
        let n_aggs = pods * per_pod;
        // Agg uplink rows exist only where there is a core tier.
        let agg_rows = if cores > 0 { n_aggs } else { 0 };
        let switch = |i: u32| NodeId::Switch(SwitchId(i));

        let mut links = Vec::new();
        // Both directions of one cable, `a → b` first.
        let mut cable = |a: NodeId, b: NodeId, link: LinkSpec, up_class, down_class| {
            let id = links.len() as u32;
            for (src, dst, class) in [(a, b, up_class), (b, a, down_class)] {
                links.push(LinkDef {
                    src,
                    dst,
                    bandwidth: link.bandwidth,
                    latency: link.latency,
                    class,
                });
            }
            (LinkId(id), LinkId(id + 1))
        };

        let (mut host_leaf, mut host_up, mut host_down) = (Vec::new(), Vec::new(), Vec::new());
        for leaf in 0..nl {
            for host in leaf * nh..(leaf + 1) * nh {
                let (up, down) = cable(
                    NodeId::Host(HostId(host)),
                    switch(leaf),
                    spec.host_link,
                    LinkClass::HostUp { host, leaf },
                    LinkClass::HostDown { leaf, host },
                );
                host_leaf.push(leaf);
                host_up.push(up);
                host_down.push(down);
            }
        }

        let mut leaf_up = vec![vec![LinkId(0); nv as usize]; nl as usize];
        let mut spine_down = vec![vec![LinkId(0); nl as usize]; nv as usize];
        for leaf in 0..nl {
            let first_spine = leaf / (nl / pods) * per_pod;
            for vspine in 0..nv {
                let (up, down) = cable(
                    switch(leaf),
                    switch(nl + first_spine + vspine / np),
                    LinkSpec::default(),
                    LinkClass::LeafUp { leaf, vspine },
                    LinkClass::SpineDown { vspine, leaf },
                );
                leaf_up[leaf as usize][vspine as usize] = up;
                spine_down[vspine as usize][leaf as usize] = down;
            }
        }

        let mut agg_up = vec![vec![LinkId(0); cores as usize]; agg_rows as usize];
        let mut core_down = vec![vec![LinkId(0); pods as usize]; (per_pod * cores) as usize];
        for agg in 0..agg_rows {
            let (pod, group) = (agg / per_pod, agg % per_pod);
            for core_k in 0..cores {
                let core = group * cores + core_k;
                let (up, down) = cable(
                    switch(nl + agg),
                    switch(nl + n_aggs + core),
                    LinkSpec::default(),
                    LinkClass::AggUp { agg, core_k },
                    LinkClass::CoreDown { core, agg },
                );
                agg_up[agg as usize][core_k as usize] = up;
                core_down[core as usize][pod as usize] = down;
            }
        }

        let switch_kind = (0..nl)
            .map(SwitchKind::Leaf)
            .chain((0..n_aggs).map(SwitchKind::Spine))
            .chain((0..per_pod * cores).map(SwitchKind::Core))
            .collect();
        Topology {
            spec,
            pods,
            cores_per_group: cores,
            peer: (0..links.len() as u32).map(|i| LinkId(i ^ 1)).collect(),
            links,
            host_leaf,
            host_up,
            host_down,
            leaf_up,
            spine_down,
            agg_up,
            core_down,
            switch_kind,
        }
    }

    /// The virtual spines (in a 3-level Clos, the within-pod aggs) that
    /// `src_leaf → dst_leaf` traffic may be sprayed over when exactly the
    /// links `up` accepts are usable: the plane's uplink from the source
    /// leaf and its downlink to the destination leaf are up and, across
    /// pods, the source pod's agg still reaches the destination pod through
    /// some core ([`Self::valid_core_slots`]). None for a leaf to itself.
    ///
    /// This is the *s − f* of paper §5.2. The engine's spray tables
    /// (`up` = admin state) and the analytical model (`up` = not known to
    /// be down) both come from here, which is why they agree.
    pub fn valid_planes<'a>(
        &'a self,
        src_leaf: u32,
        dst_leaf: u32,
        up: impl Fn(LinkId) -> bool + Copy + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let (src_pod, dst_pod) = (self.pod_of_leaf(src_leaf), self.pod_of_leaf(dst_leaf));
        let planes = if src_leaf == dst_leaf {
            0
        } else {
            self.n_vspines() as u32
        };
        (0..planes).filter(move |&v| {
            up(self.uplink(src_leaf, v))
                && up(self.downlink(v, dst_leaf))
                && (src_pod == dst_pod
                    || self
                        .valid_core_slots(self.agg_global(src_pod, v), dst_pod, up)
                        .next()
                        .is_some())
        })
    }

    /// 3-level: the core slots over which global agg `agg` may spray
    /// traffic toward `dst_pod` — its uplink to the slot's core and that
    /// core's downlink to `dst_pod` are both up.
    pub fn valid_core_slots<'a>(
        &'a self,
        agg: u32,
        dst_pod: u32,
        up: impl Fn(LinkId) -> bool + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let group = agg % self.spec.spines;
        (0..self.cores_per_group).filter(move |&k| {
            up(self.agg_uplink(agg, k))
                && up(self.core_downlink(self.core_global(group, k), dst_pod))
        })
    }

    /// True for 3-level Clos topologies.
    pub fn is_three_level(&self) -> bool {
        self.pods > 1 || self.cores_per_group > 0
    }

    /// Number of aggregation switches (0 on a 2-level fat tree).
    pub fn n_aggs(&self) -> usize {
        self.agg_up.len()
    }

    /// Number of core switches.
    pub fn n_cores(&self) -> usize {
        self.core_down.len()
    }

    /// Leaves per pod.
    pub(crate) fn leaves_per_pod(&self) -> u32 {
        self.spec.leaves / self.pods
    }

    /// Pod of a (global) leaf index.
    pub fn pod_of_leaf(&self, leaf: u32) -> u32 {
        leaf / self.leaves_per_pod()
    }

    /// Global aggregation index for `(pod, within-pod index)`.
    pub fn agg_global(&self, pod: u32, a: u32) -> u32 {
        pod * self.spec.spines + a
    }

    /// The agg→core uplink for global agg `g`, core slot `k`.
    pub fn agg_uplink(&self, g: u32, k: u32) -> LinkId {
        self.agg_up[g as usize][k as usize]
    }

    /// The core→agg downlink from global core `c` toward `pod`.
    pub fn core_downlink(&self, c: u32, pod: u32) -> LinkId {
        self.core_down[c as usize][pod as usize]
    }

    /// Global core index for group `a`, slot `k`.
    pub fn core_global(&self, a: u32, k: u32) -> u32 {
        a * self.cores_per_group + k
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.host_leaf.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.spec.leaves as usize
    }

    /// Number of virtual spines (spine planes).
    pub fn n_vspines(&self) -> usize {
        self.spec.n_vspines() as usize
    }

    /// Leaf index of a host.
    pub fn leaf_of(&self, h: HostId) -> u32 {
        self.host_leaf[h.idx()]
    }

    /// Hosts attached to `leaf`.
    pub fn hosts_of_leaf(&self, leaf: u32) -> impl Iterator<Item = HostId> + '_ {
        let nh = self.spec.hosts_per_leaf;
        (leaf * nh..(leaf + 1) * nh).map(HostId)
    }

    /// The directed leaf→spine uplink for (leaf, vspine).
    pub fn uplink(&self, leaf: u32, vspine: u32) -> LinkId {
        self.leaf_up[leaf as usize][vspine as usize]
    }

    /// The directed spine→leaf downlink for (vspine, leaf).
    pub fn downlink(&self, vspine: u32, leaf: u32) -> LinkId {
        self.spine_down[vspine as usize][leaf as usize]
    }

    /// Total directed links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let t = Topology::fat_tree(FatTreeSpec::default());
        assert_eq!(t.n_leaves(), 32);
        assert_eq!(t.n_hosts(), 32);
        assert_eq!(t.n_vspines(), 16);
        // 32 host pairs + 32*16 fabric pairs, two directed links each
        assert_eq!(t.n_links(), 2 * (32 + 32 * 16));
    }

    #[test]
    fn radix_constructor() {
        let s = FatTreeSpec::from_radix(64);
        assert_eq!(s.leaves, 64);
        assert_eq!(s.spines, 32);
    }

    #[test]
    fn peers_are_involutive() {
        let t = Topology::fat_tree(FatTreeSpec::default());
        for i in 0..t.n_links() {
            let p = t.peer[i];
            assert_eq!(t.peer[p.idx()].idx(), i);
            // peer reverses direction
            assert_eq!(t.links[i].src, t.links[p.idx()].dst);
            assert_eq!(t.links[i].dst, t.links[p.idx()].src);
        }
    }

    #[test]
    fn uplinks_and_downlinks_consistent() {
        let t = Topology::fat_tree(FatTreeSpec::default());
        for l in 0..t.n_leaves() as u32 {
            for v in 0..t.n_vspines() as u32 {
                let up = t.uplink(l, v);
                let down = t.downlink(v, l);
                assert_eq!(t.peer[up.idx()], down);
                match t.links[up.idx()].class {
                    LinkClass::LeafUp { leaf, vspine } => {
                        assert_eq!((leaf, vspine), (l, v));
                    }
                    c => panic!("wrong class {c:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_links_create_virtual_spines() {
        let spec = FatTreeSpec {
            leaves: 4,
            spines: 2,
            parallel_links: 2,
            ..Default::default()
        };
        let t = Topology::fat_tree(spec);
        assert_eq!(t.n_vspines(), 4);
        // Each leaf has 4 uplinks: 2 planes to each of 2 spines.
        assert_eq!(t.leaf_up[0].len(), 4);
        // Planes of the same spine land on the same physical SwitchId.
        let up0 = t.links[t.uplink(0, 0).idx()];
        let up1 = t.links[t.uplink(0, 1).idx()];
        assert_eq!(up0.dst, up1.dst);
        // ...but on distinct cables, each coming back down its own plane.
        assert_ne!(t.downlink(0, 0), t.downlink(1, 0));
        assert_eq!(t.peer[t.uplink(0, 1).idx()], t.downlink(1, 0));
    }

    #[test]
    fn link_ids_follow_the_cable_order() {
        // Host cables by leaf then host, leaf–spine by leaf then plane,
        // spine–core by agg then slot; each cable two ids, up first.
        let fabrics = [
            Topology::fat_tree(FatTreeSpec {
                leaves: 2,
                spines: 2,
                hosts_per_leaf: 3,
                parallel_links: 2,
                ..Default::default()
            }),
            Topology::clos3(Clos3Spec {
                pods: 2,
                leaves_per_pod: 2,
                aggs_per_pod: 2,
                cores_per_group: 2,
                hosts_per_leaf: 2,
                ..Default::default()
            }),
        ];
        for t in fabrics {
            let ups: Vec<LinkId> = (t.host_up.iter())
                .chain(t.leaf_up.iter().flatten())
                .chain(t.agg_up.iter().flatten())
                .copied()
                .collect();
            assert_eq!(t.n_links(), 2 * ups.len());
            for (cable, up) in ups.into_iter().enumerate() {
                assert_eq!(up, LinkId(2 * cable as u32));
                assert_eq!(t.peer[up.idx()], LinkId(up.0 + 1));
            }
        }
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(FatTreeSpec {
            leaves: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FatTreeSpec {
            parallel_links: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn hosts_of_leaf_enumerates_correctly() {
        let spec = FatTreeSpec {
            leaves: 3,
            spines: 2,
            hosts_per_leaf: 2,
            ..Default::default()
        };
        let t = Topology::fat_tree(spec);
        let hs: Vec<u32> = t.hosts_of_leaf(1).map(|h| h.0).collect();
        assert_eq!(hs, vec![2, 3]);
        assert_eq!(t.leaf_of(HostId(3)), 1);
    }
}
