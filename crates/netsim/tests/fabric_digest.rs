//! The fabric, pinned: one FNV-1a digest over every `Topology` field the
//! engine reads, for a spread of 2- and 3-level specs. The literals were
//! taken from the two hand-written builders before they became one; a
//! builder change that moves a link id, a peer or an index table fails here
//! before it can move a simulated byte.

use fp_netsim::ids::{LinkId, NodeId};
use fp_netsim::time::SimDuration;
use fp_netsim::topology::{Clos3Spec, FatTreeSpec, LinkClass, LinkSpec, SwitchKind, Topology};
use fp_netsim::units::Bandwidth;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[LinkId]) {
        self.u64(ids.len() as u64);
        for l in ids {
            self.u64(l.0 as u64);
        }
    }

    fn table(&mut self, rows: &[Vec<LinkId>]) {
        self.u64(rows.len() as u64);
        for r in rows {
            self.ids(r);
        }
    }

    fn node(&mut self, n: NodeId) {
        let (tag, i) = match n {
            NodeId::Host(h) => (0, h.0),
            NodeId::Switch(s) => (1, s.0),
        };
        self.u64(tag);
        self.u64(i as u64);
    }

    fn link_spec(&mut self, s: &LinkSpec) {
        self.u64(s.bandwidth.bps());
        self.u64(s.latency.as_ns());
    }
}

fn digest(t: &Topology) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(t.links.len() as u64);
    for l in &t.links {
        h.node(l.src);
        h.node(l.dst);
        let (tag, a, b) = match l.class {
            LinkClass::HostUp { host, leaf } => (0, host, leaf),
            LinkClass::HostDown { leaf, host } => (1, leaf, host),
            LinkClass::LeafUp { leaf, vspine } => (2, leaf, vspine),
            LinkClass::SpineDown { vspine, leaf } => (3, vspine, leaf),
            LinkClass::AggUp { agg, core_k } => (4, agg, core_k),
            LinkClass::CoreDown { core, agg } => (5, core, agg),
        };
        h.u64(tag);
        h.u64(a as u64);
        h.u64(b as u64);
        h.u64(l.bandwidth.bps());
        h.u64(l.latency.as_ns());
    }
    h.ids(&t.peer);
    h.u64(t.host_leaf.len() as u64);
    for &l in &t.host_leaf {
        h.u64(l as u64);
    }
    h.ids(&t.host_up);
    h.ids(&t.host_down);
    h.table(&t.leaf_up);
    h.table(&t.spine_down);
    h.table(&t.agg_up);
    h.table(&t.core_down);
    h.u64(t.switch_kind.len() as u64);
    for k in &t.switch_kind {
        let (tag, i) = match *k {
            SwitchKind::Leaf(i) => (0, i),
            SwitchKind::Spine(i) => (1, i),
            SwitchKind::Core(i) => (2, i),
        };
        h.u64(tag);
        h.u64(i as u64);
    }
    let s = &t.spec;
    for x in [s.leaves, s.spines, s.hosts_per_leaf, s.parallel_links] {
        h.u64(x as u64);
    }
    // Every switch–switch cable runs at `LinkSpec::default()`; hashing it
    // here keeps the digests pinned below.
    h.link_spec(&LinkSpec::default());
    h.link_spec(&s.host_link);
    h.u64(t.pods as u64);
    h.u64(t.cores_per_group as u64);
    h.0
}

/// A host link unlike the fabric's, so a link built from the wrong spec
/// changes the digest.
fn slow_host_link() -> LinkSpec {
    LinkSpec {
        bandwidth: Bandwidth::from_gbps(100),
        latency: SimDuration::from_ns(500),
    }
}

#[test]
fn fat_tree_link_tables_are_pinned() {
    let specs = [
        FatTreeSpec::default(),
        FatTreeSpec {
            leaves: 4,
            spines: 2,
            parallel_links: 2,
            hosts_per_leaf: 3,
            host_link: slow_host_link(),
        },
        FatTreeSpec::from_radix(8),
        FatTreeSpec {
            leaves: 3,
            spines: 3,
            parallel_links: 3,
            ..Default::default()
        },
    ];
    let got: Vec<u64> = specs
        .into_iter()
        .map(|s| digest(&Topology::fat_tree(s)))
        .collect();
    assert_eq!(got, FAT_TREE, "fat-tree fabric moved: {got:#018x?}");
}

#[test]
fn clos3_link_tables_are_pinned() {
    let specs = [
        Clos3Spec::default(),
        Clos3Spec {
            pods: 3,
            leaves_per_pod: 2,
            aggs_per_pod: 3,
            cores_per_group: 2,
            hosts_per_leaf: 2,
            host_link: slow_host_link(),
        },
        Clos3Spec {
            pods: 1,
            leaves_per_pod: 4,
            aggs_per_pod: 2,
            cores_per_group: 1,
            hosts_per_leaf: 1,
            ..Default::default()
        },
    ];
    let got: Vec<u64> = specs
        .into_iter()
        .map(|s| digest(&Topology::clos3(s)))
        .collect();
    assert_eq!(got, CLOS3, "3-level fabric moved: {got:#018x?}");
}

const FAT_TREE: [u64; 4] = [
    0x7a10_efb4_4c6b_2f44,
    0xf1a6_44bd_551e_0f09,
    0xd4d9_e53e_546f_e4b0,
    0xaea7_275c_b1bb_9b95,
];
const CLOS3: [u64; 3] = [
    0x4fc8_699f_fd67_30d3,
    0x551d_2870_4e9b_7451,
    0xa31a_8a26_7c23_9ef8,
];
