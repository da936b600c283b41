//! The switch layer: per-switch forwarding state, the valid-uplink tables
//! routing derives from admin state, and the spray stage that picks among
//! them.
//!
//! State and methods, like [`crate::egress`]: the simulator decides *when*
//! a packet reaches a switch and what happens to the egress it is handed
//! to; this module decides *where it goes*. What a decision reads from the
//! rest of the world comes in through a borrowed [`Fabric`].

use crate::config::SimConfig;
use crate::egress::LinkState;
use crate::ids::{LinkId, SwitchId};
use crate::packet::{Packet, PacketKind};
use crate::spray::{self, Sprayer};
use crate::stats::Stats;
use crate::time::SimTime;
use crate::topology::{LinkClass, SwitchKind, Topology};
use rand::rngs::SmallRng;

/// Runtime state of one switch.
#[derive(Clone, Debug)]
pub(crate) struct SwitchState {
    /// Round-robin spray cursor.
    pub(crate) rr_cursor: u64,
    /// The spray policy's per-switch state, built from `cfg.spray`: the
    /// Adaptive deficits, PRIME's epochs, REPS' entropy buckets.
    pub(crate) sprayer: Sprayer,
    /// Leaf only: valid uplinks per destination leaf (admin state only —
    /// silent faults are *not* reflected here, that's the point).
    pub(crate) valid_up: Vec<Vec<LinkId>>,
    /// The uplink slot (virtual-spine index) of each `valid_up` entry.
    valid_up_slots: Vec<Vec<u32>>,
    /// 3-level aggs only: valid agg→core uplinks per destination pod.
    pub(crate) valid_core: Vec<Vec<LinkId>>,
    /// The uplink slot (core slot) of each `valid_core` entry.
    valid_core_slots: Vec<Vec<u32>>,
}

/// Which upstream table a spray decision consults.
#[derive(Copy, Clone)]
pub(crate) enum SprayTable {
    /// Leaf uplinks valid toward this destination leaf.
    Up(u32),
    /// Agg→core uplinks valid toward this destination pod (3-level).
    Core(u32),
}

/// What a forwarding decision reads from the rest of the simulator.
pub(crate) struct Fabric<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) links: &'a [LinkState],
    pub(crate) cfg: &'a SimConfig,
    pub(crate) now: SimTime,
}

/// Every switch of the fabric, plus what the spray stage shares between
/// them.
#[derive(Clone)]
pub(crate) struct Switches {
    pub(crate) state: Vec<SwitchState>,
    /// The candidates (and their slots) the quarantine filter kept.
    scratch_cands: Vec<LinkId>,
    scratch_slots: Vec<u32>,
    /// `cfg.spray.wants_feedback()`, cached: gates every per-packet
    /// feedback hook (CE marking, ACK echoes, timeout echoes) so the other
    /// policies pay one predictable branch.
    pub(crate) feedback: bool,
    /// Number of links currently carrying [`LinkState::spray_avoid`];
    /// zero keeps the avoidance filter entirely off the spray hot path.
    avoided: u32,
}

impl Switches {
    /// One state per switch of `topo`. The valid-uplink tables are sized
    /// but empty until [`Self::recompute_routing`] fills them.
    pub(crate) fn new(topo: &Topology, cfg: &SimConfig) -> Self {
        let three_level = topo.is_three_level();
        let state = topo
            .switch_kind
            .iter()
            .map(|kind| {
                let (n_valid_up, n_valid_core, n_slots) = match kind {
                    SwitchKind::Leaf(_) => (topo.n_leaves(), 0, topo.n_vspines()),
                    SwitchKind::Spine(_) if three_level => {
                        (0, topo.pods as usize, topo.cores_per_group as usize)
                    }
                    SwitchKind::Spine(_) | SwitchKind::Core(_) => (0, 0, 0),
                };
                SwitchState {
                    rr_cursor: 0,
                    sprayer: spray::make_sprayer(cfg.spray, n_slots),
                    valid_up: vec![Vec::new(); n_valid_up],
                    valid_up_slots: vec![Vec::new(); n_valid_up],
                    valid_core: vec![Vec::new(); n_valid_core],
                    valid_core_slots: vec![Vec::new(); n_valid_core],
                }
            })
            .collect();
        Switches {
            state,
            scratch_cands: Vec::new(),
            scratch_slots: Vec::new(),
            feedback: cfg.spray.wants_feedback(),
            avoided: 0,
        }
    }

    /// Flip a link's entropy-recycle quarantine flag, maintaining the
    /// global count that keeps the avoidance filter off the spray hot
    /// path while no link is quarantined.
    pub(crate) fn set_spray_avoid(&mut self, link: &mut LinkState, on: bool) {
        if link.spray_avoid != on {
            link.spray_avoid = on;
            if on {
                self.avoided += 1;
            } else {
                self.avoided -= 1;
            }
        }
    }

    /// Rebuild all valid-uplink sets (leaf→agg and, for 3-level, agg→core)
    /// and their slot tables from link admin state, by
    /// [`Topology::valid_planes`] and [`Topology::valid_core_slots`].
    pub(crate) fn recompute_routing(&mut self, topo: &Topology, links: &[LinkState]) {
        let up = |l: LinkId| links[l.idx()].admin_up;
        for (s, kind) in self.state.iter_mut().zip(&topo.switch_kind) {
            match *kind {
                SwitchKind::Leaf(leaf) => {
                    let tables = s.valid_up.iter_mut().zip(&mut s.valid_up_slots);
                    for (dst, (set, slots)) in (0..).zip(tables) {
                        slots.clear();
                        slots.extend(topo.valid_planes(leaf, dst, up));
                        set.clear();
                        set.extend(slots.iter().map(|&v| topo.uplink(leaf, v)));
                    }
                }
                SwitchKind::Spine(agg) => {
                    let tables = s.valid_core.iter_mut().zip(&mut s.valid_core_slots);
                    for (pod, (set, slots)) in (0..).zip(tables) {
                        slots.clear();
                        slots.extend(topo.valid_core_slots(agg, pod, up));
                        set.clear();
                        set.extend(slots.iter().map(|&k| topo.agg_uplink(agg, k)));
                    }
                }
                SwitchKind::Core(_) => {}
            }
        }
    }

    /// Pick the egress link for `pkt`, which came into switch `sw` over
    /// `in_link`. `None`: no admin-up way toward its destination.
    pub(crate) fn route(
        &mut self,
        fab: &Fabric<'_>,
        sw: SwitchId,
        pkt: &Packet,
        in_link: LinkId,
        rng: &mut SmallRng,
        stats: &mut Stats,
    ) -> Option<LinkId> {
        let topo = fab.topo;
        let if_up = |down: LinkId| fab.links[down.idx()].admin_up.then_some(down);
        let dst_leaf = topo.leaf_of(pkt.dst);
        match topo.switch_kind[sw.idx()] {
            SwitchKind::Leaf(l) if dst_leaf == l => if_up(topo.host_down[pkt.dst.idx()]),
            // Upstream: adaptive per-packet spray over valid uplinks.
            SwitchKind::Leaf(_) => {
                self.spray_among(fab, sw, SprayTable::Up(dst_leaf), pkt, rng, stats)
            }
            SwitchKind::Spine(g) => match topo.links[in_link.idx()].class {
                LinkClass::LeafUp { vspine, .. } => {
                    let other_pod = topo
                        .is_three_level()
                        .then(|| topo.pod_of_leaf(dst_leaf))
                        .filter(|&pod| pod != g / topo.spec.spines);
                    match other_pod {
                        // 2-level, or intra-pod: down the same plane,
                        // deterministic.
                        None => if_up(topo.downlink(vspine, dst_leaf)),
                        // Cross-pod: second spray stage over the core
                        // group, mirroring the leaf's logic.
                        Some(pod) => {
                            self.spray_among(fab, sw, SprayTable::Core(pod), pkt, rng, stats)
                        }
                    }
                }
                // Final descent: agg g (within-pod index) → leaf.
                LinkClass::CoreDown { .. } => if_up(topo.downlink(g % topo.spec.spines, dst_leaf)),
                c => unreachable!("agg ingress must be LeafUp/CoreDown, got {c:?}"),
            },
            // Deterministic: one downlink per pod.
            SwitchKind::Core(c) => if_up(topo.core_downlink(c, topo.pod_of_leaf(dst_leaf))),
        }
    }

    /// One APS decision: pick among the switch's valid upstream links for
    /// the given table (leaf→spine per destination leaf, or 3-level
    /// agg→core per destination pod), honouring the configured policy and
    /// charging the adaptive byte deficit.
    ///
    /// `Adaptive` and `LeastLoaded` pick here, in one pass with no
    /// candidate copy: exactly [`spray::choose`]'s rotating least-loaded
    /// scan over `queued_bytes`, plus the Adaptive arm's decayed deficit.
    /// Every other arm picks through [`Sprayer::pick`].
    fn spray_among(
        &mut self,
        fab: &Fabric<'_>,
        sw: SwitchId,
        table: SprayTable,
        pkt: &Packet,
        rng: &mut SmallRng,
        stats: &mut Stats,
    ) -> Option<LinkId> {
        let Fabric {
            topo,
            links,
            cfg,
            now,
        } = *fab;
        let s = &mut self.state[sw.idx()];
        let (valid, valid_slots) = match table {
            SprayTable::Up(dst_leaf) => (
                &s.valid_up[dst_leaf as usize],
                &s.valid_up_slots[dst_leaf as usize],
            ),
            SprayTable::Core(dst_pod) => (
                &s.valid_core[dst_pod as usize],
                &s.valid_core_slots[dst_pod as usize],
            ),
        };
        if valid.is_empty() {
            return None;
        }
        let (mut cands, mut slots) = (&valid[..], &valid_slots[..]);
        // Entropy-recycle remediation (`ControlVerb::RecycleEntropy`):
        // drop quarantined uplinks from the candidate set, mirroring the
        // admin-down pairing (the uplink itself, or — when steering
        // around a spine — the paired spine→destination downlink). The
        // filter never empties the set: with no clean alternative the
        // original candidates stand, because the pick must stay total.
        if self.avoided > 0 && cands.len() > 1 {
            let (kept, kept_slots) = (&mut self.scratch_cands, &mut self.scratch_slots);
            kept.clear();
            kept_slots.clear();
            for (&up, &slot) in cands.iter().zip(slots) {
                let down_avoided = match table {
                    SprayTable::Up(dst_leaf) => {
                        links[topo.downlink(slot, dst_leaf).idx()].spray_avoid
                    }
                    SprayTable::Core(_) => false,
                };
                if !links[up.idx()].spray_avoid && !down_avoided {
                    kept.push(up);
                    kept_slots.push(slot);
                }
            }
            if !kept.is_empty() {
                if kept.len() < cands.len() {
                    stats.spray_avoided_picks += 1;
                }
                (cands, slots) = (kept, kept_slots);
            }
        }
        let queued = |id: LinkId| links[id.idx()].queued_bytes;
        let i = match &mut s.sprayer {
            _ if cands.len() == 1 => 0,
            Sprayer::Adaptive(d) => {
                d.decay(slots, now.as_ns(), cfg.spray_tau.as_ns());
                let load = |id, v| queued(id) + d.get(v);
                least_loaded(cands, slots, &mut s.rr_cursor, load)
            }
            Sprayer::LeastLoaded => {
                least_loaded(cands, slots, &mut s.rr_cursor, |id, _| queued(id))
            }
            // Random, RoundRobin and the hash/entropy backends pick without
            // a load signal.
            sprayer => {
                let (flow, seq, data) = match pkt.kind {
                    PacketKind::Data { flow, seq } => (flow, seq, true),
                    PacketKind::Ack { flow, .. } => (flow, 0, false),
                };
                let ctx = spray::SprayCtx {
                    flow,
                    src: pkt.src.0,
                    dst: pkt.dst.0,
                    seq,
                    data,
                    cands,
                    loads: &[],
                    slots,
                };
                sprayer.pick(&ctx, &mut s.rr_cursor, rng)
            }
        };
        debug_assert!(i < cands.len(), "sprayer picked out of range");
        if let Sprayer::Adaptive(d) = &mut s.sprayer {
            d.charge(slots[i], pkt.wire_size());
        }
        Some(cands[i])
    }
}

/// [`spray::choose`]'s rotating least-loaded scan over
/// `load(cands[k], slots[k])`, read in place: the scan starts at the
/// cursor so equal loads are taken in rotation, and the cursor moves past
/// the chosen candidate.
fn least_loaded(
    cands: &[LinkId],
    slots: &[u32],
    cursor: &mut u64,
    load: impl Fn(LinkId, u32) -> u64,
) -> usize {
    let n = cands.len();
    let c = *cursor as usize;
    let start = if c < n { c } else { c % n };
    let (mut best, mut best_load) = (start, load(cands[start], slots[start]));
    // `(start + k) % n` for `k` in `1..n`, as two runs without a division.
    let runs = [(start + 1, n), (0, start)];
    for (lo, hi) in runs {
        for (k, (&id, &v)) in (lo..).zip(cands[lo..hi].iter().zip(&slots[lo..hi])) {
            let l = load(id, v);
            if l < best_load {
                best = k;
                best_load = l;
            }
        }
    }
    *cursor = best as u64 + 1;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;
    use crate::packet::Priority;
    use crate::rng::splitmix64;
    use crate::spray::{Deficits, SprayPolicy};
    use crate::time::SimDuration;
    use crate::topology::{Clos3Spec, FatTreeSpec};
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Forking a trial copies the switch layer by value.
    const _: fn() = || {
        fn clone<T: Clone>() {}
        clone::<Switches>();
    };

    /// Uplink slot of a sprayed uplink, read from its link class.
    fn slot_of(topo: &Topology, up: LinkId) -> u32 {
        match topo.links[up.idx()].class {
            LinkClass::LeafUp { vspine, .. } => vspine,
            LinkClass::AggUp { core_k, .. } => core_k,
            c => unreachable!("not a sprayed uplink: {c:?}"),
        }
    }

    /// The rotating least-loaded pick as two stages: copy and filter the
    /// candidates, gather each load through `Deficits::decayed`, then
    /// [`spray::choose`]. Returns the pick and whether the quarantine
    /// narrowed it.
    fn reference_pick(
        s: &mut SwitchState,
        fab: &Fabric<'_>,
        table: SprayTable,
        wire: u64,
        rng: &mut SmallRng,
    ) -> Option<(LinkId, bool)> {
        let (topo, links) = (fab.topo, fab.links);
        let valid = match table {
            SprayTable::Up(dst_leaf) => s.valid_up[dst_leaf as usize].clone(),
            SprayTable::Core(dst_pod) => s.valid_core[dst_pod as usize].clone(),
        };
        if valid.is_empty() {
            return None;
        }
        let mut cands = valid.clone();
        let mut narrowed = false;
        if links.iter().any(|l| l.spray_avoid) && cands.len() > 1 {
            cands.retain(|&up| {
                let down_avoided = match table {
                    SprayTable::Up(dst_leaf) => {
                        let down = topo.downlink(slot_of(topo, up), dst_leaf);
                        links[down.idx()].spray_avoid
                    }
                    SprayTable::Core(_) => false,
                };
                !links[up.idx()].spray_avoid && !down_avoided
            });
            if cands.is_empty() {
                cands = valid.clone();
            }
            narrowed = cands.len() < valid.len();
        }
        let chosen = if cands.len() == 1 {
            cands[0]
        } else {
            let (now, tau) = (fab.now.as_ns(), fab.cfg.spray_tau.as_ns());
            let loads: Vec<u64> = cands
                .iter()
                .map(|&id| {
                    let deficit = match &mut s.sprayer {
                        Sprayer::Adaptive(d) => d.decayed(slot_of(topo, id), now, tau),
                        _ => 0,
                    };
                    links[id.idx()].queued_bytes + deficit
                })
                .collect();
            cands[spray::choose(fab.cfg.spray, &loads, &mut s.rr_cursor, rng)]
        };
        if let Sprayer::Adaptive(d) = &mut s.sprayer {
            d.charge(slot_of(topo, chosen), wire);
        }
        Some((chosen, narrowed))
    }

    /// The Adaptive arm's deficits, if the switch sprays Adaptive.
    fn deficits(s: &SwitchState) -> Option<&Deficits> {
        match &s.sprayer {
            Sprayer::Adaptive(d) => Some(d),
            _ => None,
        }
    }

    /// Every spraying `(switch, table)` of `topo`.
    fn spray_sites(topo: &Topology) -> Vec<(SwitchId, SprayTable)> {
        let mut sites = Vec::new();
        for (i, kind) in topo.switch_kind.iter().enumerate() {
            let sw = SwitchId(i as u32);
            match *kind {
                SwitchKind::Leaf(l) => sites.extend(
                    (0..topo.n_leaves() as u32)
                        .filter(|&d| d != l)
                        .map(|d| (sw, SprayTable::Up(d))),
                ),
                SwitchKind::Spine(agg) if topo.is_three_level() => sites.extend(
                    (0..topo.pods)
                        .filter(|&p| p != agg / topo.spec.spines)
                        .map(|p| (sw, SprayTable::Core(p))),
                ),
                _ => {}
            }
        }
        sites
    }

    proptest! {
        /// The fused pass and the two-stage pick agree on every step: the
        /// same uplink, cursor, deficits and timestamp bases, and the
        /// same quarantine count, over random queues, cursors (in range,
        /// at `n`, far past it), time steps across and far beyond tau grid
        /// crossings, admin-down subsets and quarantines. The decay gate
        /// stays a lower bound on every switch throughout.
        #[test]
        fn fused_pick_matches_gather_then_choose(
            shape in 0u8..4,
            tau_sel in 0usize..4,
            down_seed in 0u64..u64::MAX,
            avoid_seed in 0u64..u64::MAX,
            // (time step × cursor move, raw draw, queue seed, site)
            steps in collection::vec(
                (0u8..48, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                1..48,
            ),
        ) {
            let (three_level, adaptive) = (shape & 1 == 1, shape & 2 == 2);
            let tau = [0u64, 1, 100, 100_000][tau_sel];
            let topo = if three_level {
                Topology::clos3(Clos3Spec {
                    pods: 2,
                    leaves_per_pod: 2,
                    aggs_per_pod: 2,
                    cores_per_group: 4,
                    hosts_per_leaf: 1,
                    ..Default::default()
                })
            } else {
                Topology::fat_tree(FatTreeSpec {
                    leaves: 3,
                    spines: 3,
                    parallel_links: 2,
                    hosts_per_leaf: 1,
                    ..Default::default()
                })
            };
            let cfg = SimConfig {
                spray: if adaptive { SprayPolicy::Adaptive } else { SprayPolicy::LeastLoaded },
                spray_tau: SimDuration::from_ns(tau),
                ..SimConfig::default()
            };
            let mut links: Vec<LinkState> =
                (0..topo.n_links()).map(|_| LinkState::new()).collect();
            let (mut fused, mut want) = (Switches::new(&topo, &cfg), Switches::new(&topo, &cfg));
            // About one link in six admin-down, one in eight quarantined.
            for (i, l) in links.iter_mut().enumerate() {
                l.admin_up = !splitmix64(down_seed ^ i as u64).is_multiple_of(6);
                if splitmix64(avoid_seed ^ i as u64).is_multiple_of(8) {
                    fused.set_spray_avoid(l, true);
                }
            }
            fused.recompute_routing(&topo, &links);
            want.recompute_routing(&topo, &links);
            let sites = spray_sites(&topo);
            let (mut stats, mut narrowed) = (Stats::default(), 0);
            let (mut rng_a, mut rng_b) = (SmallRng::seed_from_u64(1), SmallRng::seed_from_u64(1));
            let mut now = 0u64;
            for (sel, raw, queues, site) in steps {
                now += match sel % 8 {
                    0 => 0,
                    1 => 1,
                    2 => tau.saturating_sub(1),
                    3 => tau,
                    4 => tau + 1,
                    5 => raw % (3 * tau + 5),
                    6 => 70 * tau + raw % 7,
                    _ => raw % 1_000_000_000,
                };
                // Few distinct queue depths, so ties are common.
                for (i, l) in links.iter_mut().enumerate() {
                    l.queued_bytes = splitmix64(queues ^ i as u64) % 4 * 4160;
                }
                let (sw, table) = sites[(site % sites.len() as u64) as usize];
                let cursor = match sel / 8 {
                    0 => Some(splitmix64(raw) % 20),
                    1 => Some(splitmix64(raw)),
                    _ => None,
                };
                if let Some(c) = cursor {
                    fused.state[sw.idx()].rr_cursor = c;
                    want.state[sw.idx()].rr_cursor = c;
                }
                let pkt = Packet {
                    kind: PacketKind::Data { flow: 0, seq: 0 },
                    src: HostId(0),
                    dst: HostId(1),
                    size: 64 + (raw % 4096) as u32,
                    prio: Priority::MEASURED,
                    tag: None,
                    src_leaf: 0,
                    ingress: None,
                    ce: false,
                };
                let fab = Fabric { topo: &topo, links: &links, cfg: &cfg, now: SimTime::from_ns(now) };
                let got = fused.spray_among(&fab, sw, table, &pkt, &mut rng_a, &mut stats);
                let wire = pkt.wire_size();
                let (a, b) = (&fused.state[sw.idx()], &mut want.state[sw.idx()]);
                let reference = reference_pick(b, &fab, table, wire, &mut rng_b);
                narrowed += reference.is_some_and(|(_, n)| n) as u64;
                prop_assert_eq!(got, reference.map(|(l, _)| l));
                prop_assert_eq!(a.rr_cursor, b.rr_cursor);
                prop_assert_eq!(deficits(a).is_some(), adaptive);
                prop_assert_eq!(deficits(a).map(Deficits::slots), deficits(b).map(Deficits::slots));
                prop_assert_eq!(stats.spray_avoided_picks, narrowed);
                for s in &fused.state {
                    prop_assert!(deficits(s).is_none_or(|d| d.gate_holds(tau)));
                }
            }
        }
    }
}
