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
use crate::spray;
use crate::stats::Stats;
use crate::time::SimTime;
use crate::topology::{LinkClass, SwitchKind, Topology};
use rand::rngs::SmallRng;

/// Runtime state of one switch.
#[derive(Debug)]
pub(crate) struct SwitchState {
    /// Round-robin spray cursor.
    pub(crate) rr_cursor: u64,
    /// Pluggable spray backend ([`spray::Sprayer`]) built from
    /// `cfg.spray`. Classic policies wrap [`spray::choose`] verbatim, so
    /// the default `Adaptive` path is byte-identical to the pre-trait
    /// engine; stateful backends (REPS) keep their per-switch state here.
    pub(crate) sprayer: Box<dyn spray::Sprayer>,
    /// Leaf only: valid uplinks per destination leaf (admin state only —
    /// silent faults are *not* reflected here, that's the point).
    pub(crate) valid_up: Vec<Vec<LinkId>>,
    /// 3-level aggs only: valid agg→core uplinks per destination pod.
    pub(crate) valid_core: Vec<Vec<LinkId>>,
    /// [`spray::SprayPolicy::Adaptive`]: decaying per-upstream-port byte
    /// counters (the utilization half of the load signal). Sized
    /// `n_vspines` on leaves, `cores_per_group` on 3-level aggs.
    pub(crate) spray_deficit: Vec<u64>,
    /// Timestamp base for the lazy exponential decay of `spray_deficit`.
    pub(crate) spray_deficit_at: Vec<u64>,
}

impl SwitchState {
    /// Read the spray deficit of uplink slot `v`, applying lazy
    /// exponential decay: the counter halves every `tau` nanoseconds. This
    /// is the EWMA-like utilization signal of
    /// [`spray::SprayPolicy::Adaptive`].
    fn decayed_deficit(&mut self, v: usize, now: u64, tau: u64) -> u64 {
        let elapsed = now.saturating_sub(self.spray_deficit_at[v]);
        if elapsed < tau {
            // Zero halvings: skip the division (nearly every read).
            return self.spray_deficit[v];
        }
        let halvings = elapsed.checked_div(tau).unwrap_or(0);
        if halvings > 0 {
            self.spray_deficit[v] >>= halvings.min(63);
            self.spray_deficit_at[v] += halvings * tau;
        }
        self.spray_deficit[v]
    }

    /// A slot nothing was ever charged to: its timestamp base is still the
    /// initial zero, which is not relative to any clock.
    pub(crate) fn untouched(&self, v: usize) -> bool {
        self.spray_deficit[v] == 0 && self.spray_deficit_at[v] == 0
    }

    /// Apply the lazy decay of every touched slot up to `now`: exactly the
    /// advancement [`Self::decayed_deficit`] performs at the slot's next
    /// read, done early.
    pub(crate) fn sync_decay(&mut self, now: u64, tau: u64) {
        for v in 0..self.spray_deficit.len() {
            if !self.untouched(v) {
                self.decayed_deficit(v, now, tau);
            }
        }
    }
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

/// Deficit-table slot of an upstream (sprayed) link: the vspine index for
/// leaf uplinks, the core slot for agg uplinks.
fn deficit_idx(topo: &Topology, up: LinkId) -> u32 {
    match topo.links[up.idx()].class {
        LinkClass::LeafUp { vspine, .. } => vspine,
        LinkClass::AggUp { core_k, .. } => core_k,
        c => unreachable!("not a sprayed uplink: {c:?}"),
    }
}

/// Every switch of the fabric, plus what the spray stage shares between
/// them.
pub(crate) struct Switches {
    pub(crate) state: Vec<SwitchState>,
    scratch_cands: Vec<LinkId>,
    scratch_loads: Vec<u64>,
    /// Scratch uplink-slot ids handed to feedback-driven sprayers.
    scratch_slots: Vec<u32>,
    /// `cfg.spray.wants_feedback()`, cached: gates every per-packet
    /// feedback hook (CE marking, ACK echoes) so classic policies pay one
    /// predictable branch and stay byte-identical to the pre-trait engine.
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
                let (n_valid_up, n_valid_core, n_deficit) = match kind {
                    SwitchKind::Leaf(_) => (topo.n_leaves(), 0, topo.n_vspines()),
                    SwitchKind::Spine(_) if three_level => {
                        (0, topo.pods as usize, topo.cores_per_group as usize)
                    }
                    SwitchKind::Spine(_) | SwitchKind::Core(_) => (0, 0, 0),
                };
                SwitchState {
                    rr_cursor: 0,
                    sprayer: spray::make_sprayer(cfg.spray, n_deficit),
                    valid_up: vec![Vec::new(); n_valid_up],
                    valid_core: vec![Vec::new(); n_valid_core],
                    spray_deficit: vec![0; n_deficit],
                    spray_deficit_at: vec![0; n_deficit],
                }
            })
            .collect();
        Switches {
            state,
            scratch_cands: Vec::new(),
            scratch_loads: Vec::new(),
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
    /// from link admin state, by [`Topology::valid_planes`] and
    /// [`Topology::valid_core_slots`].
    pub(crate) fn recompute_routing(&mut self, topo: &Topology, links: &[LinkState]) {
        let up = |l: LinkId| links[l.idx()].admin_up;
        for (s, kind) in self.state.iter_mut().zip(&topo.switch_kind) {
            match *kind {
                SwitchKind::Leaf(leaf) => {
                    for (dst, set) in (0..).zip(&mut s.valid_up) {
                        set.clear();
                        set.extend(
                            topo.valid_planes(leaf, dst, up)
                                .map(|v| topo.uplink(leaf, v)),
                        );
                    }
                }
                SwitchKind::Spine(agg) => {
                    for (pod, set) in (0..).zip(&mut s.valid_core) {
                        set.clear();
                        let slots = topo.valid_core_slots(agg, pod, up);
                        set.extend(slots.map(|k| topo.agg_uplink(agg, k)));
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
        let valid = match table {
            SprayTable::Up(dst_leaf) => &s.valid_up[dst_leaf as usize],
            SprayTable::Core(dst_pod) => &s.valid_core[dst_pod as usize],
        };
        if valid.is_empty() {
            return None;
        }
        let cands = &mut self.scratch_cands;
        cands.clear();
        cands.extend_from_slice(valid);
        // Entropy-recycle remediation (`ControlVerb::RecycleEntropy`):
        // drop quarantined uplinks from the candidate set, mirroring the
        // admin-down pairing (the uplink itself, or — when steering
        // around a spine — the paired spine→destination downlink). The
        // filter never empties the set: with no clean alternative the
        // original candidates stand, because the pick must stay total.
        if self.avoided > 0 && cands.len() > 1 {
            cands.retain(|&up| {
                let down_avoided = match table {
                    SprayTable::Up(dst_leaf) => {
                        let down = topo.downlink(deficit_idx(topo, up), dst_leaf);
                        links[down.idx()].spray_avoid
                    }
                    SprayTable::Core(_) => false,
                };
                !links[up.idx()].spray_avoid && !down_avoided
            });
            if cands.is_empty() {
                cands.extend_from_slice(valid);
            } else if cands.len() < valid.len() {
                stats.spray_avoided_picks += 1;
            }
        }
        let adaptive = cfg.spray == spray::SprayPolicy::Adaptive;
        let chosen = if cands.len() == 1 {
            cands[0]
        } else {
            let loads = &mut self.scratch_loads;
            loads.clear();
            // Load signals feed only the classic policies; skipping the
            // gather for hash/entropy backends keeps their pick O(1).
            if cfg.spray.is_classic() {
                let (now, tau) = (now.as_ns(), cfg.spray_tau.as_ns());
                for &id in cands.iter() {
                    let mut load = links[id.idx()].queued_bytes;
                    if adaptive {
                        load += s.decayed_deficit(deficit_idx(topo, id) as usize, now, tau);
                    }
                    loads.push(load);
                }
            }
            let slots = &mut self.scratch_slots;
            slots.clear();
            if self.feedback {
                slots.extend(cands.iter().map(|&id| deficit_idx(topo, id)));
            }
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
                loads,
                slots,
            };
            let i = s.sprayer.pick(&ctx, &mut s.rr_cursor, rng);
            debug_assert!(i < cands.len(), "sprayer picked out of range");
            cands[i]
        };
        if adaptive {
            let wire = pkt.size as u64 + cfg.wire_overhead as u64;
            s.spray_deficit[deficit_idx(topo, chosen) as usize] += wire;
        }
        Some(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeSpec;

    #[test]
    fn decayed_deficit_matches_the_always_divide_formulation() {
        // The read path returns early when less than one tau has passed;
        // that must be invisible: same value, same timestamp base, across
        // grid crossings, multi-tau gaps, > 63 halvings and tau = 0.
        fn reference(deficit: &mut u64, at: &mut u64, now: u64, tau: u64) -> u64 {
            let elapsed = now.saturating_sub(*at);
            let halvings = elapsed.checked_div(tau).unwrap_or(0);
            if halvings > 0 {
                *deficit >>= halvings.min(63);
                *at += halvings * tau;
            }
            *deficit
        }
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        for tau in [0u64, 1, 100, 100_000] {
            let mut sw = Switches::new(&topo, &SimConfig::default());
            let s = &mut sw.state[0];
            let (mut want, mut want_at, mut now) = (0u64, 0u64, 0u64);
            let steps = [0, 1, tau / 2, tau.saturating_sub(1), 1, tau, tau + 1];
            let gaps = [3 * tau + 7, 5, 70 * tau, 2 * tau, 0];
            for step in steps.into_iter().chain(gaps) {
                now += step;
                want += 4160;
                s.spray_deficit[1] += 4160;
                let got = s.decayed_deficit(1, now, tau);
                assert_eq!(got, reference(&mut want, &mut want_at, now, tau));
                assert_eq!(s.spray_deficit_at[1], want_at, "tau={tau}");
            }
        }
    }
}
