//! Fault localization (paper §5.3, Fig. 4).
//!
//! "Reduced traffic at a given ingress port can indicate either a fault on
//! the local link between that port and the corresponding spine switch, or
//! a fault on a remote link between a different leaf switch and the spine
//! switch. To distinguish these cases, FlowPulse compares the traffic
//! volumes received from different senders over the given port. If traffic
//! from all senders is equally affected, the local link is marked as
//! failed. However, if only one sender is affected, the link between the
//! spine switch and the leaf switch of the sender is marked as failed."
//!
//! Two methods are provided:
//!
//! * [`Localizer::localize_port`] — the paper's per-sender comparison.
//!   Needs multiple senders per monitored port (e.g. AlltoAll workloads).
//! * [`Localizer::localize_ring`] — for ring collectives, where each port
//!   sees a *single* sender, per-port comparison is inconclusive; instead,
//!   a physical cable fault `X↔S` produces a tell-tale *pair* of alarms
//!   (at leaf `X` itself, whose ingress from `S` is cut, and at `succ(X)`,
//!   which stops receiving `X`'s sprayed share via `S`). Correlating alarm
//!   reports across leaves pins the cable.

use crate::model::PortSrcLoads;
use crate::monitor::{shortfall_ports, Alarm};
use serde::{Deserialize, Serialize};

/// Verdict for one alarmed port from per-sender comparison.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum PortVerdict {
    /// All senders equally affected → the leaf's own link to that spine.
    Local,
    /// Only some senders affected → the remote leaf↔spine links of those
    /// senders.
    Remote {
        /// Source leaves whose traffic is short on this port.
        senders: Vec<u32>,
    },
    /// No sender shows a significant shortfall (port-level alarm was noise
    /// or excess-traffic-driven).
    Inconclusive,
}

/// Localization of a single-sender (ring) alarm pattern.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug, Default)]
pub struct RingLocalization {
    /// Physical cables confidently identified: `(leaf, vspine)` pairs where
    /// both the leaf's own ingress and its successor's ingress alarmed.
    pub cables: Vec<(u32, u32)>,
    /// Alarmed ports with no corroborating pair — a one-directional fault;
    /// the culprit is one of the two links meeting at that port's spine.
    pub unpaired: Vec<(u32, u32)>,
}

/// Per-sender localization logic.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct Localizer {
    /// Relative shortfall for a sender to count as affected.
    pub sender_threshold: f64,
    /// Senders expected to contribute fewer bytes than this are ignored.
    pub min_expected: f64,
}

impl Default for Localizer {
    fn default() -> Self {
        Localizer {
            sender_threshold: 0.01,
            min_expected: 1.0,
        }
    }
}

impl Localizer {
    /// Per-sender comparison at one alarmed `(leaf, vspine)` port (Fig. 4).
    pub fn localize_port(
        &self,
        expected: &PortSrcLoads,
        observed: &PortSrcLoads,
        leaf: u32,
        vspine: u32,
    ) -> PortVerdict {
        let mut affected = Vec::new();
        let mut unaffected = 0u32;
        for src in 0..expected.n_src as u32 {
            let e = expected.get(leaf, vspine, src);
            if e < self.min_expected {
                continue;
            }
            let o = observed.get(leaf, vspine, src);
            if (e - o) / e > self.sender_threshold {
                affected.push(src);
            } else {
                unaffected += 1;
            }
        }
        if affected.is_empty() {
            PortVerdict::Inconclusive
        } else if unaffected == 0 {
            PortVerdict::Local
        } else {
            PortVerdict::Remote { senders: affected }
        }
    }

    /// Cross-leaf correlation for single-sender-per-port (ring) workloads.
    ///
    /// `alarms` are the alarmed `(leaf, vspine)` ports fleet-wide;
    /// `succ_leaf` maps each leaf to its ring successor's leaf.
    pub fn localize_ring(
        &self,
        alarms: &[(u32, u32)],
        succ_leaf: impl Fn(u32) -> u32,
    ) -> RingLocalization {
        use std::collections::HashSet;
        let set: HashSet<(u32, u32)> = alarms.iter().copied().collect();
        let mut out = RingLocalization::default();
        let mut paired: HashSet<(u32, u32)> = HashSet::new();
        for &(leaf, v) in alarms {
            let s = succ_leaf(leaf);
            if set.contains(&(s, v)) {
                out.cables.push((leaf, v));
                paired.insert((leaf, v));
                paired.insert((s, v));
            }
        }
        for &a in alarms {
            if !paired.contains(&a) {
                out.unpaired.push(a);
            }
        }
        out.cables.sort_unstable();
        out.cables.dedup();
        out.unpaired.sort_unstable();
        out
    }

    /// [`localize_ring`](Localizer::localize_ring) straight from alarms, for
    /// a ring laid out one node per leaf in leaf order (`succ(l) = (l + 1)
    /// mod leaves`, the layout `eval::build_schedule` produces): the
    /// alarms' shortfall ports ([`shortfall_ports`]) are the evidence. No
    /// shortfall at all yields the empty verdict.
    pub fn localize_ring_alarms<'a>(
        &self,
        alarms: impl IntoIterator<Item = &'a Alarm>,
        leaves: u32,
    ) -> RingLocalization {
        self.localize_ring(&shortfall_ports(alarms), |l| (l + 1) % leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 leaves, 2 vspines; equal 100-byte expectation from every remote
    /// sender on every port.
    fn uniform_expected() -> PortSrcLoads {
        let mut e = PortSrcLoads::zeros(3, 2);
        for leaf in 0..3u32 {
            for v in 0..2u32 {
                for src in 0..3u32 {
                    if src != leaf {
                        e.add(leaf, v, src, 100.0);
                    }
                }
            }
        }
        e
    }

    #[test]
    fn all_senders_short_means_local() {
        let e = uniform_expected();
        let mut o = e.clone();
        // At (leaf 2, vspine 1): every sender 10% short.
        for src in [0u32, 1] {
            let cur = o.get(2, 1, src);
            o.bytes[(2 * 2 + 1) * 3 + src as usize] = cur * 0.9;
        }
        let l = Localizer::default();
        assert_eq!(l.localize_port(&e, &o, 2, 1), PortVerdict::Local);
    }

    #[test]
    fn one_sender_short_means_remote() {
        // Fig. 4: L2 still receives L3's expected traffic via S1, so the
        // failed link must be remote (L1–S1).
        let e = uniform_expected();
        let mut o = e.clone();
        o.bytes[(2 * 2 + 1) * 3] = 50.0; // only sender 0 short
        let l = Localizer::default();
        assert_eq!(
            l.localize_port(&e, &o, 2, 1),
            PortVerdict::Remote { senders: vec![0] }
        );
    }

    #[test]
    fn no_shortfall_is_inconclusive() {
        let e = uniform_expected();
        let o = e.clone();
        let l = Localizer::default();
        assert_eq!(l.localize_port(&e, &o, 0, 0), PortVerdict::Inconclusive);
    }

    #[test]
    fn negligible_senders_are_ignored() {
        let mut e = PortSrcLoads::zeros(2, 1);
        e.add(1, 0, 0, 0.5); // below min_expected
        let o = PortSrcLoads::zeros(2, 1);
        let l = Localizer::default();
        assert_eq!(l.localize_port(&e, &o, 1, 0), PortVerdict::Inconclusive);
    }

    #[test]
    fn ring_pair_pins_the_cable() {
        // 4-leaf ring 0→1→2→3→0; cable fault at (leaf 1, vspine 0):
        // leaf 1 alarms (its ingress from spine 0 is cut) and leaf 2 alarms
        // (leaf 1's sprayed share via spine 0 is lost).
        let l = Localizer::default();
        let alarms = [(1u32, 0u32), (2u32, 0u32)];
        let loc = l.localize_ring(&alarms, |x| (x + 1) % 4);
        assert_eq!(loc.cables, vec![(1, 0)]);
        assert!(loc.unpaired.is_empty());
    }

    #[test]
    fn one_directional_fault_stays_unpaired() {
        let l = Localizer::default();
        let alarms = [(3u32, 2u32)];
        let loc = l.localize_ring(&alarms, |x| (x + 1) % 8);
        assert!(loc.cables.is_empty());
        assert_eq!(loc.unpaired, vec![(3, 2)]);
    }

    #[test]
    fn different_vspines_do_not_pair() {
        let l = Localizer::default();
        let alarms = [(1u32, 0u32), (2u32, 1u32)];
        let loc = l.localize_ring(&alarms, |x| (x + 1) % 4);
        assert!(loc.cables.is_empty());
        assert_eq!(loc.unpaired.len(), 2);
    }
}
