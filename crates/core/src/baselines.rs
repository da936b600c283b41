//! Baseline detectors FlowPulse is compared against.
//!
//! * [`SpatialSymmetryDetector`] — the "obvious" APS-fabric check (paper
//!   §1): in a healthy non-blocking fabric all of a leaf's spine-ingress
//!   ports should carry ~equal load, so flag any port that strays from the
//!   leaf's mean. Its fatal flaw, which E6 demonstrates: *pre-existing*
//!   faults permanently break spatial symmetry, so in a realistic fabric it
//!   alarms forever and cannot see a *new* fault on top.
//! * [`run_probe_mesh`] — a Pingmesh-style active prober: rounds of small
//!   end-to-end probes between all host pairs. It can find silent faults,
//!   but pays injected-traffic overhead and needs many probes per faulty
//!   path because each sprayed probe only crosses a given link with
//!   probability 1/s (paper §3: probing struggles exactly when links are
//!   loaded and BERs bite large flows).

use crate::model::PortLoads;
use fp_netsim::ids::HostId;
use fp_netsim::packet::Priority;
use fp_netsim::sim::Simulator;
use serde::{Deserialize, Serialize};

/// A spatial-symmetry violation at one port.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct SpatialAlarm {
    /// Leaf raising the alarm.
    pub(crate) leaf: u32,
    /// Offending ingress port.
    pub(crate) vspine: u32,
    /// Port load relative to the leaf's mean, minus one (signed).
    pub(crate) rel_to_mean: f64,
}

/// Flags ports deviating from their leaf's mean load by more than 1 %,
/// the threshold FlowPulse itself runs at.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SpatialSymmetryDetector;

/// Allowed relative deviation from the leaf mean.
const SPATIAL_THRESHOLD: f64 = 0.01;
/// Leaves with mean load below this many bytes are skipped.
const SPATIAL_MIN_MEAN: f64 = 1.0;

impl SpatialSymmetryDetector {
    /// Check one iteration's observed loads — no model, no history.
    pub fn check(&self, obs: &PortLoads) -> Vec<SpatialAlarm> {
        let mut out = Vec::new();
        for leaf in 0..obs.n_leaves as u32 {
            let ports = obs.leaf(leaf);
            let mean = ports.iter().sum::<f64>() / ports.len().max(1) as f64;
            if mean < SPATIAL_MIN_MEAN {
                continue;
            }
            for (v, &p) in ports.iter().enumerate() {
                let rel = p / mean - 1.0;
                if rel.abs() > SPATIAL_THRESHOLD {
                    out.push(SpatialAlarm {
                        leaf,
                        vspine: v as u32,
                        rel_to_mean: rel,
                    });
                }
            }
        }
        out
    }
}

/// Bytes per probe: one MTU, since silent faults are sampled per packet
/// and bigger probes only add overhead.
const PROBE_BYTES: u64 = 4096;
/// Probes each ordered host pair sends per round.
const PROBES_PER_PAIR: u32 = 4;

/// What a probe campaign found.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct ProbeReport {
    /// Probes injected.
    pub(crate) probes_sent: u64,
    /// Probe payload bytes injected into the fabric (the overhead FlowPulse
    /// avoids entirely).
    pub bytes_injected: u64,
    /// Any probe experienced loss (retransmission or abandonment).
    pub detected: bool,
    /// Destination leaves whose probes saw loss, with loss counts —
    /// the prober's (coarse) localization signal.
    pub(crate) lossy_dst_leaves: Vec<(u32, u32)>,
}

/// Run `rounds` of a probe campaign on `sim` (which may already carry
/// faults); each round sends a few one-MTU probes between every ordered
/// host pair. Probes run at background priority so they contend like real
/// probe traffic. Each round is tallied once it drains, before the next
/// one posts: a post retires the flows that finished.
pub fn run_probe_mesh(sim: &mut Simulator, rounds: u32) -> ProbeReport {
    let n = sim.topo.n_hosts() as u32;
    let mut probes = 0u64;
    let mut lossy: std::collections::BTreeMap<u32, u32> = Default::default();
    for _ in 0..rounds {
        let first = sim.flow_ids().end;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                for _ in 0..PROBES_PER_PAIR {
                    sim.post_message(
                        HostId(src),
                        HostId(dst),
                        PROBE_BYTES,
                        None,
                        Priority::BACKGROUND,
                    );
                    probes += 1;
                }
            }
        }
        sim.run();
        for id in first..sim.flow_ids().end {
            let f = sim.flow(id);
            if f.retx > 0 || f.failed {
                *lossy.entry(sim.topo.leaf_of(f.dst)).or_default() += 1;
            }
        }
    }
    ProbeReport {
        probes_sent: probes,
        bytes_injected: probes * PROBE_BYTES,
        detected: !lossy.is_empty(),
        lossy_dst_leaves: lossy.into_iter().collect(),
    }
}

/// Links missing fewer packets than this are ignored by a counter sweep
/// (absorbs in-flight skew when sweeping a live fabric).
const MIN_MISSING_PKTS: u64 = 2;
/// Bytes of counter state reported per directed link per sweep.
const BYTES_PER_LINK_REPORT: u64 = 16;

/// Result of one centralized counter sweep.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct CounterSweepReport {
    /// Links whose transmit counter exceeds the far end's receive counter,
    /// with the missing-packet count.
    pub suspect_links: Vec<(u32, u64)>,
    /// Counter state moved to the collector for this sweep.
    pub(crate) collection_bytes: u64,
    /// Links polled.
    pub links_polled: u64,
}

/// Perform one centralized sweep over `sim`'s link counters: the
/// counter-aggregation baseline (LossRadar/Everflow-style, paper §1/§3),
/// which collects every link's tx/rx counters at a central point and flags
/// links whose ends disagree.
///
/// It *can* see silent drops — when the counters themselves are honest,
/// which the paper points out is not a given ("the counters themselves
/// might be incorrect because of a hardware fault"). Its structural cost is
/// what FlowPulse avoids: every sweep moves `O(links)` counter state to a
/// central collector, with detection latency bounded by the sweep period.
pub fn sweep_link_counters(sim: &Simulator) -> CounterSweepReport {
    let mut suspects = Vec::new();
    let n = sim.topo.n_links();
    for i in 0..n {
        let id = fp_netsim::ids::LinkId(i as u32);
        let l = sim.link(id);
        let missing = l
            .txed_pkts
            .saturating_sub(l.delivered_pkts + l.queued_pkts() as u64);
        if missing >= MIN_MISSING_PKTS {
            suspects.push((i as u32, missing));
        }
    }
    CounterSweepReport {
        suspect_links: suspects,
        collection_bytes: n as u64 * BYTES_PER_LINK_REPORT,
        links_polled: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netsim::config::SimConfig;
    use fp_netsim::fault::{FaultAction, FaultKind};
    use fp_netsim::topology::{FatTreeSpec, Topology};

    #[test]
    fn spatial_detector_flags_imbalance() {
        let d = SpatialSymmetryDetector;
        let obs = PortLoads {
            n_leaves: 1,
            n_vspines: 4,
            bytes: vec![100.0, 100.0, 100.0, 80.0],
        };
        let alarms = d.check(&obs);
        // The short port deviates -16% from mean 95; the others +5%.
        assert!(alarms.iter().any(|a| a.vspine == 3 && a.rel_to_mean < 0.0));
        assert_eq!(alarms.len(), 4, "all ports stray from the skewed mean");
    }

    #[test]
    fn spatial_detector_passes_balance() {
        let d = SpatialSymmetryDetector;
        let obs = PortLoads {
            n_leaves: 2,
            n_vspines: 2,
            bytes: vec![100.0, 100.0, 0.0, 0.0], // idle leaf skipped
        };
        assert!(d.check(&obs).is_empty());
    }

    #[test]
    fn spatial_detector_false_positives_on_preexisting_faults() {
        // The paper's core criticism: a leaf with one admin-down ingress
        // port looks permanently asymmetric.
        let d = SpatialSymmetryDetector;
        let obs = PortLoads {
            n_leaves: 1,
            n_vspines: 4,
            bytes: vec![133.3, 133.3, 133.3, 0.0], // port 3 routed around
        };
        assert!(!d.check(&obs).is_empty());
    }

    #[test]
    fn probe_mesh_finds_a_blackhole() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 7);
        let bad = sim.topo.downlink(0, 2);
        sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentBlackhole), false);
        let report = run_probe_mesh(&mut sim, 1);
        assert!(report.detected);
        // Loss concentrates on destination leaf 2.
        let worst = report
            .lossy_dst_leaves
            .iter()
            .max_by_key(|(_, c)| *c)
            .unwrap();
        assert_eq!(worst.0, 2);
        assert!(report.bytes_injected > 0);
    }

    #[test]
    fn probe_mesh_clean_fabric_is_silent() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 8);
        let report = run_probe_mesh(&mut sim, 1);
        assert!(!report.detected);
        assert_eq!(report.probes_sent, (4 * 3 * 4) as u64);
    }

    #[test]
    fn counter_sweep_pins_the_lossy_link() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 21);
        let bad = sim.topo.downlink(1, 3);
        sim.apply_fault_now(
            bad,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.1 }),
            false,
        );
        sim.post_message(
            fp_netsim::ids::HostId(0),
            fp_netsim::ids::HostId(3),
            2_000_000,
            None,
            fp_netsim::packet::Priority::MEASURED,
        );
        sim.run();
        let rep = sweep_link_counters(&sim);
        assert_eq!(rep.suspect_links.len(), 1);
        assert_eq!(rep.suspect_links[0].0, bad.0);
        assert!(rep.suspect_links[0].1 > 0);
        assert_eq!(rep.links_polled as usize, sim.topo.n_links());
        assert!(rep.collection_bytes > 0);
    }

    #[test]
    fn counter_sweep_clean_fabric_is_silent() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 22);
        sim.post_message(
            fp_netsim::ids::HostId(1),
            fp_netsim::ids::HostId(2),
            1_000_000,
            None,
            fp_netsim::packet::Priority::MEASURED,
        );
        sim.run();
        let rep = sweep_link_counters(&sim);
        assert!(rep.suspect_links.is_empty(), "{:?}", rep.suspect_links);
    }

    #[test]
    fn probe_mesh_can_miss_low_rate_faults() {
        // A 1% silent drop often evades a small probe budget — the paper's
        // argument for passive monitoring. With 48 probes crossing the
        // faulty link with prob 1/2 (2 spines), expected hits ~0.24.
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 11);
        let bad = sim.topo.downlink(0, 2);
        sim.apply_fault_now(
            bad,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.01 }),
            false,
        );
        let report = run_probe_mesh(&mut sim, 1);
        // Not asserting a miss (it's stochastic) — asserting the *budget*
        // accounting exists so harnesses can compare detection probability
        // per injected byte.
        assert_eq!(report.probes_sent, 48);
    }
}
