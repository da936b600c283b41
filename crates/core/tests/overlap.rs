//! Overlapping concurrent faults: a silent drop on one spine cable while a
//! destination-selective black hole burns on another. Detection must alarm
//! on both and ring localization must name both ports — neither fault may
//! mask the other (the paper's per-leaf independence argument: each leaf's
//! temporal-symmetry check needs no knowledge of what other links do).

use flowpulse::prelude::*;
use fp_collectives::ring::ring_allreduce;
use fp_collectives::runner::RunnerConfig;
use fp_netsim::config::SimConfig;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::HostId;
use fp_netsim::topology::{FatTreeSpec, Topology};

const LEAVES: u32 = 8;
const SPINES: u32 = 4;

/// The two concurrent faults, on distinct leaves AND distinct vspines so a
/// correct localization reports two independent unpaired ports (same-vspine
/// alarms at successor leaves would merge into a cable verdict instead).
const DROP_PORT: (u32, u32) = (2, 1);
const BLACKHOLE_PORT: (u32, u32) = (5, 3);

fn run_with_overlapping_faults(iters: u32) -> RawRun {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: LEAVES,
        spines: SPINES,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..LEAVES).map(HostId).collect();
    let sched = ring_allreduce(&hosts, 8 * 1024 * 1024);
    let (dl, dv) = DROP_PORT;
    let drop = FaultKind::SilentDrop { rate: 0.05 };
    let (bl, bv) = BLACKHOLE_PORT;
    let blackhole = FaultKind::DstBlackhole {
        dst_leaf: bl as u16,
    };
    let rcfg = RunnerConfig {
        iterations: iters,
        ..Default::default()
    };
    Scenario {
        at_iter: vec![
            (1, topo.downlink(dv, dl), FaultAction::Set(drop)),
            (1, topo.downlink(bv, bl), FaultAction::Set(blackhole)),
        ],
        ..Scenario::new(topo, sched, rcfg, SimConfig::default(), 9)
    }
    .run()
}

#[test]
fn overlapping_drop_and_dst_blackhole_are_both_localized() {
    let run = run_with_overlapping_faults(3);
    let mut monitor = Monitor::new_learned(1, Detector::new(0.01), 1);
    monitor.scan(&run.counters, true);

    // Both faulty iterations alarm, and both faulted ports show a
    // shortfall — the screaming black hole does not drown out the 5% drop.
    assert!(
        monitor.alarms.iter().any(|a| a.iter == 1),
        "no alarm in the first faulty iteration: {:?}",
        monitor.alarms
    );
    let ports = monitor.shortfall_ports(1);
    assert!(
        ports.contains(&DROP_PORT),
        "drop fault masked: shortfall ports {ports:?}"
    );
    assert!(
        ports.contains(&BLACKHOLE_PORT),
        "dst-blackhole fault masked: shortfall ports {ports:?}"
    );

    // Ring correlation names both ports, as independent unpaired verdicts
    // (unidirectional downlink faults have no corroborating pair).
    let loc = Localizer::default().localize_ring(&ports, |l| (l + 1) % LEAVES);
    let mut named = loc.cables.clone();
    named.extend(loc.unpaired.iter().copied());
    assert!(
        named.contains(&DROP_PORT),
        "drop cable not localized: {loc:?}"
    );
    assert!(
        named.contains(&BLACKHOLE_PORT),
        "dst-blackhole cable not localized: {loc:?}"
    );
}

#[test]
fn dst_blackhole_only_starves_its_own_leaf() {
    // Selectivity cross-check: the destination-selective black hole on
    // spine 3's cable to leaf 5 must not produce shortfalls at any other
    // leaf's ingress from that spine (a full blackhole there would starve
    // every leaf the spine serves via sprayed ring shares).
    let run = run_with_overlapping_faults(3);
    let mut monitor = Monitor::new_learned(1, Detector::new(0.01), 1);
    monitor.scan(&run.counters, true);
    let (bl, bv) = BLACKHOLE_PORT;
    for (leaf, v) in monitor.shortfall_ports(1) {
        if v == bv {
            assert_eq!(
                leaf, bl,
                "dst-selective fault leaked a shortfall to leaf {leaf} on vspine {v}"
            );
        }
    }
}
