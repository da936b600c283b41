//! Differential test of the delay-class pipes against the all-scheduler
//! engine they replaced.
//!
//! A class bound of 0 sends every constant-delay event to the scheduler —
//! exactly the engine before the class pipes existed — so running the same
//! scenario at bound 0, at a bound small enough to overflow, and at the
//! production bound must give identical results: which container an event
//! waits in is not observable. A child module of `sim` because the bound
//! is deliberately not configurable outside tests.

use super::*;
use crate::packet::CollectiveTag;
use crate::pipeline::MAX_DELAY_CLASSES;
use crate::topology::FatTreeSpec;
use proptest::prelude::*;

/// What one run must reproduce at every bound and on both backends.
type Outcome = (u64, SimTime, String, String);

/// Scheduler pushes, class-pipe pushes and classes discovered.
type Traffic = (u64, u64, usize);

/// One scenario on one backend at one class bound: a small random
/// fabric, a few tagged messages with odd tail sizes (one distinct
/// serialization delay each, so more delays than a small bound holds),
/// one random fault healed midway, PFC on or off.
#[allow(clippy::too_many_arguments)]
fn run(
    sched: SchedKind,
    bound: usize,
    seed: u64,
    leaves: u32,
    spines: u32,
    msgs: usize,
    fault_sel: u32,
    pfc_on: bool,
) -> (Outcome, Traffic) {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        hosts_per_leaf: 1,
        ..Default::default()
    });
    let n_links = topo.n_links() as u32;
    let mut cfg = SimConfig {
        sched: Some(sched),
        // Fail fast under black holes so drains stay cheap.
        rto_max_attempts: 6,
        ..SimConfig::default()
    };
    cfg.pfc.enabled = pfc_on;
    let mut sim = Simulator::new(topo, cfg, seed);
    sim.set_class_bound(bound);
    let tag = Some(CollectiveTag { job: 1, iter: 0 });
    for m in 0..msgs {
        let src = HostId((m as u32) % leaves);
        let dst = HostId((m as u32 + 1 + (seed as u32 % (leaves - 1))) % leaves);
        if src != dst {
            let bytes = 200_000 + 17 * m as u64;
            sim.post_message(src, dst, bytes, tag, Priority::MEASURED);
        }
    }
    let link = LinkId((seed as u32 >> 8) % n_links);
    let kind = match fault_sel {
        0 => Some(FaultKind::SilentDrop { rate: 0.2 }),
        1 => Some(FaultKind::SilentBlackhole),
        2 => Some(FaultKind::DstBlackhole { dst_leaf: 0 }),
        3 => Some(FaultKind::AdminDown),
        _ => None,
    };
    if let Some(kind) = kind {
        sim.schedule_fault(FaultEvent::set_bidir(SimTime::from_ns(2_000), link, kind));
        sim.schedule_fault(FaultEvent::clear_bidir(SimTime::from_ns(40_000), link));
    }
    let summary = sim.run();
    assert_eq!(summary.reason, RunReason::Drained);
    assert_eq!(sim.pending_events(), 0, "drained run left pending work");
    let ss = sim.sched_stats();
    assert_eq!(ss.pushes, ss.pops, "scheduler drained");
    assert_eq!(ss.class_pushes, ss.class_pops, "class pipes drained");
    assert_eq!(
        ss.pops + ss.class_pops,
        sim.stats.events - sim.stats.pipeline_deliveries + sim.stats.rto_stale_skips,
        "pop count decomposition"
    );
    (
        (
            summary.events,
            summary.end,
            format!("{:?}", sim.stats),
            // Entry by entry: the store's own `Debug` walks a hash index.
            format!(
                "{:?}",
                sim.counters
                    .keys()
                    .iter()
                    .map(|&(job, iter)| sim.counters.get(job, iter))
                    .collect::<Vec<_>>()
            ),
        ),
        (ss.pushes, ss.class_pushes, sim.timers.classes()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn class_bound_and_backend_never_change_results(
        seed in 0u64..1 << 48,
        leaves in 2u32..6,
        spines in 1u32..4,
        msgs in 1usize..6,
        fault_sel in 0u32..5,
        pfc_sel in 0u32..2,
    ) {
        let go = |sched, bound| run(sched, bound, seed, leaves, spines, msgs, fault_sel, pfc_sel == 1);
        let (want, (all_pushes, none, _)) = go(SchedKind::Wheel, 0);
        prop_assert_eq!(none, 0, "bound 0 must keep every event in the scheduler");
        for sched in [SchedKind::Heap, SchedKind::Wheel] {
            for bound in [0, 2, MAX_DELAY_CLASSES] {
                let (got, (pushes, class_pushes, classes)) = go(sched, bound);
                prop_assert_eq!(&got, &want, "diverged at {:?} bound {}", sched, bound);
                // Events only move between containers; none is elided.
                prop_assert_eq!(pushes + class_pushes, all_pushes);
                prop_assert!(classes <= bound);
                if bound == 2 {
                    // TxDone of a data packet, TxDone of an ACK, the RTO
                    // and the ACK flush are four delays already.
                    prop_assert_eq!(classes, 2);
                    prop_assert!(pushes > 2, "nothing overflowed at bound 2");
                }
            }
        }
    }
}

/// The production bound holds every delay of the default configuration
/// even through a retransmit storm that walks the whole backoff ladder:
/// only the two scheduled fault updates reach the scheduler.
#[test]
fn default_config_fits_the_production_bound() {
    let (_, (pushes, class_pushes, classes)) =
        run(SchedKind::Wheel, MAX_DELAY_CLASSES, 77, 4, 2, 3, 1, true);
    assert_eq!(pushes, 2, "only FaultUpdate set + clear are absolute-time");
    assert!(class_pushes > 1_000);
    assert!(classes > 4 && classes <= MAX_DELAY_CLASSES, "{classes}");
}
