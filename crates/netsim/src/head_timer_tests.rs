//! One first-attempt timer per flow against one per segment.
//!
//! `per_segment_rto` makes `next_fresh` arm every segment's timer the
//! moment it leaves — the transport before the head-of-line timer — so the
//! same scenario run both ways must agree on everything a run produces
//! except how many dead timers surfaced. A child module of `sim` because
//! that switch is deliberately test-only.

use super::delay_class_tests::{run, Scenario};
use super::*;
use crate::pipeline::MAX_DELAY_CLASSES;
use crate::rng::splitmix64;
use crate::topology::FatTreeSpec;

const SPRAYS: [spray::SprayPolicy; 6] = [
    spray::SprayPolicy::Adaptive,
    spray::SprayPolicy::LeastLoaded,
    // A pinned path: a black hole on it is retried until the flow gives up.
    spray::SprayPolicy::Ecmp,
    // Feedback backends: they hear of every timeout (`SprayEcho::Timeout`).
    spray::SprayPolicy::Prime,
    spray::SprayPolicy::Reps,
    spray::SprayPolicy::RepsFailover,
];

/// Scenario `case` of the corpus: every knob of the generator drawn from a
/// fixed stream, so a failure names a scenario that reruns.
fn scenario(case: u64) -> Scenario {
    let mut word = 0x7157_0f10 ^ case;
    let mut draw = |n: u64| {
        word = splitmix64(word);
        word % n
    };
    let (seed, leaves, spines) = (draw(1 << 48), 2 + draw(3) as u32, 1 + draw(3) as u32);
    let (msgs, fault_sel) = (1 + draw(9) as usize, draw(5) as u32);
    Scenario {
        hosts_per_leaf: 1 + draw(3) as u32,
        three_level: draw(4) == 0,
        pfc_sel: draw(3) as u32,
        spray: SPRAYS[draw(6) as usize],
        mixed_prio: draw(2) == 0,
        recycle: draw(4) == 0,
        sample_ns: [0, 700][draw(2) as usize],
        flap: draw(2) == 0,
        // 1: the second timeout is final; 6: the whole ladder.
        rto_max_attempts: [1, 2, 6][draw(3) as usize],
        ..Scenario::basic(seed, leaves, spines, msgs, fault_sel)
    }
}

#[test]
fn one_timer_per_flow_never_changes_results() {
    let (mut retransmits, mut flows_failed, mut pfc_pauses) = (0, 0, 0);
    for case in 0..48 {
        let sc = scenario(case);
        for sched in [SchedKind::Heap, SchedKind::Wheel] {
            let go = |per_segment_rto| {
                run(Scenario {
                    sched,
                    per_segment_rto,
                    ..sc
                })
            };
            let (want, each) = go(true);
            let (got, head) = go(false);
            assert_eq!(each.head_arms, 0, "case {case}: {sc:?}");
            assert!(got.rto_stale_skips < want.rto_stale_skips);
            assert_eq!(
                got.sans_stale_skips(),
                want.sans_stale_skips(),
                "case {case} on {sched:?}: {sc:?}"
            );
            // The first-attempt timers are the only events that moved.
            assert_eq!(
                head.pushes + head.class_pushes + each.data_pkts_sent,
                each.pushes + each.class_pushes,
                "case {case}: {sc:?}"
            );
            if each.classes < MAX_DELAY_CLASSES {
                // The RTO's own delay class pushed no other out.
                assert_eq!(head.pushes, each.pushes, "case {case}: {sc:?}");
            }
            assert!(head.head_arms < head.data_pkts_sent, "case {case}: {sc:?}");
            retransmits += head.retransmits;
            flows_failed += head.flows_failed;
            pfc_pauses += head.pfc_pauses;
        }
    }
    assert!(retransmits > 0, "no live timeout in the corpus");
    assert!(flows_failed > 0, "no flow gave up in the corpus");
    assert!(pfc_pauses > 0, "no sender was paused in the corpus");
}

fn sim() -> Simulator {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    });
    Simulator::new(topo, SimConfig::default(), 1)
}

/// A lone head-of-line timer is all that is pending once the segment is
/// lost: it must keep the run alive, fire at exactly `+rto`, and hand over
/// to the per-segment backoff ladder.
#[test]
fn one_segment_into_a_black_hole_climbs_the_ladder_alone() {
    let mut s = sim();
    s.cfg.rto_max_attempts = 3;
    let up = s.topo.host_up[0];
    s.apply_fault_now(up, FaultAction::Set(FaultKind::SilentBlackhole), false);
    let f = s.post_message(HostId(0), HostId(2), 1_000, None, Priority::MEASURED);
    // Each attempt is one serialization (`TxDone`, where the fault eats
    // it), then nothing but its timer.
    let mut fired = Vec::new();
    while s.step() {
        if s.pending_events() == 1 && s.link(up).current().is_none() {
            fired.push((s.stats.retransmits, s.sched_stats()));
        }
    }
    let rto = s.cfg.rto.as_ns();
    assert_eq!(s.stats.retransmits, 3);
    assert_eq!(s.stats.flows_failed, 1);
    assert_eq!(s.now().as_ns(), rto * (1 + 2 + 4 + 8), "5, 10, 20, 40 µs");
    let waits: Vec<_> = fired
        .iter()
        .map(|(retx, ss)| {
            (
                *retx,
                ss.head_arms - ss.head_pops,
                ss.class_pushes - ss.class_pops,
            )
        })
        .collect();
    assert_eq!(
        waits,
        [(0, 1, 0), (1, 0, 1), (2, 0, 1), (3, 0, 1)],
        "the first wait is on the head-of-line timer, the rest on backoff timers"
    );
    assert_eq!(s.stats.rto_stale_skips, 0);
    assert!(s.flows[f as usize].failed);
    assert_eq!(s.flows[f as usize].sent.capacity(), 0);
    assert_eq!(s.pending_events(), 0);
}

/// `run_until` short of the deadline must see the lone timer pending, not
/// a drained agenda.
#[test]
fn a_lone_head_timer_is_pending_work() {
    let mut s = sim();
    let up = s.topo.host_up[0];
    s.apply_fault_now(up, FaultAction::Set(FaultKind::SilentBlackhole), false);
    s.post_message(HostId(0), HostId(2), 1_000, None, Priority::MEASURED);
    let r = s.run_until(SimTime::from_ns(4_000));
    assert_eq!(r.reason, RunReason::TimeLimit);
    assert_eq!(s.pending_events(), 1);
    assert_eq!(s.stats.retransmits, 0);
    s.run_until(SimTime::from_ns(5_000));
    assert_eq!(s.stats.retransmits, 1, "due at exactly +rto");
}

/// A clean run arms a handful of timers per flow — a head that surfaces
/// moves on over everything acknowledged meanwhile, most of an RTO's worth
/// of segments — and every flow gives its slot log back.
#[test]
fn a_clean_run_arms_few_timers_and_frees_every_log() {
    let mut s = sim();
    for h in 0..4 {
        s.post_message(
            HostId(h),
            HostId((h + 1) % 4),
            1_000_000,
            None,
            Priority::MEASURED,
        );
    }
    s.run();
    let ss = s.sched_stats();
    assert_eq!(s.stats.retransmits, 0);
    assert_eq!(s.stats.data_pkts_sent, 4 * 245);
    assert_eq!(
        ss.head_arms, s.stats.rto_stale_skips,
        "every one died stale"
    );
    assert!(
        ss.head_arms * 25 < s.stats.data_pkts_sent,
        "{}",
        ss.head_arms
    );
    for f in &s.flows {
        assert!(f.fully_acked() && !f.rto_armed);
        assert_eq!(f.sent.capacity(), 0);
    }
}
