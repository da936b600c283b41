//! The flow table retires a flow once nothing can touch it, and nothing
//! ever names a retired one.
//!
//! Messages go out in waves, each posted while the earlier ones are still
//! in flight, so posts retire flows in the middle of faults, PFC pauses,
//! admin-down drains, entropy quarantines and retransmit storms. Every
//! delivery, drop and timer dispatch looks its flow up in the table, and a
//! retired id indexes out of bounds, so a reference count that reaches
//! zero too early panics the run. Before each wave posts, every count is
//! checked against a recount of what names the flow; `run_sim` checks
//! that a drained run's flows are all done with nothing naming them, and a
//! post after the drain must then retire every one of them. A child module
//! of `sim` because it reads the counts.

use super::delay_class_tests::{run_sim, Scenario};
use super::head_timer_tests::scenario;
use super::*;
use crate::packet::NPRIO;
use proptest::prelude::*;

const SPRAYS: [spray::SprayPolicy; 7] = [
    spray::SprayPolicy::Adaptive,
    spray::SprayPolicy::LeastLoaded,
    spray::SprayPolicy::RoundRobin,
    spray::SprayPolicy::Ecmp,
    // Feedback backends: ECN echoes, timeout echoes and entropy recycling.
    spray::SprayPolicy::Prime,
    spray::SprayPolicy::Reps,
    spray::SprayPolicy::RepsFailover,
];

/// Every held flow's reference count is what names it — its packets on a
/// wire or in a queue and its pending timers — and no retired flow is
/// named at all.
pub(super) fn assert_refs_exact(sim: &Simulator) {
    let held = sim.flow_ids();
    let mut named = vec![0u32; held.len()];
    let mut name = |flow: FlowId| {
        assert!(held.contains(&flow), "retired flow {flow} is named");
        named[(flow - held.start) as usize] += 1;
    };
    sim.agenda.memo_for_each(&mut |_, _, due| match due {
        Due::Delivery(_, pkt) => name(pkt.flow()),
        Due::Event(EventKind::Rto { flow, .. } | EventKind::AckFlush { flow }) => name(flow),
        Due::Event(_) => {}
    });
    for l in &sim.links {
        let queued = (0..NPRIO).flat_map(|q| l.queued(q));
        l.current()
            .into_iter()
            .chain(queued)
            .for_each(|p| name(p.flow()));
    }
    let refs: Vec<u32> = held.clone().map(|id| sim.flow(id).refs).collect();
    assert_eq!(refs, named, "reference counts of flows {held:?}");
}

/// Run `sc` to drain and post one more message: the table must then hold
/// that message alone. Returns the ids the drained run held.
fn drain_then_post(sc: Scenario) -> std::ops::Range<FlowId> {
    let (mut sim, _, _) = run_sim(sc);
    let held = sim.flow_ids();
    let f = sim.post_message(HostId(0), HostId(1), 1, None, Priority::MEASURED);
    assert_eq!(f, held.end, "ids are handed out in posting order");
    assert_eq!(
        sim.flow_ids(),
        f..f + 1,
        "a drained run's flows outlived a post"
    );
    held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_event_names_a_retired_flow_and_a_drained_run_retires_all(
        seed in 0u64..1 << 48,
        shape in 0u32..27,
        msgs in 2usize..12,
        fault_sel in 0u32..5,
        spray_sel in 0usize..SPRAYS.len(),
        // Bits: three-level fabric, mixed priorities, recycle-entropy
        // verb, telemetry sampler, flapping fault, a timer per segment,
        // heap scheduler, the full backoff ladder; then the PFC setting.
        flags in 0u32..768,
    ) {
        let bit = |i: u32| flags & (1 << i) != 0;
        drain_then_post(Scenario {
            sched: if bit(6) { SchedKind::Heap } else { SchedKind::Wheel },
            per_segment_rto: bit(5),
            hosts_per_leaf: 1 + shape / 9,
            three_level: bit(0),
            waves: 2 + (seed % 3) as u32,
            flap: bit(4),
            rto_max_attempts: if bit(7) { 6 } else { 2 },
            pfc_sel: flags >> 8,
            spray: SPRAYS[spray_sel],
            mixed_prio: bit(1),
            recycle: bit(2),
            sample_ns: if bit(3) { 700 } else { 0 },
            ..Scenario::basic(seed, 2 + shape % 3, 1 + shape / 3 % 3, msgs, fault_sel)
        });
    }
}

/// The property above has teeth: over the timer corpus, posted in three
/// waves, most runs retire flows before they drain.
#[test]
fn waves_retire_flows_mid_run() {
    let retired_mid_run = (0..48)
        .filter(|&case| {
            let sc = scenario(case);
            let msgs = sc.msgs.max(6);
            drain_then_post(Scenario {
                msgs,
                waves: 3,
                ..sc
            })
            .start
                > 0
        })
        .count();
    assert!(retired_mid_run >= 24, "{retired_mid_run} of 48");
}
