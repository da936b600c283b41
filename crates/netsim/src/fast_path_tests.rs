//! The uncontended-hop shortcut against the queued route it skips, and
//! pins on the host-NIC behaviour the shortcut must not disturb.
//!
//! `queued_route_only` sends every enqueue through `LinkState::push` +
//! `try_start_tx` — the engine before the shortcut existed — so the same
//! scenario run both ways must agree on everything a run produces. A child
//! module of `sim` because that switch is deliberately test-only.

use super::delay_class_tests::{run, Scenario};
use super::*;
use crate::packet::NPRIO;
use crate::topology::FatTreeSpec;
use proptest::prelude::*;

const SPRAYS: [spray::SprayPolicy; 6] = [
    spray::SprayPolicy::Adaptive,
    spray::SprayPolicy::LeastLoaded,
    spray::SprayPolicy::Ecmp,
    // Feedback backends: ECN marking sits on the enqueue path.
    spray::SprayPolicy::Prime,
    spray::SprayPolicy::Reps,
    spray::SprayPolicy::RepsFailover,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn direct_and_queued_routes_never_differ(
        seed in 0u64..1 << 48,
        leaves in 2u32..5,
        spines in 1u32..4,
        hosts_per_leaf in 1u32..4,
        msgs in 1usize..10,
        fault_sel in 0u32..5,
        pfc_sel in 0u32..3,
        spray_sel in 0usize..SPRAYS.len(),
        // Bits: three-level fabric, mixed priorities, recycle-entropy
        // verb, telemetry sampler (the vendored proptest stops at six
        // strategies per test).
        flags in 0u32..16,
    ) {
        let go = |queued_route_only| run(Scenario {
            queued_route_only,
            hosts_per_leaf,
            three_level: flags & 1 != 0,
            pfc_sel,
            spray: SPRAYS[spray_sel],
            mixed_prio: flags & 2 != 0,
            recycle: flags & 4 != 0,
            sample_ns: if flags & 8 != 0 { 700 } else { 0 },
            ..Scenario::basic(seed, leaves, spines, msgs, fault_sel)
        });
        let (want, slow) = go(true);
        let (got, fast) = go(false);
        prop_assert_eq!(slow.direct_starts, 0);
        prop_assert!(fast.direct_starts > 0, "shortcut never taken");
        prop_assert_eq!(&got, &want, "routes diverged");
        // Same dispatches: no event moved container, none was elided.
        prop_assert_eq!(
            (fast.pushes, fast.class_pushes, fast.classes),
            (slow.pushes, slow.class_pushes, slow.classes)
        );
    }
}

/// PFC is cold in every benchmark workload, so make sure the generator's
/// tiny thresholds really pause and the routes still agree while paused
/// classes keep egresses contended.
#[test]
fn routes_agree_through_a_pfc_pause_storm() {
    let sc = Scenario {
        hosts_per_leaf: 4,
        pfc_sel: 2,
        mixed_prio: true,
        sample_ns: 500,
        ..Scenario::basic(0x5eed, 2, 2, 9, 4)
    };
    let (want, _) = run(Scenario {
        queued_route_only: true,
        ..sc
    });
    let (got, fast) = run(sc);
    assert_eq!(got, want);
    assert!(fast.pfc_pauses > 0, "tiny XOFF never crossed");
    assert!(fast.direct_starts > 0);
}

fn sim(queued_route_only: bool) -> Simulator {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    });
    let mut s = Simulator::new(topo, SimConfig::default(), 1);
    s.queued_route_only = queued_route_only;
    s
}

const MTU: u64 = 4096;

fn label(p: &Packet) -> String {
    match p.kind {
        PacketKind::Data { flow, seq } => format!("d{flow}.{seq}"),
        PacketKind::Ack { flow, .. } => format!("a{flow}"),
    }
}

fn queued(s: &Simulator, link: LinkId) -> [Vec<String>; NPRIO] {
    std::array::from_fn(|q| s.links[link.idx()].queued(q).map(label).collect())
}

fn on_wire(s: &Simulator, link: LinkId) -> Option<String> {
    s.links[link.idx()].current().map(label)
}

/// Step until `n` more packets have started serializing on `link`.
fn next_starts(s: &mut Simulator, link: LinkId, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut last = on_wire(s, link);
    while out.len() < n && s.step() {
        let now = on_wire(s, link);
        if now != last {
            out.extend(now.clone());
            last = now;
        }
    }
    out
}

fn ack_of(seq: u32) -> AckBlock {
    AckBlock {
        cum: 0,
        base: seq,
        mask: 1,
        ce_mask: 0,
    }
}

/// One `next_fresh` pull at host 0: what it yielded and the `active` deque
/// it left behind.
fn pull(s: &mut Simulator, q: usize) -> (Option<String>, Vec<u32>) {
    let (hosts, mut nic) = s.nic();
    let got = hosts.next_fresh(&mut nic, HostId(0), q).as_ref().map(label);
    (got, Vec::from(s.hosts.active[0].clone()))
}

/// The host NIC drains its active flows round-robin *per class*, and a
/// pull that stops at the first match leaves the deque rotated — later
/// pulls (and with them spray decisions) see that order. The shortcut
/// never calls `next_fresh`; this pins what it must leave alone.
#[test]
fn next_fresh_rotation_with_mixed_priorities_and_exhausted_flows() {
    let mut s = sim(false);
    let h = HostId(0);
    let post =
        |s: &mut Simulator, segs: u64, prio| s.post_message(h, HostId(2), segs * MTU, None, prio);
    // The first post starts its segment 0 at once; the NIC is busy for
    // the other three.
    assert_eq!(post(&mut s, 3, Priority::MEASURED), 0);
    assert_eq!(post(&mut s, 1, Priority::CONTROL), 1);
    assert_eq!(post(&mut s, 2, Priority::BACKGROUND), 2);
    assert_eq!(post(&mut s, 1, Priority::MEASURED), 3);
    assert_eq!(on_wire(&s, s.topo.host_up[0]).as_deref(), Some("d0.0"));
    let some = |l: &str| Some(l.to_string());
    // Stops at flow 1: flow 0 has rotated behind 2 and 3; 1 is exhausted.
    assert_eq!(pull(&mut s, 0), (some("d1.0"), vec![2, 3, 0]));
    // No class-0 flow left: a full rotation restores the order.
    assert_eq!(pull(&mut s, 0), (None, vec![2, 3, 0]));
    // Stops at 3 (exhausted by this pull, dropped); 2 rotated behind 0.
    assert_eq!(pull(&mut s, 1), (some("d3.0"), vec![0, 2]));
    // Flow 0 still has a segment left: back of the deque.
    assert_eq!(pull(&mut s, 1), (some("d0.1"), vec![2, 0]));
    assert_eq!(pull(&mut s, 1), (some("d0.2"), vec![2]));
    assert_eq!(pull(&mut s, 1), (None, vec![2]));
    // A failed flow is purged by the next pass, whatever its class.
    s.flows[2].failed = true;
    assert_eq!(pull(&mut s, 0), (None, vec![]));
    assert_eq!(pull(&mut s, 2), (None, vec![]));
}

/// An ACK and an RTO retransmit handed to a host uplink that is busy,
/// idle, or paused: what is queued, what is on the wire and the order
/// things then leave in — on both routes.
#[test]
fn ack_and_retransmit_order_on_a_busy_idle_or_paused_host_uplink() {
    for queued_route_only in [true, false] {
        let why = format!("queued_route_only={queued_route_only}");
        let up = |s: &Simulator| s.topo.host_up[0];

        // Busy: both wait their turn, ACK (class 0) first, then the
        // retransmit ahead of the flow's fresh segments.
        let mut s = sim(queued_route_only);
        let f = s.post_message(HostId(0), HostId(2), 3 * MTU, None, Priority::MEASURED);
        let g = s.post_message(HostId(2), HostId(0), MTU, None, Priority::MEASURED);
        s.send_ack(g, ack_of(0));
        s.handle_rto(f, 0, 0);
        let l = up(&s);
        assert_eq!(on_wire(&s, l).as_deref(), Some("d0.0"), "{why}");
        assert_eq!(
            queued(&s, l),
            [vec!["a1".to_string()], vec!["d0.0".into()], vec![]],
            "{why}"
        );
        assert_eq!(
            next_starts(&mut s, l, 4),
            ["a1", "d0.0", "d0.1", "d0.2"],
            "{why}"
        );

        // Idle with nothing to pull: each goes straight onto the wire and
        // the queues stay empty.
        let mut s = sim(queued_route_only);
        let g = s.post_message(HostId(2), HostId(0), MTU, None, Priority::MEASURED);
        let l = up(&s);
        s.send_ack(g, ack_of(0));
        assert_eq!(on_wire(&s, l).as_deref(), Some("a0"), "{why}");
        assert_eq!(s.links[l.idx()].queued_pkts(), 0, "{why}");
        let mut s = sim(queued_route_only);
        let f = s.post_message(HostId(0), HostId(2), MTU, None, Priority::MEASURED);
        let l = up(&s);
        assert_eq!(
            next_starts(&mut s, l, 1),
            Vec::<String>::new(),
            "{why}: one segment, then idle"
        );
        s.flows[f].acked = crate::bitset::BitSet::new(1);
        s.handle_rto(f, 0, 0);
        assert_eq!(on_wire(&s, l).as_deref(), Some("d0.0"), "{why}");
        assert_eq!(s.links[l.idx()].queued_pkts(), 0, "{why}");

        // Paused classes. MEASURED paused while busy: the ACK overtakes,
        // the retransmit and the flow's fresh segments wait, BACKGROUND
        // fills the gap; on resume the retransmit leads.
        let mut s = sim(queued_route_only);
        let f = s.post_message(HostId(0), HostId(2), 3 * MTU, None, Priority::MEASURED);
        let g = s.post_message(HostId(2), HostId(0), MTU, None, Priority::MEASURED);
        let l = up(&s);
        s.handle_pfc(l, Priority::MEASURED.0, true);
        s.send_ack(g, ack_of(0));
        s.handle_rto(f, 0, 0);
        let b = s.post_message(HostId(0), HostId(3), 2 * MTU, None, Priority::BACKGROUND);
        assert_eq!((f, g, b), (0, 1, 2));
        assert_eq!(next_starts(&mut s, l, 3), ["a1", "d2.0", "d2.1"], "{why}");
        assert_eq!(Vec::from(s.hosts.active[0].clone()), [0], "{why}");
        // Run the rest dry: the uplink must sit idle with the retransmit
        // still queued.
        s.run_until(SimTime::from_ns(4_000));
        assert_eq!(on_wire(&s, l), None, "{why}");
        assert_eq!(
            queued(&s, l),
            [vec![], vec!["d0.0".to_string()], vec![]],
            "{why}"
        );
        s.handle_pfc(l, Priority::MEASURED.0, false);
        assert_eq!(on_wire(&s, l).as_deref(), Some("d0.0"), "{why}");
        assert_eq!(next_starts(&mut s, l, 2), ["d0.1", "d0.2"], "{why}");

        // CONTROL paused on an idle uplink: the ACK must wait although
        // the transmitter is free, and a retransmit passes it.
        let mut s = sim(queued_route_only);
        let f = s.post_message(HostId(0), HostId(2), MTU, None, Priority::MEASURED);
        let g = s.post_message(HostId(2), HostId(0), MTU, None, Priority::MEASURED);
        let l = up(&s);
        s.run_until(SimTime::from_ns(4_000));
        assert_eq!(on_wire(&s, l), None, "{why}");
        s.handle_pfc(l, Priority::CONTROL.0, true);
        s.send_ack(g, ack_of(0));
        assert_eq!(on_wire(&s, l), None, "{why}: paused class started");
        s.flows[f].acked = crate::bitset::BitSet::new(1);
        s.handle_rto(f, 0, 0);
        assert_eq!(on_wire(&s, l).as_deref(), Some("d0.0"), "{why}");
        assert_eq!(
            queued(&s, l),
            [vec!["a1".to_string()], vec![], vec![]],
            "{why}"
        );
    }
}
