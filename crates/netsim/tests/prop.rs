//! Property-based tests for the simulator substrate.

use fp_netsim::bitset::BitSet;
use fp_netsim::packet::AckBlock;
use fp_netsim::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialization time is monotone in size and never zero for nonzero
    /// payloads.
    #[test]
    fn ser_time_monotone(bytes in 1u64..10_000_000, gbps in 1u64..1600) {
        let bw = Bandwidth::from_gbps(gbps);
        let t1 = bw.ser_time(bytes);
        let t2 = bw.ser_time(bytes + 1);
        prop_assert!(t2 >= t1);
        prop_assert!(t1.as_ns() > 0);
    }

    /// bytes_in is a near-inverse of ser_time (within one packet's worth).
    #[test]
    fn ser_time_roundtrip(bytes in 1u64..1_000_000, gbps in 1u64..800) {
        let bw = Bandwidth::from_gbps(gbps);
        let back = bw.bytes_in(bw.ser_time(bytes));
        prop_assert!(back >= bytes);
        // ceil rounding adds at most one ns worth of bytes
        prop_assert!(back - bytes <= gbps * 1_000_000_000 / 8_000_000_000 + 1);
    }

    /// BitSet counts are exact under arbitrary set sequences.
    #[test]
    fn bitset_count_matches_reference(len in 1u32..300, idxs in proptest::collection::vec(0u32..300, 0..100)) {
        let mut b = BitSet::new(len);
        let mut reference = std::collections::HashSet::new();
        for i in idxs {
            if i < len {
                b.set(i);
                reference.insert(i);
            }
        }
        prop_assert_eq!(b.count() as usize, reference.len());
        for i in 0..len {
            prop_assert_eq!(b.get(i), reference.contains(&i));
        }
        prop_assert_eq!(b.full(), reference.len() == len as usize);
    }

    /// AckBlock round-trips arbitrary seq sets within a 64-window.
    #[test]
    fn ackblock_roundtrip(base in 0u32..1_000_000, offsets in proptest::collection::btree_set(0u32..64, 1..64)) {
        let mut mask = 0u64;
        for &o in &offsets {
            mask |= 1 << o;
        }
        let b = AckBlock { cum: 0, base, mask, ce_mask: 0 };
        let got: Vec<u32> = b.seqs().collect();
        let want: Vec<u32> = offsets.iter().map(|o| base + o).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(b.count() as usize, offsets.len());
    }

    /// Fat-tree construction invariants hold for arbitrary specs.
    #[test]
    fn topology_invariants(leaves in 2u32..20, spines in 1u32..10, hosts in 1u32..4, par in 1u32..3) {
        let t = Topology::fat_tree(FatTreeSpec {
            leaves, spines, hosts_per_leaf: hosts, parallel_links: par,
            ..Default::default()
        });
        prop_assert_eq!(t.n_hosts() as u32, leaves * hosts);
        prop_assert_eq!(t.n_vspines() as u32, spines * par);
        prop_assert_eq!(t.n_links() as u32, 2 * (leaves * hosts + leaves * spines * par));
        // peer is an involution that reverses direction
        for i in 0..t.n_links() {
            let p = t.peer[i];
            prop_assert_eq!(t.peer[p.idx()].idx(), i);
            prop_assert_eq!(t.links[i].src, t.links[p.idx()].dst);
        }
        // every host's leaf is consistent with hosts_of_leaf
        for l in 0..leaves {
            for h in t.hosts_of_leaf(l) {
                prop_assert_eq!(t.leaf_of(h), l);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spray backend returns an in-range candidate index for
    /// arbitrary packet identities, candidate counts and feedback
    /// histories — the contract `spray_among` relies on.
    #[test]
    fn every_backend_picks_valid_candidates(
        policy_idx in 0usize..8,
        n in 1usize..9,
        src in 0u32..64,
        dst in 0u32..64,
        flow in 0u32..1_000_000,
        seq in 0u32..10_000,
        seed in 0u64..1000,
        data_bit in 0u32..2,
        // Each entry encodes (seq, echo kind) as seq * 3 + kind.
        echoes in proptest::collection::vec(0u32..192, 0..16),
    ) {
        use fp_netsim::spray::{make_sprayer, SprayCtx, SprayEcho, SprayPolicy};
        use fp_netsim::ids::LinkId;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let policies = [
            SprayPolicy::Random,
            SprayPolicy::RoundRobin,
            SprayPolicy::Adaptive,
            SprayPolicy::LeastLoaded,
            SprayPolicy::Ecmp,
            SprayPolicy::Prime,
            SprayPolicy::Reps,
            SprayPolicy::RepsFailover,
        ];
        let policy = policies[policy_idx];
        let data = data_bit == 1;
        let cands: Vec<LinkId> = (0..n as u32).map(LinkId).collect();
        let loads: Vec<u64> = vec![0; n];
        let slots: Vec<u32> = (0..n as u32).collect();
        let mut sprayer = make_sprayer(policy, n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cursor = 0u64;
        // Arbitrary feedback history first (ACK/ECN/timeout per seq) —
        // the pick must stay total whatever state it built up.
        for coded in echoes {
            let echo = [SprayEcho::Ack, SprayEcho::Ecn, SprayEcho::Timeout][coded as usize % 3];
            sprayer.on_feedback(flow, (src, dst), coded / 3, echo);
        }
        for round in 0..16u32 {
            let ctx = SprayCtx {
                flow,
                src,
                dst,
                seq: seq.wrapping_add(round),
                data,
                cands: &cands,
                loads: &loads,
                slots: &slots,
            };
            let idx = sprayer.pick(&ctx, &mut cursor, &mut rng);
            prop_assert!(idx < n, "{policy:?} picked {idx} of {n}");
        }
    }
}

proptest! {
    // Packet-level runs are slower: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every message is delivered exactly once (unique bytes) regardless of
    /// size, endpoints and spray policy, on a clean fabric.
    #[test]
    fn delivery_is_exact(
        bytes in 1u64..2_000_000,
        src in 0u32..8,
        dst in 0u32..8,
        policy_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        prop_assume!(src != dst);
        let policies = [
            SprayPolicy::Adaptive,
            SprayPolicy::LeastLoaded,
            SprayPolicy::RoundRobin,
            SprayPolicy::Random,
            SprayPolicy::Ecmp,
            SprayPolicy::Prime,
            SprayPolicy::Reps,
            SprayPolicy::RepsFailover,
        ];
        let topo = Topology::fat_tree(FatTreeSpec { leaves: 8, spines: 4, ..Default::default() });
        let cfg = SimConfig { spray: policies[policy_idx], ..Default::default() };
        let mut sim = Simulator::new(topo, cfg, seed);
        let f = sim.post_message(HostId(src), HostId(dst), bytes, None, Priority::MEASURED);
        sim.run();
        prop_assert!(sim.flow(f).is_complete());
        prop_assert_eq!(sim.stats.bytes_delivered, bytes);
        prop_assert_eq!(sim.stats.total_drops(), 0);
    }

    /// Under a random silent drop rate < 1, transport still delivers every
    /// byte exactly once (retransmission correctness).
    #[test]
    fn lossy_link_still_delivers_exactly_once(
        rate in 0.01f64..0.6,
        seed in 0u64..500,
    ) {
        let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 2, ..Default::default() });
        let mut sim = Simulator::new(topo, SimConfig::default(), seed);
        let bad = sim.topo.downlink(0, 3);
        sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentDrop { rate }), false);
        let bytes = 500_000u64;
        let f = sim.post_message(HostId(0), HostId(3), bytes, None, Priority::MEASURED);
        sim.run();
        prop_assert!(sim.flow(f).is_complete());
        // Unique delivered payload equals the message exactly, despite
        // retransmissions and duplicates.
        prop_assert_eq!(sim.stats.bytes_delivered, bytes);
    }

    /// Tagged counter totals equal delivered tagged payload (counters see
    /// each delivered data packet exactly once, at one leaf).
    #[test]
    fn counters_conserve_bytes(
        bytes in 4096u64..1_000_000,
        seed in 0u64..500,
    ) {
        let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 2, ..Default::default() });
        let mut sim = Simulator::new(topo, SimConfig::default(), seed);
        let tag = CollectiveTag { job: 3, iter: 0 };
        sim.post_message(HostId(1), HostId(3), bytes, Some(tag), Priority::MEASURED);
        sim.run();
        let c = sim.counters.get(3, 0).unwrap();
        prop_assert_eq!(c.total_bytes(), bytes);
        // ...and it all landed at the destination's leaf.
        prop_assert_eq!(c.leaf_ports(3).iter().sum::<u64>(), bytes);
    }

    /// The pluggable backends conserve packets under a lossy cable and
    /// PFC backpressure: an incast onto one leaf (xoff/xon cycling) plus
    /// a silent drop on a shared uplink, and every flow still delivers
    /// its payload exactly once — entropy recycling, epoch bumps and
    /// static hashing never lose or duplicate a byte.
    #[test]
    fn pluggable_backends_deliver_exactly_under_loss_and_pfc(
        policy_idx in 0usize..4,
        rate in 0.05f64..0.45,
        seed in 0u64..500,
    ) {
        let policies = [
            SprayPolicy::Ecmp,
            SprayPolicy::Prime,
            SprayPolicy::Reps,
            SprayPolicy::RepsFailover,
        ];
        let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 2, ..Default::default() });
        let cfg = SimConfig { spray: policies[policy_idx], ..Default::default() };
        let mut sim = Simulator::new(topo, cfg, seed);
        let bad = sim.topo.uplink(0, 1);
        sim.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentDrop { rate }), false);
        // Incast: three senders converge on host 3 (PFC pause churn at its
        // leaf) while host 0's flow also crosses the lossy uplink.
        let bytes = 300_000u64;
        let mut total = 0u64;
        for src in 0..3u32 {
            sim.post_message(HostId(src), HostId(3), bytes, None, Priority::MEASURED);
            total += bytes;
        }
        sim.post_message(HostId(3), HostId(0), bytes, None, Priority::MEASURED);
        total += bytes;
        sim.run();
        prop_assert!(sim.all_flows_complete());
        prop_assert_eq!(sim.stats.bytes_delivered, total);
    }

    /// Admin-down uplinks are never used, whatever the spray policy.
    #[test]
    fn admin_down_is_respected(seed in 0u64..200, v in 0u32..4) {
        let topo = Topology::fat_tree(FatTreeSpec { leaves: 4, spines: 4, ..Default::default() });
        let mut sim = Simulator::new(topo, SimConfig::default(), seed);
        let up = sim.topo.uplink(0, v);
        sim.apply_fault_now(up, FaultAction::Set(FaultKind::AdminDown), true);
        sim.post_message(HostId(0), HostId(2), 400_000, None, Priority::MEASURED);
        sim.run();
        prop_assert!(sim.all_flows_complete());
        prop_assert_eq!(sim.link(up).txed_pkts, 0);
    }
}
