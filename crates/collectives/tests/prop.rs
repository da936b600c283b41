//! Property-based tests for collective schedules.

use fp_collectives::prelude::*;
use fp_netsim::ids::HostId;
use proptest::prelude::*;

fn hosts(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring-AllReduce structural invariants for arbitrary sizes.
    #[test]
    fn ring_allreduce_invariants(n in 2u32..40, bytes in 64u64..10_000_000) {
        prop_assume!(bytes >= n as u64);
        let s = ring_allreduce(&hosts(n), bytes);
        prop_assert!(s.validate().is_ok());
        prop_assert_eq!(s.n_steps(), 2 * (n - 1));
        prop_assert_eq!(s.transfers.len() as u32, 2 * (n - 1) * n);
        // Every stage moves exactly the full buffer once (all N chunks).
        for st in 0..s.n_steps() {
            let stage_bytes: u64 = s.transfers.iter()
                .filter(|t| t.step == st)
                .map(|t| t.bytes)
                .sum();
            prop_assert_eq!(stage_bytes, bytes);
        }
        // Per-node send volume = 2(N−1)/N · S, exactly (chunk partition).
        let v0: u64 = s.transfers.iter()
            .filter(|t| t.src == HostId(0))
            .map(|t| t.bytes)
            .sum();
        let total: u64 = s.total_bytes();
        prop_assert_eq!(total, bytes * 2 * (n as u64 - 1));
        // Node volumes differ by at most the chunk-size imbalance (1 byte
        // per stage).
        prop_assert!(v0 * n as u64 >= total - (2 * (n as u64 - 1)) * n as u64);
    }

    /// Demand matrix of a ring only links successors.
    #[test]
    fn ring_demand_is_a_cycle(n in 2u32..32) {
        let s = ring_allreduce(&hosts(n), 4096 * n as u64);
        let d = s.demand(n as usize);
        for i in 0..n {
            for j in 0..n {
                let v = d.get(HostId(i), HostId(j));
                if j == (i + 1) % n {
                    prop_assert!(v > 0);
                } else {
                    prop_assert_eq!(v, 0);
                }
            }
        }
    }

    /// ReduceScatter is exactly the first half of AllReduce.
    #[test]
    fn reduce_scatter_is_half(n in 2u32..24, bytes in 1024u64..1_000_000) {
        prop_assume!(bytes >= n as u64);
        let rs = ring_reduce_scatter(&hosts(n), bytes);
        let ar = ring_allreduce(&hosts(n), bytes);
        prop_assert!(rs.validate().is_ok());
        prop_assert_eq!(rs.transfers.len() * 2, ar.transfers.len());
        prop_assert_eq!(&ar.transfers[..rs.transfers.len()], &rs.transfers[..]);
    }

    /// Halving-doubling conserves per-node volume like the ring.
    #[test]
    fn halving_doubling_volume(pow in 1u32..6, mult in 1u64..50) {
        let n = 1u32 << pow;
        let bytes = n as u64 * 1024 * mult;
        let s = halving_doubling_allreduce(&hosts(n), bytes);
        prop_assert!(s.validate().is_ok());
        let v0: u64 = s.transfers.iter()
            .filter(|t| t.src == HostId(0))
            .map(|t| t.bytes)
            .sum();
        prop_assert_eq!(v0, 2 * bytes * (n as u64 - 1) / n as u64);
        prop_assert_eq!(s.n_steps(), 2 * pow);
    }

    /// AlltoAll covers all ordered pairs, once.
    #[test]
    fn alltoall_pairs(n in 2u32..20, per in 1u64..100_000) {
        let s = alltoall_uniform(&hosts(n), per);
        prop_assert!(s.validate().is_ok());
        prop_assert_eq!(s.transfers.len() as u32, n * (n - 1));
        prop_assert_eq!(s.total_bytes(), per * (n as u64) * (n as u64 - 1));
        let d = s.demand(n as usize);
        prop_assert_eq!(d.total(), s.total_bytes());
    }

    /// Dependency chains in a ring have exactly pipeline depth 2(N−1) and
    /// every non-root transfer's sender is its dependency's receiver.
    #[test]
    fn ring_dependency_structure(n in 2u32..24) {
        let s = ring_allreduce(&hosts(n), 8192 * n as u64);
        prop_assert_eq!(s.depth(), 2 * (n - 1));
        prop_assert_eq!(s.roots().len() as u32, n);
        for (i, d) in s.deps.iter().enumerate() {
            if let Some(p) = d {
                prop_assert_eq!(s.transfers[*p as usize].dst, s.transfers[i].src);
            }
        }
    }

    /// Jitter samples respect their model across arbitrary shapes.
    #[test]
    fn jitter_bounds(n in 1usize..64, max_us in 1u64..100, seed in 0u64..1000) {
        use fp_netsim::time::SimDuration;
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let m = JitterModel::Uniform { max: SimDuration::from_us(max_us) };
        let v = m.sample(n, &mut rng);
        prop_assert_eq!(v.len(), n);
        for d in v {
            prop_assert!(d <= SimDuration::from_us(max_us));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running a random ring on a real fabric always completes and the
    /// tagged per-iteration volume equals the schedule's non-local bytes.
    #[test]
    fn runner_conserves_schedule_volume(n_pow in 1u32..4, kib in 64u64..512, seed in 0u64..100) {
        use fp_netsim::prelude::*;
        let n = 2u32 << n_pow; // 4..16
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: n,
            spines: (n / 2).max(1),
            ..Default::default()
        });
        let bytes = kib * 1024;
        prop_assume!(bytes >= n as u64);
        let sched = ring_allreduce(&hosts(n), bytes);
        let expected = sched.total_bytes(); // ring: all transfers non-local
        let mut sim = Simulator::new(topo, SimConfig::default(), seed);
        sim.set_app(Box::new(CollectiveRunner::new(sched, RunnerConfig::default())));
        sim.run();
        prop_assert!(sim.all_flows_complete());
        let c = sim.counters.get(1, 0).unwrap();
        prop_assert_eq!(c.total_bytes(), expected);
    }
}

// ---------------------------------------------------------------------
// Faulted runs through `CollectiveRunner`: run-twice determinism and
// packet/byte conservation.
// ---------------------------------------------------------------------

use fp_netsim::prelude::*;

/// One faulted collective run: a schedule on an 8×4 (or smaller) fabric,
/// fault flips applied once each by the iteration-start hook — the way the
/// evaluation harness installs and heals its injected fault.
struct FaultedRun {
    leaves: u32,
    spines: u32,
    seed: u64,
    sched: Schedule,
    jitter: JitterModel,
    /// `(link, action, at_iter)`.
    flips: Vec<(LinkId, FaultAction, u32)>,
}

fn fabric(leaves: u32, spines: u32) -> Topology {
    Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        hosts_per_leaf: 1,
        ..Default::default()
    })
}

/// Run `sc` to drain, check conservation, and return everything a harness
/// reads from the fabric in `Debug` form (counter entries in key order).
fn run_and_check(sc: &FaultedRun) -> String {
    const ITERS: u32 = 3;
    let mut sim = Simulator::new(fabric(sc.leaves, sc.spines), SimConfig::default(), sc.seed);
    let mut runner = CollectiveRunner::new(
        sc.sched.clone(),
        RunnerConfig {
            iterations: ITERS,
            jitter: sc.jitter,
            ..Default::default()
        },
    );
    let flips = sc.flips.clone();
    let mut fired = vec![false; flips.len()];
    runner.set_iteration_start_hook(Box::new(move |sim, iter| {
        for (&(link, action, at_iter), fired) in flips.iter().zip(fired.iter_mut()) {
            if !*fired && iter >= at_iter {
                sim.apply_fault_now(link, action, false);
                *fired = true;
            }
        }
    }));
    sim.set_app(Box::new(runner));
    assert_eq!(sim.run().reason, RunReason::Drained);
    assert_eq!(sim.pending_events(), 0);

    // Bytes: every transfer of every iteration arrives exactly once, however
    // many segments the fault ate on the way.
    assert!(sim.all_flows_complete());
    assert_eq!(sim.stats.flows_failed, 0);
    assert_eq!(
        sim.stats.flows_completed,
        ITERS as u64 * sc.sched.transfers.len() as u64
    );
    assert_eq!(
        sim.stats.bytes_delivered,
        ITERS as u64 * sc.sched.total_bytes()
    );
    let segments: u64 = sim.flows.iter().map(|f| f.npkts as u64).sum();
    assert_eq!(
        sim.stats.data_pkts_delivered - sim.stats.dup_pkts_delivered,
        segments
    );
    // Packets: what a link serialized it either delivered or lost to the
    // silent fault; no other drop cause exists in these scenarios.
    let (txed, delivered) = (0..sim.topo.n_links() as u32)
        .map(|l| sim.link(LinkId(l)))
        .fold((0, 0), |(t, d), l| (t + l.txed_pkts, d + l.delivered_pkts));
    assert_eq!(txed, sim.stats.pkts_txed);
    assert_eq!(txed - delivered, sim.stats.silent_drops());
    assert_eq!(sim.stats.total_drops(), sim.stats.silent_drops());

    let counters: Vec<String> = sim
        .counters
        .keys()
        .into_iter()
        .map(|(job, iter)| format!("{job}/{iter}: {:?}", sim.counters.get(job, iter)))
        .collect();
    format!(
        "{:?}\n{counters:?}\n{:?}\n{:?}",
        sim.stats,
        sim.iter_spans(),
        sim.trace.to_records()
    )
}

fn ring_run(leaves: u32, spines: u32, seed: u64) -> FaultedRun {
    FaultedRun {
        leaves,
        spines,
        seed,
        sched: ring_allreduce(&hosts(leaves), 96 * 1024),
        jitter: JitterModel::Uniform {
            max: SimDuration::from_us(1),
        },
        flips: Vec::new(),
    }
}

/// Fault timings and collective shapes no other runner-level test covers:
/// a fault live from the first iteration, an install followed by a heal,
/// same-instant pairwise exchanges, and unjittered simultaneous starts.
#[test]
fn faulted_runner_scenarios_are_deterministic_and_conserve() {
    let topo = fabric(8, 4);

    let mut blackhole_from_start = ring_run(8, 4, 13);
    blackhole_from_start.flips = vec![(
        topo.downlink(0, 5),
        FaultAction::Set(FaultKind::SilentBlackhole),
        0,
    )];

    let mut install_then_heal = ring_run(8, 4, 12);
    let down = topo.downlink(1, 2);
    install_then_heal.flips = vec![
        (
            down,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.05 }),
            1,
        ),
        (down, FaultAction::Clear, 2),
    ];

    // Pairwise exchanges land packets on two spine downlinks at the same
    // nanosecond: same-instant ties are resolved by sequence number alone.
    let mut halving_doubling = ring_run(8, 4, 15);
    halving_doubling.sched = halving_doubling_allreduce(&hosts(8), 128 * 1024);
    halving_doubling.flips = vec![(
        topo.downlink(2, 6),
        FaultAction::Set(FaultKind::SilentDrop { rate: 0.1 }),
        1,
    )];

    let mut simultaneous_starts = ring_run(4, 2, 16);
    simultaneous_starts.jitter = JitterModel::None;

    for (name, sc) in [
        ("blackhole from iteration 0", blackhole_from_start),
        ("install then heal", install_then_heal),
        ("halving-doubling under drop", halving_doubling),
        ("no-jitter simultaneous starts", simultaneous_starts),
    ] {
        let first = run_and_check(&sc);
        assert_eq!(first, run_and_check(&sc), "{name}: second run differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random install-then-heal faults: same properties, any cable, any
    /// onset iteration (a heal past the last iteration never fires).
    #[test]
    fn random_faulted_runs_are_deterministic_and_conserve(
        seed in 1u64..1_000,
        fleaf in 0u32..8,
        fv in 0u32..4,
        at_iter in 0u32..3,
        rate in 0.02f64..1.0,
    ) {
        let mut sc = ring_run(8, 4, seed);
        sc.sched = ring_allreduce(&hosts(8), 32 * 1024);
        let link = fabric(8, 4).downlink(fv, fleaf);
        sc.flips = vec![
            (link, FaultAction::Set(FaultKind::SilentDrop { rate }), at_iter),
            (link, FaultAction::Clear, at_iter + 1),
        ];
        prop_assert_eq!(run_and_check(&sc), run_and_check(&sc));
    }
}
