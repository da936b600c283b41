//! Property-based tests for FlowPulse models and detection logic.

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::ids::HostId;
use fp_netsim::topology::{FatTreeSpec, Topology};
use proptest::prelude::*;

fn hosts(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Analytical model conserves bytes: total predicted equals total
    /// non-local demand (when nothing is unroutable).
    #[test]
    fn analytical_conserves_demand(
        leaves in 2u32..16,
        spines in 2u32..8,
        bytes in 4096u64..10_000_000,
    ) {
        let t = Topology::fat_tree(FatTreeSpec { leaves, spines, ..Default::default() });
        prop_assume!(bytes >= leaves as u64);
        let sched = ring_allreduce(&hosts(leaves), bytes);
        let d = sched.demand(t.n_hosts());
        let p = AnalyticalModel::new(&t, []).predict(&d);
        prop_assert_eq!(p.unroutable_bytes, 0);
        prop_assert!((p.loads.total() - d.total() as f64).abs() < 1e-6 * d.total() as f64 + 1e-6);
    }

    /// Fault-free prediction is spatially balanced: every port of a leaf
    /// carries the same expected load.
    #[test]
    fn fault_free_prediction_is_balanced(leaves in 2u32..12, spines in 2u32..8) {
        let t = Topology::fat_tree(FatTreeSpec { leaves, spines, ..Default::default() });
        let sched = ring_allreduce(&hosts(leaves), 1_000_000);
        let p = AnalyticalModel::new(&t, []).predict(&sched.demand(t.n_hosts()));
        for leaf in 0..leaves {
            let ports = p.loads.leaf(leaf);
            for w in ports.windows(2) {
                prop_assert!((w[0] - w[1]).abs() < 1e-9);
            }
        }
    }

    /// Removing one spine's links from a (src,dst) pair raises every other
    /// port's share by exactly s/(s−1).
    #[test]
    fn fault_redistribution_factor(spines in 3u32..12, bytes in 10_000u64..1_000_000) {
        let t = Topology::fat_tree(FatTreeSpec { leaves: 4, spines, ..Default::default() });
        let mut d = fp_collectives::demand::DemandMatrix::new(4);
        d.add(HostId(0), HostId(2), bytes);
        let clean = AnalyticalModel::new(&t, []).predict(&d);
        let down = AnalyticalModel::new(&t, [t.uplink(0, 0)]).predict(&d);
        let s = spines as f64;
        for v in 1..spines {
            let ratio = down.loads.get(2, v) / clean.loads.get(2, v);
            prop_assert!((ratio - s / (s - 1.0)).abs() < 1e-9);
        }
        prop_assert_eq!(down.loads.get(2, 0), 0.0);
    }

    /// Detector monotonicity: a higher threshold never yields more
    /// deviations.
    #[test]
    fn detector_threshold_monotone(
        loads in proptest::collection::vec(100.0f64..10_000.0, 4..32),
        noise in proptest::collection::vec(-0.1f64..0.1, 4..32),
    ) {
        let n = loads.len().min(noise.len());
        let expected = PortLoads { n_leaves: 1, n_vspines: n, bytes: loads[..n].to_vec() };
        let observed = PortLoads {
            n_leaves: 1,
            n_vspines: n,
            bytes: loads[..n].iter().zip(&noise[..n]).map(|(l, e)| l * (1.0 + e)).collect(),
        };
        let lo = Detector::new(0.01).compare(&expected, &observed).len();
        let hi = Detector::new(0.05).compare(&expected, &observed).len();
        prop_assert!(hi <= lo);
        // max_abs_rel bounds every reported deviation.
        let m = Detector::new(0.01).max_abs_rel(&expected, &observed);
        for d in Detector::new(0.01).compare(&expected, &observed) {
            prop_assert!(d.rel.abs() <= m + 1e-12);
        }
    }

    /// ROC curves are monotone non-increasing in the threshold for both
    /// axes, and bounded to [0,1].
    #[test]
    fn roc_is_monotone(
        clean in proptest::collection::vec(0.0f64..0.05, 1..50),
        faulty in proptest::collection::vec(0.0f64..0.2, 1..50),
    ) {
        let thresholds = [0.001, 0.005, 0.01, 0.02, 0.05, 0.1];
        let pts = roc_curve(&clean, &faulty, &thresholds);
        for p in &pts {
            prop_assert!((0.0..=1.0).contains(&p.fpr));
            prop_assert!((0.0..=1.0).contains(&p.tpr));
        }
        for w in pts.windows(2) {
            prop_assert!(w[1].fpr <= w[0].fpr);
            prop_assert!(w[1].tpr <= w[0].tpr);
        }
    }

    /// Rates bookkeeping: totals match the number of evaluated iterations.
    #[test]
    fn rates_totals(tp in 0u32..100, fn_ in 0u32..100, fp in 0u32..100, tn in 0u32..100) {
        let r = Rates { tp, fn_, fp, tn };
        prop_assert!(r.fpr() >= 0.0 && r.fpr() <= 1.0);
        prop_assert!(r.fnr() >= 0.0 && r.fnr() <= 1.0);
        prop_assert!((r.tpr() + r.fnr() - 1.0).abs() < 1e-12 || (tp + fn_) == 0);
    }

    /// The learned model's baseline is the exact mean of its warmup
    /// samples.
    #[test]
    fn learned_baseline_is_mean(
        a in proptest::collection::vec(100u64..1000, 4),
        b in proptest::collection::vec(100u64..1000, 4),
    ) {
        let mut m = LearnedModel::new(2, 0.01);
        for bytes in [&a, &b] {
            let obs = flowpulse::model::PortCells { n_leaves: 1, n_vspines: 4, bytes };
            m.observe(obs, None);
        }
        let base = m.baseline().unwrap();
        for i in 0..4 {
            prop_assert!((base.bytes[i] - (a[i] + b[i]) as f64 / 2.0).abs() < 1e-9);
        }
    }

    /// Ring localization: for any single injected alarm pair along the
    /// ring, the cable is recovered; random unpaired alarms stay unpaired.
    #[test]
    fn ring_localization_recovers_pairs(leaves in 3u32..64, leaf in 0u32..64, v in 0u32..16) {
        prop_assume!(leaf < leaves);
        let succ = |l: u32| (l + 1) % leaves;
        let alarms = [(leaf, v), (succ(leaf), v)];
        let loc = Localizer::default().localize_ring(&alarms, succ);
        prop_assert_eq!(loc.cables, vec![(leaf, v)]);
        prop_assert!(loc.unpaired.is_empty());
    }

    /// The shared alarm → ports reduction (what `fp-ctrl` and `fp-monitord`
    /// localize from) is the offline monitor's `shortfall_ports`, and the
    /// ring verdict taken straight from alarms is the one taken from those
    /// ports — over any alarm history, from any starting iteration.
    #[test]
    fn alarm_to_ports_reduction_matches_the_monitor(
        // Per iteration, per port: short, on target or over.
        history in proptest::collection::vec(proptest::collection::vec(0usize..3, 12), 1..8),
        from in 0u32..8,
    ) {
        use flowpulse::monitor::shortfall_ports;
        use fp_netsim::packet::CollectiveTag;
        const LEAVES: u32 = 4;
        const VSPINES: u32 = 3;
        let mut counters = fp_netsim::counters::CounterStore::new(LEAVES as usize, VSPINES as usize);
        for (iter, ports) in (0u32..).zip(&history) {
            for (port, &level) in (0u32..).zip(ports) {
                let tag = CollectiveTag { job: 1, iter };
                let bytes = [900, 1000, 1100][level];
                counters.record(port / VSPINES, port % VSPINES, tag, 0, bytes, fp_netsim::time::SimTime::ZERO);
            }
        }
        let predicted = PortLoads { n_leaves: 4, n_vspines: 3, bytes: vec![1000.0; 12] };
        let mut m = Monitor::new_fixed(1, Detector::new(0.01), predicted);
        m.scan(&counters, true);

        let since = || m.alarms.iter().filter(|a| a.iter >= from);
        let by_hand: std::collections::BTreeSet<(u32, u32)> = since()
            .flat_map(|a| &a.deviations)
            .filter(|d| d.observed < d.expected)
            .map(|d| (d.leaf, d.vspine))
            .collect();
        let ports = m.shortfall_ports(from);
        prop_assert_eq!(&shortfall_ports(since()), &ports);
        prop_assert_eq!(&ports, &by_hand.into_iter().collect::<Vec<_>>());
        let loc = Localizer::default();
        prop_assert_eq!(
            loc.localize_ring_alarms(since(), LEAVES),
            loc.localize_ring(&ports, |l| (l + 1) % LEAVES)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end invariant: on a clean fabric the analytical model never
    /// false-alarms at the paper's 1% threshold, across random shapes.
    #[test]
    fn no_false_alarms_across_shapes(
        leaves_pow in 2u32..4,
        seed in 0u64..50,
    ) {
        let leaves = 1u32 << leaves_pow; // 4..8
        let spec = TrialSpec {
            leaves,
            spines: leaves / 2,
            bytes_per_node: 4 * 1024 * 1024,
            iterations: 2,
            seed,
            ..Default::default()
        };
        let r = run_trial(&spec);
        prop_assert!(!r.false_alarm, "alarms: {:?}", r.alarms);
    }
}
