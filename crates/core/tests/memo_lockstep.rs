//! Lockstep property: a trial with temporal-symmetry fast-forward enabled
//! (`TrialSpec::memo`) is byte-identical to the same trial run fully live,
//! across random fault schedules, both scheduler backends and both
//! memo-eligible and -ineligible spray policies. The only permitted
//! divergence is the `MemoFastForward` trace records themselves (and the
//! trace's offered count, which includes them). Debug builds additionally
//! re-snapshot after every replay inside the engine, so each proptest case
//! also validates the fingerprint theorem empirically on miss-heavy paths
//! (fault mid-run, PFC state, refused boundaries).

use flowpulse::eval::{memo_ineligibility, run_trial_ctl, TrialController};
use flowpulse::prelude::*;
use fp_collectives::jitter::JitterModel;
use fp_netsim::engine::SchedKind;
use fp_netsim::spray::SprayPolicy;
use fp_netsim::time::SimDuration;
use fp_netsim::trace::TraceEvent;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn base_spec(seed: u64, iterations: u32, wheel: bool, least_loaded: bool) -> TrialSpec {
    let mut spec = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 256 * 1024,
        iterations,
        jitter: JitterModel::None,
        seed,
        ..Default::default()
    };
    spec.sim.sched = Some(if wheel {
        SchedKind::Wheel
    } else {
        SchedKind::Heap
    });
    if least_loaded {
        spec.sim.spray = SprayPolicy::LeastLoaded;
    }
    spec
}

/// Trace records with the memo markers stripped — the one allowed
/// on-vs-off divergence.
fn trace_without_memo(r: &TrialResult) -> Vec<String> {
    r.trace
        .iter()
        .filter(|t| !matches!(t.event, TraceEvent::MemoFastForward { .. }))
        .map(|t| format!("{t:?}"))
        .collect()
}

/// Everything observable must match; `sched`/`sched_kind` are telemetry
/// (absolute-time wheel placement diagnostics are approximated on replay
/// and documented as such), and the memo counters differ by design.
fn assert_lockstep(off: &TrialResult, on: &TrialResult) {
    assert_eq!(off.iter_max_dev, on.iter_max_dev, "iter_max_dev");
    assert_eq!(format!("{:?}", off.alarms), format!("{:?}", on.alarms));
    assert_eq!(off.fault_port, on.fault_port);
    assert_eq!(off.fault_iter, on.fault_iter);
    assert_eq!(off.heal_iter, on.heal_iter);
    assert_eq!(off.detected, on.detected, "detected");
    assert_eq!(off.false_alarm, on.false_alarm, "false_alarm");
    assert_eq!(
        format!("{:?}", off.localization),
        format!("{:?}", on.localization)
    );
    assert_eq!(off.localized_correctly, on.localized_correctly);
    assert_eq!(off.preexisting_ports, on.preexisting_ports);
    assert_eq!(
        format!("{:?}", off.learned_events),
        format!("{:?}", on.learned_events)
    );
    assert_eq!(
        format!("{:?}", off.stats),
        format!("{:?}", on.stats),
        "stats"
    );
    assert_eq!(trace_without_memo(off), trace_without_memo(on), "trace");
    assert_eq!(
        format!("{:?}", off.observed),
        format!("{:?}", on.observed),
        "observed loads"
    );
    assert_eq!(
        format!("{:?}", off.observed_by_src),
        format!("{:?}", on.observed_by_src)
    );
    assert_eq!(off.iter_goodput, on.iter_goodput, "iter_goodput");
    assert_eq!(
        format!("{:?}", off.snapshots),
        format!("{:?}", on.snapshots),
        "snapshot stream"
    );
}

fn run_pair(spec: &TrialSpec) -> (TrialResult, TrialResult) {
    let mut off = spec.clone();
    off.memo = Some(false);
    let mut on = spec.clone();
    on.memo = Some(true);
    (run_trial(&off), run_trial(&on))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fault schedules: kind, onset, optional heal, direction —
    /// plus scheduler backend and spray policy. Memoized and live runs
    /// must agree on every observable artifact, whether the boundary
    /// chain hits (fault-free tails), is barred (onset/heal barriers) or
    /// is refused outright (adaptive spray, active fault windows).
    /// `fault_kind` 0 runs fault-free; `heal_after` 0 keeps the fault
    /// permanent.
    #[test]
    fn memo_lockstep_random_fault_schedules(
        seed in 0u64..u64::MAX,
        iterations in 10u32..14,
        wheel in 0u8..2,
        least_loaded in 0u8..2,
        fault_kind in 0u8..4,
        at_iter in 2u32..6,
        heal_after in 0u32..5,
        bidirectional in 0u8..2,
    ) {
        let mut spec = base_spec(seed, iterations, wheel == 1, least_loaded == 1);
        if fault_kind > 0 {
            spec.fault = Some(FaultSpec {
                kind: match fault_kind {
                    1 => InjectedFault::Drop { rate: 0.02 },
                    2 => InjectedFault::Blackhole,
                    _ => InjectedFault::DstBlackhole,
                },
                at_iter,
                heal_at_iter: (heal_after > 0).then(|| at_iter + heal_after),
                bidirectional: bidirectional == 1,
            });
        }
        let (off, on) = run_pair(&spec);
        assert_lockstep(&off, &on);
        prop_assert_eq!(off.memo_hits, 0);
        prop_assert!(off.memo_fallback.is_none());
    }
}

/// Fault-free steady state must actually fast-forward (hits > 0) while
/// staying byte-identical — the quickstart-path guarantee.
#[test]
fn fault_free_run_replays_and_matches() {
    let spec = base_spec(7, 12, false, true);
    let (off, on) = run_pair(&spec);
    assert_lockstep(&off, &on);
    assert!(
        on.memo_fallback.is_none(),
        "fallback: {:?}",
        on.memo_fallback
    );
    assert!(on.memo_hits > 0, "steady state never fast-forwarded");
    assert!(on.memo_replayed_iters > 0);
    assert!(on.memo_replayed_events > 0);
    // The memoized trace carries exactly `hits` extra records.
    assert_eq!(on.trace.len() as u64, off.trace.len() as u64 + on.memo_hits);
}

/// A transient drop fault: the replay chain must stop at the onset
/// barrier, stay live across the faulted window (fingerprint misses: RNG
/// draws, link-fault-active), then re-converge and fast-forward the
/// post-heal tail — all byte-identical.
#[test]
fn transient_fault_reconverges_after_heal() {
    let mut spec = base_spec(11, 18, false, true);
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.03 },
        at_iter: 3,
        heal_at_iter: Some(5),
        bidirectional: false,
    });
    let (off, on) = run_pair(&spec);
    assert_lockstep(&off, &on);
    assert!(on.detected, "fault must be visible for a meaningful test");
    assert!(
        on.memo_hits > 0,
        "post-heal tail never fast-forwarded (fallback: {:?})",
        on.memo_fallback
    );
}

/// Wheel backend, same transient schedule: replay must be byte-identical
/// on `SchedKind::Wheel` too.
#[test]
fn transient_fault_reconverges_on_wheel() {
    let mut spec = base_spec(11, 18, true, true);
    spec.fault = Some(FaultSpec {
        kind: InjectedFault::Drop { rate: 0.03 },
        at_iter: 3,
        heal_at_iter: Some(5),
        bidirectional: false,
    });
    let (off, on) = run_pair(&spec);
    assert_lockstep(&off, &on);
    assert!(on.memo_hits > 0, "fallback: {:?}", on.memo_fallback);
}

/// The hash backends of the spray engine are memo-eligible: ECMP is
/// stateless and a clean PRIME run has no congestion epochs, so both
/// fingerprint cleanly and the steady state fast-forwards byte-identically.
#[test]
fn ecmp_and_clean_prime_fast_forward_and_match() {
    for policy in [SprayPolicy::Ecmp, SprayPolicy::Prime] {
        let mut spec = base_spec(7, 12, false, false);
        spec.sim.spray = policy;
        let (off, on) = run_pair(&spec);
        assert_lockstep(&off, &on);
        assert!(
            on.memo_fallback.is_none(),
            "{policy:?} fallback: {:?}",
            on.memo_fallback
        );
        assert!(on.memo_hits > 0, "{policy:?}: never fast-forwarded");
    }
}

/// REPS carries ACK-fed entropy state the fingerprint cannot cover; the
/// engine must refuse with its explicit residual reason — and the refused
/// run still matches the live one byte for byte.
#[test]
fn reps_refuses_memo_with_residual_reason() {
    for policy in [SprayPolicy::Reps, SprayPolicy::RepsFailover] {
        let mut spec = base_spec(7, 12, false, false);
        spec.sim.spray = policy;
        let (off, on) = run_pair(&spec);
        assert_lockstep(&off, &on);
        assert_eq!(on.memo_hits, 0, "{policy:?}: fast-forwarded unsoundly");
        let reason = on.memo_fallback.expect("REPS must refuse the memo");
        assert!(
            reason.contains("reps-entropy-cache"),
            "{policy:?} reason: {reason}"
        );
    }
}

struct NoopController;
impl TrialController for NoopController {
    fn on_iteration_end(&mut self, _sim: &mut fp_netsim::sim::Simulator, _iter: u32) {}
    fn summary(&self) -> CtrlSummary {
        CtrlSummary::default()
    }
}

/// Eligibility gate: controllers, jitter and adaptive spray all refuse
/// with a reason (never silently), and refused trials still match live.
#[test]
fn gate_refuses_with_reasons() {
    // Controller active: the harness refuses before enabling.
    let mut spec = base_spec(3, 8, false, true);
    spec.memo = Some(true);
    let ctl: Rc<RefCell<dyn TrialController>> = Rc::new(RefCell::new(NoopController));
    let (r, _) = run_trial_ctl(&spec, None, Some(ctl));
    assert_eq!(r.memo_hits, 0);
    let reason = r.memo_fallback.expect("controller must refuse");
    assert!(reason.contains("controller"), "reason: {reason}");

    // Start jitter: refused by the harness gate.
    let mut spec = base_spec(3, 8, false, true);
    spec.jitter = JitterModel::Uniform {
        max: SimDuration::from_us(1),
    };
    spec.memo = Some(true);
    let r = run_trial(&spec);
    assert_eq!(r.memo_hits, 0);
    let reason = r.memo_fallback.expect("jitter must refuse");
    assert!(reason.contains("jitter"), "reason: {reason}");

    // Adaptive spray (the default): the engine refuses at enable time
    // (absolute-grid deficit decay), surfaced through the same field.
    let spec = base_spec(3, 8, false, false);
    let (off, on) = run_pair(&spec);
    assert_lockstep(&off, &on);
    assert_eq!(on.memo_hits, 0);
    let reason = on.memo_fallback.expect("adaptive spray must refuse");
    assert!(reason.contains("adaptive"), "reason: {reason}");

    // The pure gate function, for the ineligibility table in DESIGN.md.
    let eligible = base_spec(3, 8, false, true);
    assert_eq!(memo_ineligibility(&eligible, false, false), None);
    assert!(memo_ineligibility(&eligible, true, false).is_some());
    assert!(memo_ineligibility(&eligible, false, true).is_some());
}

/// Engine-level case for the timers that wait outside the scheduler: at
/// every iteration boundary of this workload the receiver of the last
/// transfer holds a partial ACK block whose flush timer is armed — an
/// entry of a delay-class pipe — and the senders' RTO deadlines of the
/// last few segments have not passed yet — one armed head-of-line timer
/// per flow plus the slots behind it in the flow's log. A matched boundary
/// must fingerprint them and a replay must shift them, or the memoized
/// run diverges from the live one (and the engine's debug-build
/// re-snapshot assertion fires).
#[test]
fn replay_shifts_pending_delay_class_entries() {
    use fp_collectives::ring::ring_allreduce;
    use fp_collectives::runner::{CollectiveRunner, RunnerConfig};
    use fp_netsim::config::SimConfig;
    use fp_netsim::ids::HostId;
    use fp_netsim::sim::Simulator;
    use fp_netsim::topology::{FatTreeSpec, Topology};

    /// Per live boundary: (class-pipe entries pending, head-of-line timers
    /// armed, flows holding an unflushed partial ACK block).
    type Seen = Rc<RefCell<Vec<(u64, u64, usize)>>>;

    fn run(memo: bool, sched: SchedKind) -> (Simulator, Seen) {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 8,
            spines: 4,
            ..Default::default()
        });
        let cfg = SimConfig {
            sched: Some(sched),
            spray: SprayPolicy::LeastLoaded,
            ..Default::default()
        };
        let mut sim = Simulator::new(topo, cfg, 7);
        if memo {
            sim.enable_memo(Vec::new());
        }
        // Ten packets per ring chunk (nine full segments and an odd
        // tail): the first eight are acknowledged by count, the last two
        // wait for the 500 ns flush timer.
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let mut runner = CollectiveRunner::new(
            ring_allreduce(&hosts, 8 * (9 * 4096 + 100)),
            RunnerConfig {
                iterations: 14,
                // The hook below only observes, so skipping it on
                // replayed iterations is the no-op the flag promises.
                memo_barrier_hooks: true,
                ..Default::default()
            },
        );
        let seen: Seen = Rc::default();
        let log = seen.clone();
        runner.set_iteration_end_hook(Box::new(move |sim, _| {
            let ss = sim.sched_stats();
            let unflushed = sim.flows.iter().filter(|f| f.pending_ack.is_some()).count();
            let class_pending = ss.class_pushes - ss.class_pops;
            log.borrow_mut()
                .push((class_pending, ss.head_arms - ss.head_pops, unflushed));
        }));
        sim.set_app(Box::new(runner));
        sim.run();
        (sim, seen)
    }

    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let (live, live_seen) = run(false, sched);
        let (memo, memo_seen) = run(true, sched);
        for &(class_pending, heads, unflushed) in live_seen.borrow().iter() {
            assert!(unflushed > 0, "no ACK flush timer armed at a boundary");
            assert!(class_pending >= unflushed as u64, "one flush timer each");
            assert!(heads > 0, "no flow's RTO timer armed at a boundary");
        }
        let mc = memo.memo_counters().expect("memo armed");
        assert!(mc.hits > 0, "never fast-forwarded: {:?}", mc.fallback);
        // Matched boundaries are live ones: the hook saw them.
        assert!(memo_seen.borrow().len() < live_seen.borrow().len());
        let n = memo_seen.borrow().len();
        assert_eq!(memo_seen.borrow()[..3], live_seen.borrow()[..3]);
        assert_eq!(
            memo_seen.borrow()[n - 1],
            *live_seen.borrow().last().unwrap()
        );

        assert_eq!(live.now(), memo.now(), "end time");
        assert_eq!(format!("{:?}", live.stats), format!("{:?}", memo.stats));
        // Entry by entry: the store's own `Debug` walks a hash index.
        assert_eq!(live.counters.keys(), memo.counters.keys());
        for (job, iter) in live.counters.keys() {
            assert_eq!(
                format!("{:?}", live.counters.get(job, iter)),
                format!("{:?}", memo.counters.get(job, iter)),
                "counters of iteration {iter}"
            );
        }
        assert_eq!(live.iter_spans(), memo.iter_spans());
        // Pushes and pops are exact on replay, per container.
        let (ls, ms) = (live.sched_stats(), memo.sched_stats());
        assert_eq!(
            (ls.pushes, ls.pops, ls.class_pushes, ls.class_pops),
            (ms.pushes, ms.pops, ms.class_pushes, ms.class_pops)
        );
        assert_eq!((ls.head_arms, ls.head_pops), (ms.head_arms, ms.head_pops));
        assert_eq!(ms.class_pushes, ms.class_pops, "drained");
        assert_eq!(ms.head_arms, ms.head_pops, "drained");
        // The scheduler saw only the runner's per-host start wake-ups.
        assert_eq!(ms.pushes, 14 * 8);
    }
}
