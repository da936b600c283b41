//! Temporal-symmetry fast-forward (`enable_memo`) equivalence: a memoized
//! fault-free, jitter-free run must leave the simulator in a state
//! byte-identical to a live run — same flow table, statistics, counters,
//! per-link counters, iteration spans and end time — while actually
//! replaying iterations (hits > 0). The debug-mode re-snapshot assertion
//! inside the engine additionally verifies every replay preserved the
//! normalized residual.

use fp_collectives::ring::ring_allreduce;
use fp_collectives::runner::{CollectiveRunner, RunnerConfig};
use fp_netsim::config::SimConfig;
use fp_netsim::ids::HostId;
use fp_netsim::sim::{RunSummary, Simulator};
use fp_netsim::spray::SprayPolicy;
use fp_netsim::topology::{FatTreeSpec, Topology};
use fp_netsim::trace::TraceEvent;

fn hosts(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

fn run(memo: bool, iters: u32) -> (Simulator, RunSummary) {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 4,
        spines: 2,
        ..Default::default()
    });
    // Adaptive spraying (the default) is memo-ineligible: its deficit
    // decay is anchored to an absolute tau grid, so the boundary-relative
    // state never repeats. LeastLoaded is deterministic and periodic.
    let cfg = SimConfig {
        spray: SprayPolicy::LeastLoaded,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, cfg, 7);
    if memo {
        sim.enable_memo(Vec::new());
    }
    let sched_w = ring_allreduce(&hosts(4), 64 * 1024);
    let runner = CollectiveRunner::new(
        sched_w,
        RunnerConfig {
            iterations: iters,
            ..Default::default()
        },
    );
    sim.set_app(Box::new(runner));
    let summary = sim.run();
    (sim, summary)
}

/// Full-state comparison, modulo the one allowed divergence: the
/// `MemoFastForward` trace records (and the trace's offered count).
fn assert_equivalent(live: &(Simulator, RunSummary), memo: &(Simulator, RunSummary)) {
    let (ls, lr) = live;
    let (ms, mr) = memo;
    assert_eq!(lr.end, mr.end, "end time diverged");
    assert_eq!(
        format!("{:?}", ls.stats),
        format!("{:?}", ms.stats),
        "stats diverged"
    );
    assert_eq!(ls.flow_ids(), ms.flow_ids(), "flow table diverged");
    for id in ls.flow_ids() {
        assert_eq!(
            format!("{:?}", ls.flow(id)),
            format!("{:?}", ms.flow(id)),
            "flow {id} diverged"
        );
    }
    assert_eq!(ls.iter_spans(), ms.iter_spans(), "iteration spans diverged");
    assert_eq!(ls.counters.keys(), ms.counters.keys());
    for key in ls.counters.keys() {
        assert_eq!(
            format!("{:?}", ls.counters.get(key.0, key.1)),
            format!("{:?}", ms.counters.get(key.0, key.1)),
            "counters diverged at {key:?}"
        );
    }
    for i in 0..ls.topo.n_links() {
        let (a, b) = (
            ls.link(fp_netsim::ids::LinkId(i as u32)),
            ms.link(fp_netsim::ids::LinkId(i as u32)),
        );
        assert_eq!(
            (a.txed_pkts, a.txed_bytes, a.delivered_pkts),
            (b.txed_pkts, b.txed_bytes, b.delivered_pkts),
            "link {i} counters diverged"
        );
    }
    let strip = |s: &Simulator| {
        s.trace
            .to_records()
            .into_iter()
            .filter(|r| !matches!(r.event, TraceEvent::MemoFastForward { .. }))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(ls), strip(ms), "trace diverged beyond memo records");
}

#[test]
fn memoized_run_is_byte_identical_and_actually_replays() {
    let live = run(false, 12);
    let memo = run(true, 12);
    assert_equivalent(&live, &memo);
    let c = memo.0.memo_counters().expect("memo enabled");
    assert!(
        c.hits > 0,
        "no fast-forward fired: fallback={:?}",
        c.fallback
    );
    assert!(c.replayed_iters > 0);
    assert!(c.replayed_events > 0);
    // The replayed spans account for events the engine never dispatched.
    assert_eq!(live.0.stats.events, memo.0.stats.events);
}

#[test]
fn live_run_without_enable_reports_no_counters() {
    let (sim, _) = run(false, 3);
    assert!(sim.memo_counters().is_none());
}
