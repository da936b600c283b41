//! A run's counters cost what they hold. Under a ring all-reduce each
//! monitored port only ever sees one sender leaf, so an iteration's entry
//! keeps its per-port bytes and one sender per port instead of a
//! leaves-wide per-sender block. What `Scenario::run` of the
//! `steady_adaptive` benchmark shape (a 16×8 fat tree, a 4 MiB/node ring
//! all-reduce, Adaptive spray, no jitter) hands back, every entry
//! included, grows by at most 2 kB per iteration from 24 to 96 iterations
//! (about 1.44 kB on the 16×8 fabric); with a dense block in every entry
//! it grew by about 17.6 kB. Halving-doubling, whose ports see several
//! senders, unfolds into the dense block and may not grow faster than it
//! did with one in every entry.
//!
//! A trial keeps none of that: its scorer takes each iteration as it
//! closes, so the store holds only the open ones, and what `run_trial`
//! holds at its peak beyond what its result keeps is the same at 96
//! halving-doubling iterations as at 24, within 10 % (it grew 2.47×
//! while the store kept every iteration).
//!
//! A counting `#[global_allocator]` keeps the bytes live and their
//! high-water mark. One test per binary: another test's thread allocating
//! meanwhile would be counted.

use flowpulse::eval::build_schedule;
use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting the bytes it has handed out and not taken back.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is passed to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed on.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The `steady_adaptive` benchmark shape running `collective` for
/// `iterations` iterations.
fn shape(collective: CollectiveKind, iterations: u32) -> TrialSpec {
    TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 4 * 1024 * 1024,
        iterations,
        collective,
        jitter: JitterModel::None,
        seed: 2,
        ..Default::default()
    }
}

/// Bytes a `steady_adaptive`-shaped run of `collective` over `iterations`
/// iterations hands back (counters, spans, statistics, trace).
fn handed_back(collective: CollectiveKind, iterations: u32) -> usize {
    let spec = shape(collective, iterations);
    let rcfg = RunnerConfig {
        iterations,
        jitter: spec.jitter,
        ..Default::default()
    };
    let before = LIVE.load(Ordering::Relaxed);
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: spec.leaves,
        spines: spec.spines,
        ..Default::default()
    });
    let sc = Scenario::new(topo, build_schedule(&spec), rcfg, spec.sim, spec.seed);
    let run = sc.run();
    let after = LIVE.load(Ordering::Relaxed);
    assert!(run.all_flows_complete);
    assert_eq!(run.counters.iters_of(1).len(), iterations as usize);
    after - before
}

/// Bytes per iteration the handed-back run grows by from 24 to 96
/// iterations.
fn growth_per_iteration(collective: CollectiveKind) -> usize {
    let short = handed_back(collective, 24);
    let long = handed_back(collective, 96);
    eprintln!("{collective:?}: {short} B after 24 iterations, {long} B after 96");
    (long - short) / 72
}

/// Bytes `run_trial` of the shape held at its peak beyond what its
/// result keeps.
fn trial_overhead(collective: CollectiveKind, iterations: u32) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let r = run_trial(&shape(collective, iterations));
    let kept = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(r.snapshots.len(), iterations as usize);
    drop(r);
    peak - kept
}

#[test]
fn counter_memory_per_iteration_follows_the_senders() {
    let ring = growth_per_iteration(CollectiveKind::RingAllReduce);
    assert!(ring <= 2_000, "a ring iteration costs {ring} B, over 2 kB");
    // Each port of a halving-doubling iteration sees several senders; with
    // a dense per-sender block in every entry an iteration cost this much.
    const DENSE_HALVING_DOUBLING: usize = 17_566;
    let hd = growth_per_iteration(CollectiveKind::HalvingDoubling);
    assert!(
        hd <= DENSE_HALVING_DOUBLING,
        "a halving-doubling iteration costs {hd} B, over {DENSE_HALVING_DOUBLING} B"
    );

    let short = trial_overhead(CollectiveKind::HalvingDoubling, 24);
    let long = trial_overhead(CollectiveKind::HalvingDoubling, 96);
    eprintln!("run_trial beyond its result: {short} B at 24 iterations, {long} B at 96");
    assert!(
        long * 10 <= short * 11,
        "a trial's working heap grew from {short} B to {long} B with its length"
    );
}
