//! A trial's memory follows its live flows, not its length. The flow table
//! retires a flow once nothing can touch it, so the simulator's peak live
//! heap over 96 iterations of the `steady_adaptive` benchmark shape (a
//! 16×8 fat tree, a 4 MiB/node ring all-reduce, Adaptive spray, no jitter)
//! stays within 10 % of its peak over 24 iterations. A table that kept
//! every flow it ever posted grew about fourfold.
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

/// How far the heap rose, while a `steady_adaptive`-shaped run of
/// `iterations` iterations was built and run, above what the run hands
/// back: the simulator's own peak. What a run hands back (a counter row
/// and a span per iteration) is its product and grows with it by design.
fn simulator_peak(iterations: u32) -> usize {
    let spec = TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 4 * 1024 * 1024,
        iterations,
        jitter: JitterModel::None,
        seed: 2,
        ..Default::default()
    };
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: spec.leaves,
        spines: spec.spines,
        ..Default::default()
    });
    let rcfg = RunnerConfig {
        iterations,
        jitter: spec.jitter,
        ..Default::default()
    };
    let sc = Scenario::new(topo, build_schedule(&spec), rcfg, spec.sim, spec.seed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let run = sc.run();
    let handed_back = LIVE.load(Ordering::Relaxed);
    assert!(run.all_flows_complete);
    assert_eq!(run.stats.flows_completed, 16 * 30 * u64::from(iterations));
    PEAK.load(Ordering::Relaxed) - handed_back
}

#[test]
fn simulator_peak_heap_does_not_grow_with_iterations() {
    let short = simulator_peak(24);
    let long = simulator_peak(96);
    eprintln!("simulator peak heap: {short} B over 24 iterations, {long} B over 96");
    assert!(
        long * 10 <= short * 11,
        "96 iterations peaked at {long} B, over 1.1 × the {short} B of 24"
    );
}
