//! Intra-trial shard scaling: the headline trial at 1/2/4/8 shards,
//! through both execution backends.
//!
//! One `BENCH_netsim.json` entry per shard count (`"shards1"` …
//! `"shards8"`) for the threaded-mailbox backend, plus `"shards2_inline"`
//! … `"shards8_inline"` for the single-threaded coordinator
//! (`FP_SHARD_EXEC=inline`), so the committed perf trajectory captures
//! what fabric sharding costs or buys on the build host — and how much of
//! that is thread coordination versus the conservative-lookahead
//! synchronization itself. The numbers are honest for the machine that
//! produced them: on a single hardware thread every `shards > 1` row is
//! *slower* than `shards1` and the inline rows bound the pure sync
//! overhead; the speedup only materializes with cores to spread the
//! shards over (each row's `host_parallelism` says which regime it
//! measured). Every sharded row also records `shard_windows` and
//! `shard_syncs`: under epoch batching (`FP_SHARD_EPOCH`, default 32)
//! many conservative windows ride one synchronization round, and since
//! the window schedule is identical at any epoch cap, `shard_windows` is
//! exactly what `shard_syncs` would have been under the legacy per-window
//! handshake — one row carries its own before/after. `FP_QUICK` shrinks
//! the fabric.

use flowpulse::prelude::*;
use fp_bench::{header, pick};

fn record(name: &str, r: &TrialResult, wall_us: u64, eps: f64) {
    match fp_bench::record_bench(&fp_bench::BenchEntry {
        name: name.into(),
        git: fp_telemetry::git_describe(),
        scheduler: r.sched_kind.name().into(),
        threads: 1,
        host_parallelism: fp_bench::host_parallelism(),
        shards: u64::from(r.shards),
        shard_epoch: u64::from(r.shard_epoch),
        shard_windows: r.shard_windows,
        shard_syncs: r.shard_syncs,
        shard_events: r.shard_events.clone(),
        quick: fp_bench::quick(),
        trials: 1,
        wall_us,
        events: r.stats.events,
        events_per_sec: eps,
        sched_pushes: r.sched.pushes,
        memo_hits: r.memo_hits,
        memo_replayed_events: r.memo_replayed_events,
        tt_detect_ns: None,
        tt_mitigate_ns: None,
        false_mitigations: None,
        service_latency: None,
    }) {
        Ok(Some(p)) => println!("[bench {}]", p.display()),
        Ok(None) => {}
        Err(e) => eprintln!("warning: cannot update bench json: {e}"),
    }
}

fn main() {
    header("shard scaling — headline trial at 1/2/4/8 shards, both backends");
    let base = TrialSpec {
        leaves: pick(32, 8),
        spines: pick(16, 4),
        bytes_per_node: pick(64, 8) * 1024 * 1024,
        iterations: 3,
        fault: Some(FaultSpec {
            kind: InjectedFault::Drop { rate: 0.015 },
            at_iter: 1,
            heal_at_iter: None,
            bidirectional: false,
        }),
        seed: 2025,
        ..Default::default()
    };
    // The backend is an env knob read at shard-plan time, so each pass
    // pins it explicitly rather than inheriting whatever the caller set.
    // `shards1` is the unsharded engine — the backend never applies there,
    // so the inline pass covers 2/4/8 only.
    let mut base_eps = None;
    for (backend, suffix, counts) in [
        ("threaded", "", &[1u32, 2, 4, 8][..]),
        ("inline", "_inline", &[2u32, 4, 8][..]),
    ] {
        std::env::set_var("FP_SHARD_EXEC", backend);
        for &shards in counts {
            let mut spec = base.clone();
            spec.shards = Some(shards);
            let t0 = std::time::Instant::now();
            let r = run_trial(&spec);
            let wall_us = (t0.elapsed().as_micros() as u64).max(1);
            let eps = r.stats.events as f64 * 1e6 / wall_us as f64;
            let speedup = match base_eps {
                None => {
                    base_eps = Some(eps);
                    1.0
                }
                Some(b) => eps / b,
            };
            let amort = if r.shard_syncs == 0 {
                0.0
            } else {
                r.shard_windows as f64 / r.shard_syncs as f64
            };
            println!(
                "shards={shards} ({backend}) wall_us={wall_us} events={} \
                 ev_per_sec={eps:.0} speedup_vs_1={speedup:.2}x detected={} \
                 epoch={} windows={} syncs={} windows_per_sync={amort:.1} \
                 shard_events={:?}",
                r.stats.events,
                r.detected,
                r.shard_epoch,
                r.shard_windows,
                r.shard_syncs,
                r.shard_events
            );
            record(&format!("shards{shards}{suffix}"), &r, wall_us, eps);
        }
    }
}
