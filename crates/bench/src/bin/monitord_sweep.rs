//! E10 — monitor-service ingest scaling: sustained snapshots/sec vs
//! concurrent stream count and queue policy.
//!
//! Pre-generates a handful of base trials (mixed clean / drop-fault),
//! then synthesizes N concurrent snapshot streams by replaying their
//! per-iteration counter snapshots under rewritten fabric ids for R
//! rounds, blasted from `FP_THREADS` producer threads into one
//! `fp-monitord` instance, one (streams, policy) cell at a time
//! (`"monitord32_block"`, …). The blocking-policy cells assert the E10
//! acceptance bar: zero drops at ≥ 32 concurrent streams. Each cell's
//! own metrics, its queue-wait and scan-latency histograms among them,
//! land in `results/monitord_metrics_<cell>.jsonl`. How fast the service
//! ingests, and its p50/p99 queue wait and scan latency, are measured by
//! `benchmark/`'s `monitord_ingest` workload (the per-layer rows
//! `monitord.queue.wait_p50_us` / `_p99_us` and
//! `monitord.service.scan_p50_us` / `_p99_us`); the rate printed here is
//! a single reading.
//!
//! The 32-stream blocking cell also saves `results/monitord_alarms.json`
//! — per-stream alarm/localization verdicts, which are byte-identical
//! across producer thread counts (verify.sh compares `FP_THREADS=1`
//! against `4`) and to the offline monitor on the same sequences.

use flowpulse::prelude::*;
use fp_bench::{header, RunConfig};
use fp_monitord::{Monitord, QueuePolicy, ServiceConfig};

/// Synthetic stream: a base snapshot sequence replayed for `rounds`
/// rounds under a fresh fabric id, iteration ids shifted per round.
fn synthesize(base: &[CounterSnapshot], fabric: String, rounds: u32) -> Vec<CounterSnapshot> {
    let iters = base.len() as u32;
    let mut out = Vec::with_capacity(base.len() * rounds as usize);
    for round in 0..rounds {
        for snap in base {
            let mut s = snap.clone();
            s.fabric = fabric.clone();
            s.iter += round * iters;
            s.last = round == rounds - 1 && snap.last;
            out.push(s);
        }
    }
    out
}

fn main() {
    let cfg = RunConfig::from_env();
    header("E10 monitord sweep — snapshots/sec vs streams x queue policy");
    let rounds: u32 = cfg.pick(50, 5);

    // Base trials: two clean, two faulty, learned model (the service's
    // own monitor config), generated once outside the timed region.
    let bases: Vec<Vec<CounterSnapshot>> = (0..4u64)
        .map(|i| {
            let spec = TrialSpec {
                leaves: cfg.pick(16, 8),
                spines: cfg.pick(8, 4),
                bytes_per_node: cfg.pick(8, 2) * 1024 * 1024,
                iterations: cfg.pick(6, 4),
                jitter: fp_collectives::jitter::JitterModel::None,
                model: ModelKind::Learned { warmup: 1 },
                fault: (i % 2 == 0).then_some(FaultSpec {
                    kind: InjectedFault::Drop { rate: 0.02 },
                    at_iter: 2,
                    heal_at_iter: None,
                    bidirectional: false,
                }),
                seed: 9000 + i,
                ..cfg.base_spec()
            };
            run_trial(&spec).snapshots
        })
        .collect();

    let cells: &[(usize, QueuePolicy)] = &[
        (32, QueuePolicy::Block),
        (64, QueuePolicy::Block),
        (32, QueuePolicy::Drop),
    ];
    for &(streams, policy) in cells {
        let name = format!("monitord{streams}_{}", policy.name());
        let feeds: Vec<Vec<CounterSnapshot>> = (0..streams)
            .map(|i| synthesize(&bases[i % bases.len()], format!("fabric-{i:04}"), rounds))
            .collect();
        let total: usize = feeds.iter().map(Vec::len).sum();

        let svc = Monitord::spawn(ServiceConfig {
            queue_capacity: 256,
            policy,
            metrics_path: Some(cfg.out_dir().join(format!("monitord_metrics_{name}.jsonl"))),
            ..Default::default()
        });
        let handle = svc.handle();

        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for p in 0..cfg.threads {
                let chunk: Vec<&Vec<CounterSnapshot>> =
                    feeds.iter().skip(p).step_by(cfg.threads).collect();
                let handle = handle.clone();
                s.spawn(move || {
                    // Round-robin across this producer's streams so the
                    // service sees genuinely interleaved fabrics.
                    let longest = chunk.iter().map(|f| f.len()).max().unwrap_or(0);
                    for idx in 0..longest {
                        for feed in &chunk {
                            if let Some(snap) = feed.get(idx) {
                                handle.push(snap.clone());
                            }
                        }
                    }
                });
            }
        });
        let report = svc.shutdown();
        let wall_us = (t0.elapsed().as_micros() as u64).max(1);
        let eps = report.snapshots as f64 * 1e6 / wall_us as f64;
        println!(
            "{name}: {streams} streams x {} snaps, processed={} in {wall_us} us \
             ({eps:.0} snap/s), dropped={} blocked={} closed={}",
            total / streams,
            report.snapshots,
            report.queue.dropped,
            report.queue.blocked,
            report.streams.iter().filter(|s| s.closed).count(),
        );
        if policy == QueuePolicy::Block {
            assert_eq!(
                report.queue.dropped, 0,
                "blocking policy must be lossless at {streams} streams"
            );
            assert_eq!(report.snapshots as usize, total);
            assert!(report.streams.iter().all(|s| s.closed));
        }
        if streams == 32 && policy == QueuePolicy::Block {
            // Deterministic per-stream verdicts: byte-identical across
            // producer thread counts and vs the offline monitor.
            cfg.save_json("monitord_alarms", &report.streams);
        }
    }
}
