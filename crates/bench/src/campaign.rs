//! Parallel, deterministic trial campaigns.
//!
//! Every fp-bench binary is a sweep over independent [`TrialSpec`]s: tens of
//! self-contained simulations, each seeded from its spec. A [`Campaign`]
//! fans those trials out over a worker pool while keeping the output
//! *byte-identical* to a serial run:
//!
//! * each trial's randomness derives entirely from the spec it was built
//!   from (`TrialSpec::seed`), never from execution order, thread identity
//!   or wall-clock time;
//! * results come back in input order no matter which worker finished first.
//!
//! The pool size comes from [`RunConfig::threads`] (`FP_THREADS`, falling
//! back to the machine's available parallelism), so `FP_THREADS=1`
//! reproduces the serial harness exactly and any other value produces the
//! same bytes, faster. Binaries build their full list up front in the
//! order the serial code ran trials, run it once through
//! [`RunConfig::run_logged`] (a detection sweep through
//! [`RunConfig::run_grid`]), then aggregate the results walking that same
//! order.

use crate::config::RunConfig;
use flowpulse::prelude::{run_trial, TrialResult, TrialSpec};
use fp_netsim::engine::SchedStats;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Logical cores this host exposes (`std::thread::available_parallelism`).
pub(crate) fn host_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// A fixed-size worker pool for trial sweeps.
pub struct Campaign {
    threads: usize,
}

impl Campaign {
    /// Pool of exactly `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Campaign {
        Campaign {
            threads: threads.max(1),
        }
    }

    /// Run every spec, returning results in input order.
    pub fn run(&self, specs: &[TrialSpec]) -> Vec<TrialResult> {
        self.map(specs, run_trial)
    }
}

impl RunConfig {
    /// `run` over `items` on the configured pool, results in input order,
    /// plus — when `FP_TELEMETRY` is set — a `manifest.json` describing the
    /// whole run (configuration, each item's `spec`, seeds, revision,
    /// totals, and `ctrl`, the controller sweep that rode it or `Null`)
    /// written to `$FP_TELEMETRY/<name>/`. The trial results are
    /// byte-identical to a serial run: timing never feeds back into
    /// simulation. A controller is `!Send`, so `run` builds its own.
    pub fn run_logged<I: Sync>(
        &self,
        name: &str,
        items: &[I],
        spec: impl Fn(&I) -> &TrialSpec,
        run: impl Fn(&I) -> TrialResult + Sync,
        ctrl: serde::Value,
    ) -> Vec<TrialResult> {
        let t0 = Instant::now();
        let results = self.campaign().map(items, run);
        let wall_us_total = t0.elapsed().as_micros() as u64;
        let specs: Vec<&TrialSpec> = items.iter().map(spec).collect();
        self.write_manifest(name, &specs, &results, wall_us_total, ctrl);
        results
    }

    /// When `FP_TELEMETRY` is set, write the [`campaign_manifest`] of a
    /// finished campaign to `$FP_TELEMETRY/<name>/manifest.json`; nothing
    /// otherwise. `ctrl` is the controller sweep that rode it (`Null` for
    /// controller-less campaigns). A manifest that cannot be written is a
    /// warning, not a failed sweep.
    pub fn write_manifest(
        &self,
        name: &str,
        specs: &[&TrialSpec],
        results: &[TrialResult],
        wall_us_total: u64,
        ctrl: serde::Value,
    ) {
        let Some(dir) = &self.telemetry else {
            return;
        };
        let m = campaign_manifest(name, self, specs, results, wall_us_total, ctrl);
        let mdir = dir.join(name);
        match m.write(&mdir) {
            Ok(()) => println!("[manifest {}]", mdir.join("manifest.json").display()),
            Err(e) => eprintln!("warning: cannot write manifest in {}: {e}", mdir.display()),
        }
    }
}

/// Aggregate scheduler occupancy counters over a campaign's results (max
/// of high-water marks, sums of traffic counters).
fn aggregate_sched(results: &[TrialResult]) -> SchedStats {
    let mut agg = SchedStats::default();
    for r in results {
        agg.merge(&r.sched);
    }
    agg
}

/// Aggregate temporal-symmetry memoization accounting over a campaign's
/// results: total fast-forwarded spans and the engine events those spans
/// account for (both 0 when memoization was off or never converged).
fn aggregate_memo(results: &[TrialResult]) -> (u64, u64) {
    results.iter().fold((0, 0), |(h, e), r| {
        (h + r.memo_hits, e + r.memo_replayed_events)
    })
}

/// Build the self-describing [`fp_telemetry::Manifest`] for one campaign
/// from the configuration it ran under, its specs, their results (same
/// order), the wall-clock the whole campaign took and its controller sweep.
fn campaign_manifest(
    name: &str,
    cfg: &RunConfig,
    specs: &[&TrialSpec],
    results: &[TrialResult],
    wall_us_total: u64,
    ctrl: serde::Value,
) -> fp_telemetry::Manifest {
    let sched = aggregate_sched(results);
    let (memo_hits, memo_replayed_events) = aggregate_memo(results);
    let events_total: u64 = results.iter().map(|r| r.stats.events).sum();
    fp_telemetry::Manifest {
        name: name.to_string(),
        git: fp_telemetry::git_describe(),
        config: cfg.to_value(),
        host_parallelism: host_parallelism(),
        trials: specs.len() as u64,
        seeds: specs.iter().map(|s| s.seed).collect(),
        wall_us_total,
        events_total,
        events_per_sec: if wall_us_total == 0 {
            0.0
        } else {
            events_total as f64 * 1e6 / wall_us_total as f64
        },
        memo_hits,
        memo_replayed_events,
        sched: sched.to_value(),
        specs: specs.to_value(),
        ctrl,
    }
}

impl Campaign {
    /// Apply `f` to every item on the pool, returning outputs in input
    /// order. Items are claimed through a shared atomic cursor, so workers
    /// self-balance across uneven trial costs; a panicking worker is
    /// propagated after the scope joins.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let parts: Vec<Vec<(usize, O)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            done.push((i, f(&items[i])));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut slots: Vec<Option<O>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for part in parts {
            for (i, v) in part {
                debug_assert!(slots[i].is_none(), "index {i} produced twice");
                slots[i] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|o| o.expect("work cursor covers every index"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = Campaign::with_threads(4).map(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_handles_fewer_items_than_workers() {
        let out = Campaign::with_threads(8).map(&[5u32], |&x| x + 1);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn map_on_empty_input() {
        let out = Campaign::with_threads(4).map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Campaign::with_threads(0).threads, 1);
    }

    /// What `FP_SPRAY` asked for is what the manifest says ran: in its
    /// `config` object and in every echoed spec, beside the spec's own memo
    /// request.
    #[test]
    fn campaign_manifest_totals_and_echo() {
        let cfg = RunConfig::from_vars(|key| match key {
            "FP_SPRAY" => Some("reps".into()),
            "FP_THREADS" => Some("2".into()),
            _ => None,
        })
        .unwrap();
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            bytes_per_node: 64 * 1024,
            iterations: 1,
            seed: 7,
            memo: Some(true),
            ..cfg.base_spec()
        };
        let specs = vec![
            spec.clone(),
            TrialSpec {
                seed: 8,
                ..spec.clone()
            },
        ];
        let results = cfg.campaign().run(&specs);
        let m = campaign_manifest(
            "demo",
            &cfg,
            &[&specs[0], &specs[1]],
            &results,
            1_000_000,
            serde::Value::Null,
        );
        assert_eq!(m.trials, 2);
        assert!(m.host_parallelism >= 1);
        assert_eq!(m.seeds, vec![7, 8]);
        let events = results[0].stats.events + results[1].stats.events;
        assert_eq!(m.events_total, events);
        // 1 s of campaign wall: events/s is the event total.
        assert!((m.events_per_sec - events as f64).abs() < 1e-6);
        assert_eq!((m.memo_hits, m.memo_replayed_events), (0, 0));
        // Slot-occupancy stats are embedded as a map.
        let max_pending = results.iter().map(|r| r.sched.max_pending).max();
        let sched = m.sched.as_map().expect("sched is a map");
        assert!(sched
            .iter()
            .any(|(k, v)| k == "max_pending" && v.as_u64() == max_pending));
        let head_arms: u64 = results.iter().map(|r| r.sched.head_arms).sum();
        assert!(head_arms > 0, "no trial armed a head-of-line timer");
        assert!(sched
            .iter()
            .any(|(k, v)| k == "head_arms" && v.as_u64() == Some(head_arms)));

        let get = |v: &serde::Value, key: &str| {
            let map = v.as_map().expect("a JSON object");
            map.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        assert_eq!(
            get(&m.config, "spray"),
            Some(serde::Value::Str("Reps".into()))
        );
        assert_eq!(get(&m.config, "threads"), Some(serde::Value::U64(2)));
        assert_eq!(get(&m.config, "quick"), Some(serde::Value::Bool(false)));
        // The spec list is embedded verbatim.
        let echoed = m.specs.as_seq().expect("specs is a list");
        assert_eq!(echoed.len(), 2);
        for s in echoed {
            assert_eq!(get(s, "memo"), Some(serde::Value::Bool(true)));
            let spray = get(&get(s, "sim").expect("sim"), "spray");
            assert_eq!(spray, Some(serde::Value::Str("Reps".into())));
        }
    }

    #[test]
    fn aggregate_sched_merges_counters() {
        use flowpulse::prelude::run_trial;
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            bytes_per_node: 64 * 1024,
            iterations: 1,
            ..TrialSpec::default()
        };
        let results = vec![run_trial(&spec), run_trial(&spec)];
        let agg = aggregate_sched(&results);
        let one = results[0].sched;
        assert!(agg.max_pending >= one.max_pending);
        assert_eq!(agg.class_pushes, 2 * one.class_pushes);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        Campaign::with_threads(4).map(&items, |&i| {
            if i == 3 {
                panic!("trial {i} exploded");
            }
            i
        });
    }
}
