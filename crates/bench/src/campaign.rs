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
//! The pool size comes from `FP_THREADS` (falling back to the machine's
//! available parallelism), so `FP_THREADS=1` reproduces the serial harness
//! exactly and any other value produces the same bytes, faster. Binaries
//! build their full spec list up front in the order the serial code ran
//! trials, call [`Campaign::run`] once, then aggregate the results walking
//! that same order.

use flowpulse::prelude::{run_trial, TrialResult, TrialSpec};
use fp_netsim::engine::{SchedKind, SchedStats};
use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-trial accounting captured by [`Campaign::run_logged`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TrialTiming {
    /// Index within the sweep's spec list.
    pub idx: usize,
    /// The spec's master seed.
    pub seed: u64,
    /// Wall-clock the trial took, microseconds.
    pub wall_us: u64,
    /// Engine events the trial processed.
    pub events: u64,
}

impl TrialTiming {
    /// Engine events per wall-clock second (0 when the clock read 0 µs).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            0.0
        } else {
            self.events as f64 * 1e6 / self.wall_us as f64
        }
    }
}

/// A fixed-size worker pool for trial sweeps.
pub struct Campaign {
    threads: usize,
}

impl Campaign {
    /// Pool sized from `FP_THREADS`, or the machine's available parallelism
    /// when the variable is unset or empty. Anything but a positive integer
    /// panics, see [`fp_netsim::config::env_setting`].
    pub fn from_env() -> Campaign {
        let threads = fp_netsim::config::env_setting("FP_THREADS", "a positive integer", |v| {
            v.parse::<usize>().ok().filter(|&n| n > 0)
        })
        .unwrap_or_else(|| crate::host_parallelism() as usize);
        Campaign::with_threads(threads)
    }

    /// Pool of exactly `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Campaign {
        Campaign {
            threads: threads.max(1),
        }
    }

    /// Worker count this campaign will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every spec, returning results in input order.
    pub fn run(&self, specs: &[TrialSpec]) -> Vec<TrialResult> {
        self.map(specs, run_trial)
    }

    /// [`run`](Campaign::run) with per-trial accounting: each trial's
    /// wall-clock and engine events/second are appended to
    /// `results/campaign_log.txt` in the stable format of
    /// [`log_trials_to`], and — when `FP_TELEMETRY` is set — a
    /// `manifest.json` describing the whole run (specs, seeds, revision,
    /// totals) is written to `$FP_TELEMETRY/<name>/`. The trial results
    /// themselves are byte-identical to [`run`](Campaign::run): timing
    /// never feeds back into simulation.
    pub fn run_logged(&self, name: &str, specs: &[TrialSpec]) -> Vec<TrialResult> {
        let t0 = Instant::now();
        let timed = self.map(specs, |s| {
            let t = Instant::now();
            let r = run_trial(s);
            (r, t.elapsed().as_micros() as u64)
        });
        let wall_us_total = (t0.elapsed().as_micros() as u64).max(1);
        let mut results = Vec::with_capacity(timed.len());
        let mut timings = Vec::with_capacity(timed.len());
        for (idx, (r, wall_us)) in timed.into_iter().enumerate() {
            timings.push(TrialTiming {
                idx,
                seed: specs[idx].seed,
                wall_us,
                events: r.stats.events,
            });
            results.push(r);
        }
        let log_path = crate::out_dir().join("campaign_log.txt");
        if let Err(e) = log_trials_to(&log_path, name, self.threads, &timings, wall_us_total) {
            eprintln!(
                "warning: cannot append campaign log {}: {e}",
                log_path.display()
            );
        }
        let (sched_kind, sched) = aggregate_sched(&results);
        let (memo_hits, memo_replayed_events) = aggregate_memo(&results);
        let events_total: u64 = timings.iter().map(|t| t.events).sum();
        match crate::record_bench(&crate::BenchEntry {
            name: name.to_string(),
            git: fp_telemetry::git_describe(),
            scheduler: sched_kind.name().to_string(),
            threads: self.threads as u64,
            host_parallelism: crate::host_parallelism(),
            quick: crate::quick(),
            trials: specs.len() as u64,
            wall_us: wall_us_total,
            events: events_total,
            events_per_sec: events_total as f64 * 1e6 / wall_us_total as f64,
            sched_pushes: sched.pushes,
            memo_hits,
            memo_replayed_events,
            tt_detect_ns: None,
            tt_mitigate_ns: None,
            false_mitigations: None,
            service_latency: None,
        }) {
            Ok(Some(p)) => println!("[bench {}]", p.display()),
            Ok(None) => {}
            Err(e) => eprintln!("warning: cannot update bench json: {e}"),
        }
        if let Some(dir) = fp_telemetry::dir_from_env() {
            let m = campaign_manifest(
                name,
                self.threads,
                specs,
                &timings,
                wall_us_total,
                sched_kind,
                &sched,
                (memo_hits, memo_replayed_events),
            );
            let mdir = dir.join(name);
            match m.write(&mdir) {
                Ok(()) => println!("[manifest {}]", mdir.join("manifest.json").display()),
                Err(e) => eprintln!("warning: cannot write manifest in {}: {e}", mdir.display()),
            }
        }
        results
    }
}

/// Aggregate scheduler identity and occupancy counters over a campaign's
/// results (max of high-water marks, sums of traffic counters). The kind is
/// taken from the first trial; campaigns never mix backends unless a spec
/// explicitly pins one, in which case the first trial's still describes the
/// headline run.
pub fn aggregate_sched(results: &[TrialResult]) -> (SchedKind, SchedStats) {
    let kind = results.first().map(|r| r.sched_kind).unwrap_or_default();
    let mut agg = SchedStats::default();
    for r in results {
        agg.merge(&r.sched);
    }
    (kind, agg)
}

/// Aggregate temporal-symmetry memoization accounting over a campaign's
/// results: total fast-forwarded spans and the engine events those spans
/// account for (both 0 when memoization was off or never converged).
pub fn aggregate_memo(results: &[TrialResult]) -> (u64, u64) {
    results.iter().fold((0, 0), |(h, e), r| {
        (h + r.memo_hits, e + r.memo_replayed_events)
    })
}

/// Build the self-describing [`fp_telemetry::Manifest`] for one campaign.
#[allow(clippy::too_many_arguments)]
pub fn campaign_manifest(
    name: &str,
    threads: usize,
    specs: &[TrialSpec],
    timings: &[TrialTiming],
    wall_us_total: u64,
    sched_kind: SchedKind,
    sched: &SchedStats,
    memo: (u64, u64),
) -> fp_telemetry::Manifest {
    let events_total: u64 = timings.iter().map(|t| t.events).sum();
    fp_telemetry::Manifest {
        name: name.to_string(),
        git: fp_telemetry::git_describe(),
        threads: threads as u64,
        host_parallelism: crate::host_parallelism(),
        quick: crate::quick(),
        trials: specs.len() as u64,
        seeds: specs.iter().map(|s| s.seed).collect(),
        wall_us_total,
        events_total,
        events_per_sec: if wall_us_total == 0 {
            0.0
        } else {
            events_total as f64 * 1e6 / wall_us_total as f64
        },
        scheduler: sched_kind.name().to_string(),
        memo_hits: memo.0,
        memo_replayed_events: memo.1,
        sched: sched.to_value(),
        specs: specs.to_value(),
        ctrl: serde::Value::Null,
    }
}

/// Append one campaign's per-trial accounting to `path` in a stable,
/// line-oriented format (one `trial` line per spec, then one `total` line):
///
/// ```text
/// # campaign <name> git=<describe> threads=<n> trials=<n>
/// trial <name>[<idx>] seed=<seed> wall_us=<µs> events=<n> ev_per_sec=<n>
/// total <name> wall_us=<µs> events=<n> ev_per_sec=<n>
/// ```
///
/// `ev_per_sec` on the `total` line is aggregate throughput — summed
/// events over the campaign's wall-clock, which exceeds any single trial's
/// rate when the pool runs trials in parallel.
pub fn log_trials_to(
    path: &Path,
    name: &str,
    threads: usize,
    timings: &[TrialTiming],
    wall_us_total: u64,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "# campaign {name} git={} threads={threads} trials={}",
        fp_telemetry::git_describe(),
        timings.len()
    )?;
    let mut events_total = 0u64;
    for t in timings {
        events_total += t.events;
        writeln!(
            f,
            "trial {name}[{:03}] seed={} wall_us={} events={} ev_per_sec={:.0}",
            t.idx,
            t.seed,
            t.wall_us,
            t.events,
            t.events_per_sec()
        )?;
    }
    let agg = if wall_us_total == 0 {
        0.0
    } else {
        events_total as f64 * 1e6 / wall_us_total as f64
    };
    writeln!(
        f,
        "total {name} wall_us={wall_us_total} events={events_total} ev_per_sec={agg:.0}"
    )
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
        assert_eq!(Campaign::with_threads(0).threads(), 1);
    }

    #[test]
    fn log_trials_format_is_stable() {
        let dir = std::env::temp_dir().join(format!("fp-bench-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("campaign_log.txt");
        let timings = [
            TrialTiming {
                idx: 0,
                seed: 1000,
                wall_us: 2_000_000,
                events: 4_000_000,
            },
            TrialTiming {
                idx: 1,
                seed: 1001,
                wall_us: 1_000_000,
                events: 1_000_000,
            },
        ];
        log_trials_to(&path, "figX", 2, &timings, 2_000_000).unwrap();
        // Appending a second campaign must not clobber the first.
        log_trials_to(&path, "figY", 1, &timings[..1], 2_000_000).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("# campaign figX git="));
        assert!(lines[0].ends_with("threads=2 trials=2"));
        assert_eq!(
            lines[1],
            "trial figX[000] seed=1000 wall_us=2000000 events=4000000 ev_per_sec=2000000"
        );
        assert_eq!(
            lines[2],
            "trial figX[001] seed=1001 wall_us=1000000 events=1000000 ev_per_sec=1000000"
        );
        // Aggregate: 5M events over 2s of campaign wall — 2.5M ev/s, more
        // than either trial alone (parallelism shows up here).
        assert_eq!(
            lines[3],
            "total figX wall_us=2000000 events=5000000 ev_per_sec=2500000"
        );
        assert!(lines[4].starts_with("# campaign figY"));
        assert_eq!(lines.len(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_manifest_totals() {
        let specs = vec![
            TrialSpec {
                seed: 7,
                ..TrialSpec::default()
            },
            TrialSpec {
                seed: 8,
                ..TrialSpec::default()
            },
        ];
        let timings = [
            TrialTiming {
                idx: 0,
                seed: 7,
                wall_us: 500_000,
                events: 3_000_000,
            },
            TrialTiming {
                idx: 1,
                seed: 8,
                wall_us: 500_000,
                events: 1_000_000,
            },
        ];
        let stats = SchedStats {
            max_pending: 42,
            ..SchedStats::default()
        };
        let m = campaign_manifest(
            "demo",
            4,
            &specs,
            &timings,
            1_000_000,
            SchedKind::Wheel,
            &stats,
            (5, 2_000),
        );
        assert_eq!(m.trials, 2);
        assert!(m.host_parallelism >= 1);
        assert_eq!(m.memo_hits, 5);
        assert_eq!(m.memo_replayed_events, 2_000);
        assert_eq!(m.seeds, vec![7, 8]);
        assert_eq!(m.events_total, 4_000_000);
        assert!((m.events_per_sec - 4_000_000.0).abs() < 1e-6);
        assert_eq!(m.scheduler, "wheel");
        // Slot-occupancy stats are embedded as a map.
        let sched = m.sched.as_map().expect("sched is a map");
        assert!(sched
            .iter()
            .any(|(k, v)| k == "max_pending" && v.as_u64() == Some(42)));
        // The spec list is embedded verbatim.
        assert_eq!(m.specs.as_seq().map(<[serde::Value]>::len), Some(2));
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
        let mut wheel_spec = spec.clone();
        wheel_spec.sim.sched = Some(SchedKind::Wheel);
        let results = vec![run_trial(&wheel_spec), run_trial(&wheel_spec)];
        let (kind, agg) = aggregate_sched(&results);
        assert_eq!(kind, SchedKind::Wheel);
        let one = results[0].sched;
        assert!(agg.max_pending >= one.max_pending);
        assert_eq!(
            agg.level_pushes.iter().sum::<u64>(),
            2 * one.level_pushes.iter().sum::<u64>()
        );
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
