//! The monitor service: one worker thread, many streams.
//!
//! Ingested [`CounterSnapshot`]s are batched off the bounded queue and
//! demultiplexed onto per-stream state keyed by fabric, then job. Each
//! stream drives a learned [`Monitor`] one snapshot at a time with
//! [`Monitor::score`], the step a trial scores its closed iterations with;
//! the monitor holds the cells of the iterations it has not evaluated
//! yet, nothing older, and flushes them on the stream's final snapshot.
//! That produces an alarm sequence byte-identical to rebuilding a whole
//! [`CounterStore`] with `CounterSnapshot::apply` and scanning it offline
//! once (the monitor only ever evaluates closed iterations and never
//! looks back, so neither the split points nor the eviction can
//! matter). On close, the ring localizer correlates the stream's
//! shortfall alarms into cable verdicts. A processed snapshot goes back
//! to its producer over the queue's return lane, carrying its fabric id
//! and the cell buffer its stream's monitor just evicted, so that the
//! worker frees nothing a decoder allocated.
//!
//! Processing stays single-threaded by design: stream state needs no
//! locks, batch boundaries are the only scheduling unit, and per-stream
//! output is therefore independent of producer interleaving — the
//! property the `FP_THREADS=1|4` determinism gate in `scripts/verify.sh`
//! checks.
//!
//! [`CounterStore`]: fp_netsim::counters::CounterStore

use crate::metrics::Metrics;
use crate::queue::{IngestQueue, QueuePolicy, QueueStats};
use flowpulse::detector::Detector;
use flowpulse::localizer::{Localizer, RingLocalization};
use flowpulse::monitor::{Alarm, Monitor};
use flowpulse::snapshot::CounterSnapshot;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Most snapshots the worker takes off the queue per batch.
const BATCH_MAX: usize = 64;

/// Service tunables; [`Default`] matches the paper-style monitor (1%
/// threshold, 1 warmup iteration, blocking backpressure).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bounded queue capacity, in snapshots.
    pub queue_capacity: usize,
    /// Backpressure policy when the queue is full.
    pub policy: QueuePolicy,
    /// Detection threshold for every stream's monitor.
    pub threshold: f64,
    /// Warmup iterations for every stream's learned baseline.
    pub warmup: u32,
    /// Emit a `metrics.jsonl` line every this many batches (a final line
    /// is always emitted at shutdown; `0` = final line only).
    pub metrics_every_batches: u64,
    /// Where to append `metrics.jsonl` lines (`None` = keep in memory
    /// only; the final line is still returned in the report).
    pub metrics_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            policy: QueuePolicy::Block,
            threshold: 0.01,
            warmup: 1,
            metrics_every_batches: 16,
            metrics_path: None,
        }
    }
}

/// What one `(fabric, job)` stream produced, reported at shutdown.
#[derive(Clone, Serialize, Debug)]
pub struct StreamReport {
    /// Stream fabric id.
    pub fabric: String,
    /// Monitored job.
    pub job: u32,
    /// Snapshots ingested on this stream.
    pub snapshots: u32,
    /// The stream saw its `last` snapshot and was flushed.
    pub closed: bool,
    /// The monitor's full alarm sequence, in raise order.
    pub alarms: Vec<Alarm>,
    /// Ring localization over the stream's shortfall alarms (computed at
    /// close; `None` if the stream never closed or never alarmed).
    pub localization: Option<RingLocalization>,
}

/// Final accounting handed back by [`Monitord::shutdown`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-stream results, sorted by `(fabric, job)`.
    pub streams: Vec<StreamReport>,
    /// Queue backpressure counters.
    pub queue: QueueStats,
    /// Batches the worker processed.
    pub batches: u64,
    /// Snapshots the worker processed.
    pub snapshots: u64,
    /// The final metrics line, in `metrics.jsonl`'s format, taken once
    /// the worker has stopped: the metrics file's last line, when there is
    /// a file.
    pub metrics_final: String,
}

/// One stream's state. Its fabric shape is its monitor's: the first
/// snapshot that [`fits`](Monitor::fits) fixes it.
struct StreamState {
    monitor: Monitor,
    snapshots: u32,
    closed: bool,
    localization: Option<RingLocalization>,
}

/// Stream state by fabric, then job: a snapshot finds its stream through
/// `&str`, leaving its own fabric `String` whole for the return lane.
type Streams = BTreeMap<String, BTreeMap<u32, StreamState>>;

struct WorkerOut {
    streams: Streams,
    metrics: Metrics,
    /// The metrics file, still open for the final line.
    sink: Option<std::fs::File>,
    batches: u64,
    snapshots: u64,
}

/// A running monitor service: a queue plus its worker thread. Get push
/// access with [`handle`](Self::handle), stop and collect results with
/// [`shutdown`](Self::shutdown).
pub struct Monitord {
    queue: Arc<IngestQueue>,
    worker: std::thread::JoinHandle<WorkerOut>,
}

/// Cloneable, thread-safe push handle into a running service.
#[derive(Clone)]
pub struct IngestHandle(pub(crate) Arc<IngestQueue>);

impl IngestHandle {
    /// Offer one snapshot; see `IngestQueue::push` for the policy
    /// semantics behind the returned bool.
    pub fn push(&self, snap: CounterSnapshot) -> bool {
        self.0.push(snap)
    }

    /// Current queue depth (snapshots waiting).
    pub fn depth(&self) -> usize {
        self.0.depth()
    }

    /// Processed snapshots waiting on the return lane; see
    /// `IngestQueue::spare_buffers`.
    pub fn spare_buffers(&self) -> usize {
        self.0.spare_buffers()
    }
}

impl Monitord {
    /// Start the service: allocates the queue and spawns the worker.
    pub fn spawn(cfg: ServiceConfig) -> Monitord {
        let queue = Arc::new(IngestQueue::new(cfg.queue_capacity, cfg.policy));
        let worker_q = Arc::clone(&queue);
        let worker = std::thread::Builder::new()
            .name("fp-monitord".into())
            .spawn(move || run_worker(&worker_q, &cfg))
            .expect("spawn monitord worker");
        Monitord { queue, worker }
    }

    /// A push handle for producers (cloneable across threads).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle(Arc::clone(&self.queue))
    }

    /// Close the queue, drain it, join the worker, and report.
    pub fn shutdown(self) -> ServiceReport {
        self.queue.close();
        let mut out = self.worker.join().expect("monitord worker panicked");
        // One final line, so short runs still leave a complete metrics.jsonl.
        set_open_iters(&mut out.metrics, &out.streams);
        let queue = mirror_queue(&mut out.metrics, &self.queue);
        let metrics_final = emit_metrics(&mut out.metrics, out.sink.as_mut());
        let streams = out
            .streams
            .into_iter()
            .flat_map(|(fabric, jobs)| {
                jobs.into_iter().map(move |(job, s)| StreamReport {
                    fabric: fabric.clone(),
                    job,
                    snapshots: s.snapshots,
                    closed: s.closed,
                    alarms: s.monitor.alarms,
                    localization: s.localization,
                })
            })
            .collect();
        ServiceReport {
            streams,
            queue,
            batches: out.batches,
            snapshots: out.snapshots,
            metrics_final,
        }
    }
}

/// Copy the queue's own accounting into the metrics; returns the
/// counters read.
fn mirror_queue(m: &mut Metrics, queue: &IngestQueue) -> QueueStats {
    let q = queue.stats();
    let per_sec = q.accepted as f64 / m.uptime_secs();
    let (c, g) = (&mut m.line.counters, &mut m.line.gauges);
    c.ingest_offered = q.offered;
    c.ingest_accepted = q.accepted;
    c.ingest_dropped = q.dropped;
    c.ingest_blocked = q.blocked;
    g.ingest_per_sec = per_sec;
    g.spare_buffers = queue.spare_buffers() as f64;
    q
}

/// The most open iterations a stream's monitor holds: 1–2 on a healthy
/// stream, growing only behind a gap the scan is stalled at.
fn set_open_iters(m: &mut Metrics, streams: &Streams) {
    let states = streams.values().flat_map(BTreeMap::values);
    let widest = states.map(|s| s.monitor.open_iters()).max().unwrap_or(0);
    m.line.gauges.open_iters = widest as f64;
}

/// Emit one metrics line: appended to `sink` when there is a file, and
/// always returned (the shutdown path stores it in the report).
fn emit_metrics(m: &mut Metrics, sink: Option<&mut std::fs::File>) -> String {
    let line = m.jsonl_line();
    if let Some(f) = sink {
        if let Err(e) = writeln!(f, "{line}") {
            eprintln!("fp-monitord: cannot append metrics line: {e}");
        }
    }
    line
}

fn run_worker(queue: &IngestQueue, cfg: &ServiceConfig) -> WorkerOut {
    let mut metrics = Metrics::new();
    let mut streams = Streams::new();
    let mut batches = 0u64;
    let mut snapshots = 0u64;
    // Processed snapshots, handed to the return lane with the next pop.
    let mut spent = Vec::new();
    let mut batch = Vec::new();
    let mut sink = cfg.metrics_path.as_ref().map(|p| {
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::File::create(p).expect("create metrics.jsonl")
    });

    while let Some(depth_after) = queue.pop_batch(BATCH_MAX, &mut spent, &mut batch) {
        let m = &mut metrics.line;
        m.histograms.batch_size.record(batch.len() as u64);
        m.histograms.queue_depth_at_batch.record(depth_after as u64);
        m.gauges.queue_depth = depth_after as f64;
        for item in batch.drain(..) {
            snapshots += 1;
            // One clock read ends the snapshot's wait and starts its scan.
            let taken = Instant::now();
            m.histograms.queue_wait_ns.record(
                taken
                    .duration_since(item.enqueued)
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64,
            );
            let mut snap = item.snap;
            let jobs = match streams.get_mut(snap.fabric.as_str()) {
                Some(jobs) => jobs,
                None => streams.entry(snap.fabric.clone()).or_default(),
            };
            let state = jobs.entry(snap.job).or_insert_with(|| {
                m.gauges.streams_active += 1.0;
                StreamState {
                    monitor: Monitor::new_learned(
                        snap.job,
                        Detector::new(cfg.threshold),
                        cfg.warmup,
                    ),
                    snapshots: 0,
                    closed: false,
                    localization: None,
                }
            });
            if !state.monitor.fits(&snap) {
                m.counters.shape_errors += 1;
                spent.push(snap);
                continue;
            }
            let alarms_before = state.monitor.alarms.len();
            // A spent buffer rides back in place of the one the monitor kept.
            state.monitor.score(&mut snap);
            // Nothing here reads the per-iteration diagnostics; left
            // alone they grow by an entry per snapshot for good.
            state.monitor.iter_max_dev.clear();
            state.monitor.learned_events.clear();
            m.histograms
                .scan_latency_ns
                .record(taken.elapsed().as_nanos() as u64);
            m.counters.snapshots_processed += 1;
            m.counters.alarms_raised += (state.monitor.alarms.len() - alarms_before) as u64;
            state.snapshots += 1;
            if snap.last && !state.closed {
                let t0 = Instant::now();
                let leaves = state
                    .monitor
                    .n_leaves()
                    .expect("a scored snapshot fixed it");
                let loc = Localizer::default().localize_ring_alarms(&state.monitor.alarms, leaves);
                // No shortfall anywhere: the stream closes without a verdict.
                if loc != RingLocalization::default() {
                    state.localization = Some(loc);
                }
                m.histograms
                    .verdict_latency_ns
                    .record(t0.elapsed().as_nanos() as u64);
                state.closed = true;
                m.counters.streams_closed += 1;
            }
            spent.push(snap);
        }
        batches += 1;
        if cfg.metrics_every_batches > 0 && batches.is_multiple_of(cfg.metrics_every_batches) {
            set_open_iters(&mut metrics, &streams);
            mirror_queue(&mut metrics, queue);
            emit_metrics(&mut metrics, sink.as_mut());
        }
    }
    WorkerOut {
        streams,
        metrics,
        sink,
        batches,
        snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built snapshot stream: `iters` iterations over a 4-leaf ×
    /// 2-vspine fabric, all ports at 1000 bytes except — when `faulty` —
    /// ports (1,0) and (2,0) sag to 900 from iteration 2 on (the paired
    /// alarm pattern of a ring cable fault at (1,0)).
    fn stream(fabric: &str, iters: u32, faulty: bool) -> Vec<CounterSnapshot> {
        (0..iters)
            .map(|i| {
                let mut bytes = vec![1000u64; 8];
                if faulty && i >= 2 {
                    bytes[2] = 900; // (leaf 1, vspine 0)
                    bytes[4] = 900; // (leaf 2, vspine 0)
                }
                CounterSnapshot {
                    fabric: fabric.into(),
                    job: 1,
                    iter: i,
                    n_leaves: 4,
                    n_vspines: 2,
                    t_ns: 1000 * u64::from(i),
                    bytes,
                    last: i + 1 == iters,
                }
            })
            .collect()
    }

    /// Offline reference: rebuild the store from the same snapshots and
    /// scan once with flush.
    fn offline_alarms(snaps: &[CounterSnapshot], cfg: &ServiceConfig) -> Vec<Alarm> {
        let mut store = snaps[0].new_store();
        for s in snaps {
            s.apply(&mut store);
        }
        let mut m = Monitor::new_learned(snaps[0].job, Detector::new(cfg.threshold), cfg.warmup);
        m.scan(&store, true);
        m.alarms
    }

    /// One entry of a `metrics.jsonl` line, e.g. `("gauges", "open_iters")`.
    fn metric(line: &str, section: &str, name: &str) -> Option<serde::Value> {
        let v: serde::Value = serde_json::from_str(line).unwrap();
        metric_field(&metric_field(&v, section)?, name)
    }

    fn metric_field(v: &serde::Value, key: &str) -> Option<serde::Value> {
        let (_, found) = v.as_map()?.iter().find(|(k, _)| k == key)?;
        Some(found.clone())
    }

    #[test]
    fn per_stream_alarms_match_offline_monitor_byte_for_byte() {
        let cfg = ServiceConfig {
            queue_capacity: 8, // force backpressure
            ..Default::default()
        };
        let svc = Monitord::spawn(cfg.clone());
        let handle = svc.handle();
        // 32 concurrent streams from 4 producer threads, interleaved by
        // iteration so the service sees realistic cross-stream mixing.
        let streams: Vec<Vec<CounterSnapshot>> = (0..32)
            .map(|i| stream(&format!("fabric-{i:03}"), 5, i % 2 == 0))
            .collect();
        std::thread::scope(|s| {
            for chunk in streams.chunks(8) {
                let handle = handle.clone();
                s.spawn(move || {
                    for iter in 0..5 {
                        for st in chunk {
                            assert!(handle.push(st[iter].clone()));
                        }
                    }
                });
            }
        });
        let report = svc.shutdown();
        assert_eq!(report.queue.dropped, 0, "blocking policy must not drop");
        assert!(report.queue.blocked > 0, "capacity 8 must have blocked");
        assert_eq!(report.streams.len(), 32);
        for (i, s) in report.streams.iter().enumerate() {
            assert!(s.closed, "{} never flushed", s.fabric);
            let offline = offline_alarms(&streams[i], &cfg);
            assert_eq!(
                serde_json::to_string(&s.alarms).unwrap(),
                serde_json::to_string(&offline).unwrap(),
                "stream {} alarms diverge from offline monitor",
                s.fabric
            );
            if i % 2 == 0 {
                assert!(!s.alarms.is_empty());
                // The paired (1,0)+(2,0) shortfall pins ring cable (1,0).
                assert_eq!(
                    s.localization.as_ref().unwrap().cables,
                    vec![(1, 0)],
                    "stream {}",
                    s.fabric
                );
            } else {
                assert!(s.alarms.is_empty() && s.localization.is_none());
            }
        }
    }

    #[test]
    fn long_stream_retains_no_per_iteration_diagnostics() {
        let cfg = ServiceConfig::default();
        let snaps = stream("f", 10_000, true);
        let svc = Monitord::spawn(cfg.clone());
        let handle = svc.handle();
        for s in &snaps {
            assert!(handle.push(s.clone()));
        }
        // `shutdown` by hand, to look at the monitor the report drops.
        svc.queue.close();
        let mut out = svc.worker.join().unwrap();
        let state = out.streams.get_mut("f").and_then(|jobs| jobs.remove(&1));
        let state = state.expect("the stream exists");
        assert!(state.monitor.iter_max_dev.is_empty());
        assert!(state.monitor.learned_events.is_empty());
        // What is reported is what it was: every alarm, in order.
        assert_eq!((state.snapshots, state.closed), (10_000, true));
        assert_eq!(state.monitor.alarms, offline_alarms(&snaps, &cfg));
        assert_eq!(state.monitor.alarms.len(), 2 * 9_998);
        assert_eq!(state.localization.unwrap().cables, vec![(1, 0)]);
    }

    #[test]
    fn metrics_cover_queue_depth_and_latencies() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let handle = svc.handle();
        for s in stream("f", 4, true) {
            handle.push(s);
        }
        let report = svc.shutdown();
        let line: serde::Value = serde_json::from_str(&report.metrics_final).unwrap();
        let hists = metric_field(&line, "histograms").unwrap();
        for (name, h) in hists.as_map().unwrap() {
            let count = metric_field(h, "count").and_then(|c| c.as_u64());
            assert!(count > Some(0), "histogram {name} recorded nothing");
        }
        let processed = metric(&report.metrics_final, "counters", "snapshots_processed")
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(processed, 4);
    }

    #[test]
    fn drop_policy_gap_stalls_but_does_not_poison_stream() {
        // Simulate a dropped middle snapshot: the monitor stalls at the
        // gap (never evaluates past it) instead of mis-numbering
        // iterations — lossy ingestion degrades to less coverage, not to
        // wrong alarms.
        let cfg = ServiceConfig::default();
        let svc = Monitord::spawn(cfg);
        let handle = svc.handle();
        let mut snaps = stream("f", 5, true);
        snaps.remove(1); // lose iteration 1
        for s in snaps {
            handle.push(s);
        }
        let report = svc.shutdown();
        let s = &report.streams[0];
        // Iteration 0 closes (iter 2 seen? no — gap at 1 stalls the scan).
        assert!(s.alarms.is_empty());
        assert!(s.closed);
        // The stall is visible: iterations 2, 3 and 4 stay open behind the
        // gap, where a healthy stream ends with none.
        let open = metric(&report.metrics_final, "gauges", "open_iters").unwrap();
        assert_eq!(open.as_f64(), Some(3.0));
    }

    #[test]
    fn shape_check_compares_both_dimensions_without_wrapping() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let handle = svc.handle();
        let good = stream("f", 2, false).remove(0);
        // Self-consistent, right leaf count, wrong vspine count: applying
        // it would scatter its cells with the stream's stride.
        let narrow = CounterSnapshot {
            n_vspines: 1,
            bytes: vec![1000; 4],
            ..good.clone()
        };
        let swapped = CounterSnapshot {
            n_leaves: 2,
            n_vspines: 4,
            ..good.clone()
        };
        // 65536 × 65536 is 0 in `u32`, which an empty matrix would match.
        let wrapping = CounterSnapshot {
            fabric: "g".into(),
            n_leaves: 1 << 16,
            n_vspines: 1 << 16,
            bytes: Vec::new(),
            ..good.clone()
        };
        for s in [good, narrow, swapped, wrapping] {
            handle.push(s);
        }
        let report = svc.shutdown();
        let errors = metric(&report.metrics_final, "counters", "shape_errors").unwrap();
        assert_eq!(errors.as_u64(), Some(3));
        let per_stream: Vec<(&str, u32)> = report
            .streams
            .iter()
            .map(|s| (s.fabric.as_str(), s.snapshots))
            .collect();
        assert_eq!(per_stream, [("f", 1), ("g", 0)]);
    }

    /// A `last` snapshot sent twice (a producer's retry) closes its stream
    /// once: one verdict, one `streams_closed`.
    #[test]
    fn a_repeated_last_snapshot_closes_its_stream_once() {
        let svc = Monitord::spawn(ServiceConfig::default());
        let handle = svc.handle();
        let snaps = stream("f", 4, true);
        for s in snaps.iter().chain(snaps.last()) {
            handle.push(s.clone());
        }
        let report = svc.shutdown();
        let closed = metric(&report.metrics_final, "counters", "streams_closed").unwrap();
        assert_eq!(closed.as_u64(), Some(1));
        let verdicts = metric(&report.metrics_final, "histograms", "verdict_latency_ns")
            .and_then(|h| metric_field(&h, "count"))
            .and_then(|c| c.as_u64());
        assert_eq!(verdicts, Some(1));
        let s = &report.streams[0];
        assert_eq!((s.snapshots, s.closed), (5, true));
        assert_eq!(s.localization.as_ref().unwrap().cables, vec![(1, 0)]);
    }

    /// A stream's shape is fixed by its first snapshot that fits, not by
    /// its first snapshot: one whose cells do not fill its own dimensions
    /// is refused and leaves the shape open.
    #[test]
    fn a_malformed_first_snapshot_does_not_fix_the_shape() {
        let cfg = ServiceConfig::default();
        let svc = Monitord::spawn(cfg.clone());
        let handle = svc.handle();
        let snaps = stream("f", 4, true);
        handle.push(CounterSnapshot {
            n_leaves: 2,
            bytes: vec![1000; 3],
            ..snaps[0].clone()
        });
        for s in &snaps {
            handle.push(s.clone());
        }
        let report = svc.shutdown();
        let errors = metric(&report.metrics_final, "counters", "shape_errors").unwrap();
        assert_eq!(errors.as_u64(), Some(1));
        let s = &report.streams[0];
        assert_eq!((s.snapshots, s.closed), (4, true));
        assert_eq!(s.alarms, offline_alarms(&snaps, &cfg));
    }

    /// An idle service's final line, with its one host-dependent figure,
    /// `uptime_us`, written as `_`: every metric, at zero, in the order
    /// `metrics.jsonl` readers see.
    const IDLE_LINE: &str = concat!(
        r#"{"seq":1,"uptime_us":_,"#,
        r#""counters":{"alarms_raised":0,"ingest_accepted":0,"ingest_blocked":0,"#,
        r#""ingest_dropped":0,"ingest_offered":0,"shape_errors":0,"#,
        r#""snapshots_processed":0,"streams_closed":0},"#,
        r#""gauges":{"ingest_per_sec":0.0,"open_iters":0.0,"queue_depth":0.0,"#,
        r#""spare_buffers":0.0,"streams_active":0.0},"#,
        r#""histograms":{"#,
        r#""batch_size":{"count":0,"sum":0,"min":null,"max":null,"buckets":[]},"#,
        r#""queue_depth_at_batch":{"count":0,"sum":0,"min":null,"max":null,"buckets":[]},"#,
        r#""queue_wait_ns":{"count":0,"sum":0,"min":null,"max":null,"buckets":[]},"#,
        r#""scan_latency_ns":{"count":0,"sum":0,"min":null,"max":null,"buckets":[]},"#,
        r#""verdict_latency_ns":{"count":0,"sum":0,"min":null,"max":null,"buckets":[]}}}"#,
    );

    #[test]
    fn the_metrics_file_ends_with_metrics_final() {
        let path = std::env::temp_dir().join(format!(
            "fp-monitord-metrics-{}/metrics.jsonl",
            std::process::id()
        ));
        let cfg = ServiceConfig {
            metrics_every_batches: 1,
            metrics_path: Some(path.clone()),
            ..Default::default()
        };
        let svc = Monitord::spawn(cfg);
        for s in stream("f", 5, true) {
            assert!(svc.handle().push(s));
        }
        let report = svc.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.last(), Some(&report.metrics_final.as_str()));
        // Every line is emitted once: `seq` counts the file's lines.
        let seq = metric_field(&serde_json::from_str(lines.last().unwrap()).unwrap(), "seq");
        assert_eq!(seq.and_then(|v| v.as_u64()), Some(lines.len() as u64));
    }

    #[test]
    fn idle_service_emits_the_whole_metrics_schema() {
        let report = Monitord::spawn(ServiceConfig::default()).shutdown();
        let (head, rest) = report.metrics_final.split_once(r#""uptime_us":"#).unwrap();
        let (uptime, tail) = rest.split_once(',').unwrap();
        assert!(uptime.parse::<u64>().is_ok(), "uptime_us {uptime}");
        assert_eq!(format!(r#"{head}"uptime_us":_,{tail}"#), IDLE_LINE);
    }
}
