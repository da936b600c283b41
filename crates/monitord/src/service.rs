//! The monitor service: one worker thread, many streams.
//!
//! Ingested [`CounterSnapshot`]s are batched off the bounded queue and
//! demultiplexed onto per-stream state keyed by fabric, then job. Each
//! stream keeps an [`OpenWindow`] — the cells of the iterations its
//! monitor has not evaluated yet, nothing older — and drives a learned
//! [`Monitor`] over it incrementally — `scan(…, false)` per snapshot,
//! `scan(…, true)` on the stream's final snapshot — which produces an
//! alarm sequence byte-identical to rebuilding a whole [`CounterStore`]
//! with `CounterSnapshot::apply` and scanning it offline once
//! (`Monitor::scan` only ever evaluates closed iterations and never
//! looks back, so neither the split points nor the eviction can
//! matter). On close, the ring localizer correlates the stream's
//! shortfall alarms into cable verdicts. A processed snapshot goes back
//! to its producer over the queue's return lane, carrying its fabric id
//! and the cell buffer its stream's window just evicted, so that the
//! worker frees nothing a decoder allocated.
//!
//! Processing stays single-threaded by design: stream state needs no
//! locks, batch boundaries are the only scheduling unit, and per-stream
//! output is therefore independent of producer interleaving — the
//! property the `FP_THREADS=1|4` determinism gate in `scripts/verify.sh`
//! checks.
//!
//! [`CounterStore`]: fp_netsim::counters::CounterStore

use crate::metrics::MetricsRegistry;
use crate::queue::{IngestQueue, QueuePolicy, QueueStats};
use flowpulse::detector::Detector;
use flowpulse::localizer::{Localizer, RingLocalization};
use flowpulse::monitor::{Alarm, Monitor};
use flowpulse::snapshot::{CounterSnapshot, OpenWindow};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Service tunables; [`Default`] matches the paper-style monitor (1%
/// threshold, 1 warmup iteration, blocking backpressure).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bounded queue capacity, in snapshots.
    pub queue_capacity: usize,
    /// Max snapshots the worker takes per batch.
    pub batch_max: usize,
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
            batch_max: 64,
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
    /// The final `metrics.jsonl` line (also appended to the configured
    /// metrics file, if any).
    pub metrics_final: String,
    /// Prometheus text-exposition dump of the final metrics state.
    pub prometheus: String,
}

struct StreamState {
    window: OpenWindow,
    monitor: Monitor,
    n_leaves: u32,
    n_vspines: u32,
    snapshots: u32,
    closed: bool,
    localization: Option<RingLocalization>,
}

impl StreamState {
    fn new(first: &CounterSnapshot, cfg: &ServiceConfig) -> Self {
        StreamState {
            window: OpenWindow::new(first.job, first.n_leaves, first.n_vspines),
            monitor: Monitor::new_learned(first.job, Detector::new(cfg.threshold), cfg.warmup),
            n_leaves: first.n_leaves,
            n_vspines: first.n_vspines,
            snapshots: 0,
            closed: false,
            localization: None,
        }
    }

    /// `snap` has this stream's fabric shape and one cell per port. Both
    /// dimensions are untrusted wire fields: a `u32` product can wrap, a
    /// `u64` one cannot.
    fn shape_matches(&self, snap: &CounterSnapshot) -> bool {
        (snap.n_leaves, snap.n_vspines) == (self.n_leaves, self.n_vspines)
            && snap.bytes.len() as u64 == u64::from(snap.n_leaves) * u64::from(snap.n_vspines)
    }
}

/// Stream state by fabric, then job: a snapshot finds its stream through
/// `&str`, leaving its own fabric `String` whole for the return lane.
type Streams = BTreeMap<String, BTreeMap<u32, StreamState>>;

struct WorkerOut {
    streams: Streams,
    metrics: MetricsRegistry,
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
    /// Offer one snapshot; see [`IngestQueue::push`] for the policy
    /// semantics behind the returned bool.
    pub fn push(&self, snap: CounterSnapshot) -> bool {
        self.0.push(snap)
    }

    /// Current queue depth (snapshots waiting).
    pub fn depth(&self) -> usize {
        self.0.depth()
    }

    /// Processed snapshots waiting on the return lane; see
    /// [`IngestQueue::spare_buffers`].
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
        let queue = mirror_queue(&mut out.metrics, &self.queue);
        let metrics_final = emit_metrics(&mut out.metrics, None);
        let prometheus = out.metrics.prometheus_text();
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
            prometheus,
        }
    }
}

/// Every metric DESIGN.md §10 documents, so a `metrics.jsonl` line has
/// the same keys whatever happened (or did not) before it.
const COUNTERS: &[&str] = &[
    "ingest_offered",
    "ingest_accepted",
    "ingest_dropped",
    "ingest_blocked",
    "snapshots_processed",
    "alarms_raised",
    "streams_closed",
    "shape_errors",
];
const GAUGES: &[&str] = &[
    "queue_depth",
    "streams_active",
    "ingest_per_sec",
    "open_iters",
    "spare_buffers",
];
const HISTOGRAMS: &[&str] = &[
    "batch_size",
    "queue_depth_at_batch",
    "queue_wait_ns",
    "scan_latency_ns",
    "verdict_latency_ns",
];

fn register_schema(m: &mut MetricsRegistry) {
    for c in COUNTERS {
        m.inc(c, 0);
    }
    for g in GAUGES {
        m.set_gauge(g, 0.0);
    }
    for h in HISTOGRAMS {
        m.register_histogram(h);
    }
}

/// Copy the queue's own accounting into the registry; returns the
/// counters read.
fn mirror_queue(m: &mut MetricsRegistry, queue: &IngestQueue) -> QueueStats {
    let q = queue.stats();
    m.set_counter("ingest_offered", q.offered);
    m.set_counter("ingest_accepted", q.accepted);
    m.set_counter("ingest_dropped", q.dropped);
    m.set_counter("ingest_blocked", q.blocked);
    m.set_gauge("ingest_per_sec", q.accepted as f64 / m.uptime_secs());
    m.set_gauge("spare_buffers", queue.spare_buffers() as f64);
    q
}

/// The largest open-iteration window across streams: 1–2 on a healthy
/// stream, growing only behind a gap the scan is stalled at.
fn set_open_iters(m: &mut MetricsRegistry, streams: &Streams) {
    let windows = streams.values().flat_map(BTreeMap::values);
    let widest = windows.map(|s| s.window.len()).max().unwrap_or(0);
    m.set_gauge("open_iters", widest as f64);
}

/// Emit one metrics line: appended to `sink` when writing periodically,
/// and always returned (the shutdown path stores it in the report).
fn emit_metrics(m: &mut MetricsRegistry, sink: Option<&mut std::fs::File>) -> String {
    let line = m.jsonl_line();
    if let Some(f) = sink {
        if let Err(e) = writeln!(f, "{line}") {
            eprintln!("fp-monitord: cannot append metrics line: {e}");
        }
    }
    line
}

fn run_worker(queue: &IngestQueue, cfg: &ServiceConfig) -> WorkerOut {
    let mut metrics = MetricsRegistry::new();
    register_schema(&mut metrics);
    let mut streams = Streams::new();
    let mut streams_active = 0u64;
    let mut batches = 0u64;
    let mut snapshots = 0u64;
    // Processed snapshots, handed to the return lane with the next pop.
    let mut spent = Vec::new();
    let mut batch = Vec::new();
    let mut evicted = Vec::new();
    let mut sink = cfg.metrics_path.as_ref().map(|p| {
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::File::create(p).expect("create metrics.jsonl")
    });

    while let Some(depth_after) = queue.pop_batch(cfg.batch_max, &mut spent, &mut batch) {
        metrics.observe("batch_size", batch.len() as u64);
        metrics.observe("queue_depth_at_batch", depth_after as u64);
        metrics.set_gauge("queue_depth", depth_after as f64);
        for item in batch.drain(..) {
            snapshots += 1;
            // One clock read ends the snapshot's wait and starts its scan.
            let taken = Instant::now();
            metrics.observe(
                "queue_wait_ns",
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
                streams_active += 1;
                StreamState::new(&snap, cfg)
            });
            if !state.shape_matches(&snap) {
                metrics.inc("shape_errors", 1);
                spent.push(snap);
                continue;
            }
            let alarms_before = state.monitor.alarms.len();
            state
                .window
                .record(snap.iter, std::mem::take(&mut snap.bytes));
            state.monitor.scan(&state.window, snap.last);
            // Nothing here reads the per-iteration diagnostics; left
            // alone they grow by an entry per snapshot for good.
            state.monitor.iter_max_dev.clear();
            state.monitor.learned_events.clear();
            // One evicted buffer rides back in place of the one the window
            // kept; a flush or a closed gap evicts more, freed here.
            state
                .window
                .evict_below(state.monitor.next_iter(), &mut evicted);
            snap.bytes = evicted.pop().unwrap_or_default();
            evicted.clear();
            metrics.observe("scan_latency_ns", taken.elapsed().as_nanos() as u64);
            metrics.inc("snapshots_processed", 1);
            metrics.inc(
                "alarms_raised",
                (state.monitor.alarms.len() - alarms_before) as u64,
            );
            state.snapshots += 1;
            if snap.last && !state.closed {
                let t0 = Instant::now();
                let loc = Localizer::default()
                    .localize_ring_alarms(&state.monitor.alarms, state.n_leaves);
                // No shortfall anywhere: the stream closes without a verdict.
                if loc != RingLocalization::default() {
                    state.localization = Some(loc);
                }
                metrics.observe("verdict_latency_ns", t0.elapsed().as_nanos() as u64);
                state.closed = true;
                metrics.inc("streams_closed", 1);
            }
            spent.push(snap);
        }
        batches += 1;
        metrics.set_gauge("streams_active", streams_active as f64);
        if cfg.metrics_every_batches > 0 && batches.is_multiple_of(cfg.metrics_every_batches) {
            set_open_iters(&mut metrics, &streams);
            mirror_queue(&mut metrics, queue);
            emit_metrics(&mut metrics, sink.as_mut());
        }
    }
    // Final line so short runs still leave a complete metrics.jsonl.
    set_open_iters(&mut metrics, &streams);
    mirror_queue(&mut metrics, queue);
    emit_metrics(&mut metrics, sink.as_mut());
    WorkerOut {
        streams,
        metrics,
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
            batch_max: 4,
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
        for h in HISTOGRAMS {
            let count = metric(&report.metrics_final, "histograms", h)
                .and_then(|h| metric_field(&h, "count"))
                .and_then(|c| c.as_u64());
            assert!(count > Some(0), "histogram {h} recorded nothing");
        }
        let processed = metric(&report.metrics_final, "counters", "snapshots_processed")
            .and_then(|v| v.as_u64())
            .unwrap();
        assert_eq!(processed, 4);
        assert!(report
            .prometheus
            .contains("fp_monitord_snapshots_processed_total 4"));
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

    #[test]
    fn idle_service_emits_the_whole_metrics_schema() {
        let report = Monitord::spawn(ServiceConfig::default()).shutdown();
        for (section, names) in [
            ("counters", COUNTERS),
            ("gauges", GAUGES),
            ("histograms", HISTOGRAMS),
        ] {
            for name in names {
                assert!(
                    metric(&report.metrics_final, section, name).is_some(),
                    "idle metrics line lacks {section}.{name}"
                );
            }
        }
        assert!(report
            .prometheus
            .contains("fp_monitord_streams_closed_total 0"));
    }
}
