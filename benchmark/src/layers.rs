//! The traced run: per-layer metrics of one workload.
//!
//! Three kinds of number, all taken from outside the program:
//! * **stage** — a timed public call on the unit's own inputs. For trials
//!   that is a staged replica of `run_trial` built from the same public
//!   calls `eval.rs` makes, each inside a span; its `Stats.events` must
//!   equal `run_trial`'s or the run is marked incorrect.
//! * **kernel** — see [`crate::kernels`].
//! * **count** — an exact field of `Stats` / `SchedStats` /
//!   `ServiceReport` from the reference unit.

use crate::decl::PER_LAYER;
use crate::hostclock::{scaled_s, HostClock};
use crate::json;
use crate::kernels;
use crate::measure::{self, rss_kb, Protocol, Run};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    make_inputs, monitord_output, Inputs, Workload, SNAPS_PER_STREAM, STREAMS, SWEEP_THREADS,
};
use flowpulse::analytical::AnalyticalModel;
use flowpulse::detector::Detector;
use flowpulse::eval::{
    build_schedule, run_trial, run_trial_with, InjectedFault, TrialResult, TrialSpec,
};
use flowpulse::model::{PortLoads, PortSrcLoads};
use flowpulse::monitor::Monitor;
use flowpulse::snapshot::CounterSnapshot;
use fp_bench::campaign::Campaign;
use fp_collectives::jitter::JitterModel;
use fp_collectives::runner::{CollectiveRunner, RunnerConfig};
use fp_ctrl::{run_ctrl_trial, CtrlConfig};
use fp_monitord::service::{Monitord, ServiceConfig, ServiceReport};
use fp_monitord::wire::feed_lines;
use fp_netsim::engine::SchedStats;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::rng::splitmix64;
use fp_netsim::sim::Simulator;
use fp_netsim::stats::Stats;
use fp_netsim::topology::{FatTreeSpec, Topology};
use serde::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Traced units per workload.
const TRACED_UNITS: usize = 3;
/// Repetitions of each side of a stage comparison (memo on/off, ...).
const COMPARE_REPS: usize = 3;

pub type Metrics = BTreeMap<&'static str, f64>;

/// What a staged trial hands back for checks and counts.
struct Staged {
    stats: Stats,
    sched: SchedStats,
    memo_hits: u64,
    /// Host milliseconds between consecutive live iteration ends.
    iter_host_ms: Vec<f64>,
}

/// `run_trial` taken apart: the same public calls in the same order as the
/// unsharded, recorder-free, controller-free path of `eval::run_trial_ctl`
/// for a ring collective under the analytical model, one span per stage.
/// `fault_port` comes from the reference `TrialResult` (placement is
/// private to `eval`).
fn staged_trial(t: &mut Tracer, spec: &TrialSpec, fault_port: Option<(u32, u32)>) -> Staged {
    const JOB: u32 = 1;
    let topo = t.span("netsim.topology.build", |_| {
        Topology::fat_tree(FatTreeSpec {
            leaves: spec.leaves,
            spines: spec.spines,
            hosts_per_leaf: spec.hosts_per_leaf,
            parallel_links: spec.parallel_links,
            ..Default::default()
        })
    });
    let sched = t.span("collectives.schedule.build", |_| build_schedule(spec));
    let predicted = t.span("core.analytical.predict", |_| {
        let demand = sched.demand(topo.n_hosts());
        AnalyticalModel::new(&topo, std::iter::empty()).predict(&demand)
    });
    let mut sim = t.span("netsim.sim.new", |_| {
        Simulator::new(topo.clone(), spec.sim.clone(), spec.seed)
    });
    let memo = spec.memo == Some(true) && spec.jitter == JitterModel::None;
    if memo {
        sim.enable_memo(spec.fault.map(|f| vec![f.at_iter]).unwrap_or_default());
    }
    let mut runner = CollectiveRunner::new(
        sched,
        RunnerConfig {
            job: JOB,
            iterations: spec.iterations,
            jitter: spec.jitter,
            jitter_seed: splitmix64(spec.seed ^ 0x717),
            // The hooks below act at the fault iteration (a memo barrier)
            // or only read the host clock.
            memo_barrier_hooks: memo,
            ..Default::default()
        },
    );
    if let (Some(f), Some((leaf, vspine))) = (spec.fault, fault_port) {
        let kind = match f.kind {
            InjectedFault::Drop { rate } => FaultKind::SilentDrop { rate },
            InjectedFault::Blackhole => FaultKind::SilentBlackhole,
            InjectedFault::DstBlackhole => FaultKind::DstBlackhole {
                dst_leaf: leaf as u16,
            },
        };
        let link = topo.downlink(vspine, leaf);
        let mut installed = false;
        runner.set_iteration_start_hook(Box::new(move |sim, iter| {
            if !installed && iter >= f.at_iter {
                installed = true;
                sim.apply_fault_now(link, FaultAction::Set(kind), f.bidirectional);
            }
        }));
    }
    let iter_ends: Rc<RefCell<Vec<(u32, Instant)>>> = Rc::default();
    let ends = Rc::clone(&iter_ends);
    runner.set_iteration_end_hook(Box::new(move |_, iter| {
        ends.borrow_mut().push((iter, Instant::now()));
    }));
    sim.set_app(Box::new(runner));
    t.span("netsim.sim.run", |_| sim.run());
    t.span("core.monitor.scan", |_| {
        let mut monitor =
            Monitor::new_fixed(JOB, Detector::new(spec.threshold), predicted.loads.clone());
        monitor.scan(&sim.counters, true);
        black_box(monitor.alarms.len())
    });
    t.span("core.snapshot.export", |_| {
        black_box(CounterSnapshot::sequence_from(&sim.counters, JOB).len())
    });
    // What `run_trial` does besides the calls above: copy stats, counters
    // and trace out of the simulator and build the per-iteration observed
    // loads. Replicated rather than taken as `run_trial` minus the stages:
    // that difference is far inside the host's noise.
    t.span("core.eval.assemble", |_| {
        let counters = sim.counters.clone();
        let observed: Vec<_> = counters
            .iters_of(JOB)
            .into_iter()
            .filter_map(|i| counters.get(JOB, i))
            .map(|c| (PortLoads::from_counters(c), PortSrcLoads::from_counters(c)))
            .collect();
        black_box((
            sim.stats.clone(),
            sim.trace.to_records().len(),
            observed.len(),
        ))
    });
    let iter_host_ms = iter_ends
        .borrow()
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1)
        .map(|w| w[1].1.duration_since(w[0].1).as_secs_f64() * 1e3)
        .collect();
    Staged {
        stats: sim.stats.clone(),
        sched: sim.sched_stats(),
        memo_hits: sim.memo_counters().map_or(0, |m| m.hits),
        iter_host_ms,
    }
}

/// Median seconds of `reps` calls of `f`, at reference host speed.
fn timed_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut clock = HostClock::start();
    let samples: Vec<f64> = (0..reps).map(|_| clock.time(&mut f).1.scaled_s()).collect();
    median(&samples)
}

/// Median seconds of two alternatives at reference host speed,
/// repetitions interleaved so host drift hits both sides.
fn timed_pair(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    let mut clock = HostClock::start();
    for _ in 0..reps {
        sa.push(clock.time(&mut a).1.scaled_s());
        sb.push(clock.time(&mut b).1.scaled_s());
    }
    (median(&sa), median(&sb))
}

/// `TRACED_UNITS` traced units. Returns their median seconds at reference
/// host speed, to set against the untraced baseline's, and the host speed
/// over all of them: what the spans' wall times are multiplied by.
fn traced_units(tracer: &mut Tracer, mut unit: impl FnMut(&mut Tracer)) -> (f64, f64) {
    let mut clock = HostClock::start();
    let timed: Vec<_> = (0..TRACED_UNITS)
        .map(|_| clock.time(|| tracer.unit("unit", &mut unit)).1)
        .collect();
    let wall: f64 = timed.iter().map(|t| t.wall_s).sum();
    let scaled = scaled_s(&timed);
    (median(&scaled), scaled.iter().sum::<f64>() / wall)
}

fn pct_over(x: f64, base: f64) -> f64 {
    (x / base - 1.0) * 100.0
}

/// Exact counts of the reference trials.
fn trial_counts(results: &[TrialResult], m: &mut Metrics) {
    let mut stats = Stats::default();
    let mut sched = SchedStats::default();
    let (mut hits, mut replayed) = (0u64, 0u64);
    for r in results {
        stats.merge(&r.stats);
        sched.merge(&r.sched);
        hits += r.memo_hits;
        replayed += r.memo_replayed_events;
    }
    let events = stats.events as f64;
    m.insert("netsim.sim.events", events);
    m.insert(
        "netsim.sim.events_per_pkt",
        events / stats.data_pkts_delivered.max(1) as f64,
    );
    m.insert("netsim.wheel.pushes", sched.pushes as f64);
    m.insert("netsim.wheel.pops", sched.pops as f64);
    m.insert(
        "netsim.wheel.cascaded_entries",
        sched.cascaded_entries as f64,
    );
    m.insert("netsim.wheel.max_pending", sched.max_pending as f64);
    m.insert(
        "netsim.pipeline.delivery_share",
        stats.pipeline_deliveries as f64 / events.max(1.0),
    );
    m.insert("netsim.transport.acks_sent", stats.acks_sent as f64);
    m.insert("netsim.transport.retransmits", stats.retransmits as f64);
    m.insert(
        "netsim.transport.rto_stale_skips",
        stats.rto_stale_skips as f64,
    );
    m.insert("netsim.transport.dup_pkts", stats.dup_pkts_delivered as f64);
    m.insert(
        "netsim.transport.retx_ratio",
        stats.retransmits as f64 / stats.data_pkts_sent.max(1) as f64,
    );
    m.insert("netsim.sim.pfc_pauses", stats.pfc_pauses as f64);
    m.insert("netsim.sim.max_queue_bytes", stats.max_queue_bytes as f64);
    m.insert("netsim.fault.silent_drops", stats.silent_drops() as f64);
    m.insert("netsim.memo.hits", hits as f64);
    m.insert("netsim.memo.replayed_events", replayed as f64);
    m.insert(
        "netsim.memo.replay_share",
        replayed as f64 / events.max(1.0),
    );
    m.insert("netsim.memo.engaged", f64::from(u8::from(hits > 0)));
}

/// Kernel time x count over the engine run: a labelled estimate. The
/// counts are those of the live (not replayed) part of the reference unit.
fn unattributed_share(m: &Metrics, stats: &Stats, sched_pops: u64, spray_ns: f64) -> f64 {
    let live = 1.0 - m["netsim.memo.replay_share"];
    let est_ns = live
        * (m["netsim.wheel.push_pop_ns"] * sched_pops as f64
            + m["netsim.pipeline.front_ns"] * stats.pipeline_deliveries as f64
            // One pick per packet entering the fabric at a leaf.
            + spray_ns * (stats.data_pkts_sent + stats.retransmits + stats.acks_sent) as f64
            + m["netsim.counters.record_ns"] * stats.data_pkts_delivered as f64
            + m["netsim.transport.ack_accum_ns"] * stats.data_pkts_delivered as f64);
    1.0 - est_ns / (m["netsim.sim.run_s"] * 1e9)
}

/// Stage totals of the traced units into metrics, at reference host
/// speed: the spans' wall times x `host_speed` over the units.
fn stage_metrics(t: &Tracer, m: &mut Metrics, unit_name: &str, host_speed: f64) {
    let total = t.total_us_per_unit();
    let get = |name: &str| total.get(name).copied().unwrap_or(0.0) * host_speed;
    let setup = [
        ("netsim.topology.build", "netsim.topology.build_us"),
        (
            "collectives.schedule.build",
            "collectives.schedule.build_us",
        ),
        ("core.analytical.predict", "core.analytical.predict_us"),
        ("netsim.sim.new", "netsim.sim.new_us"),
        ("core.eval.assemble", "core.eval.other_us"),
    ];
    for (span, metric) in setup {
        m.insert(metric, get(span));
    }
    let run_us = get("netsim.sim.run");
    m.insert("netsim.sim.run_s", run_us / 1e6);
    let trial_us = get("staged.trial");
    if trial_us > 0.0 {
        m.insert("core.eval.setup_share", (trial_us - run_us) / trial_us);
    }
    print_self_times(t, unit_name);
}

fn print_self_times(t: &Tracer, unit_name: &str) {
    eprintln!("fpbench: wall self time per traced unit of {unit_name} (us):");
    for (name, us) in &t.self_us_per_unit() {
        eprintln!("fpbench:   {name:32} {us:12.1}");
    }
}

/// Quantile of a histogram in a `metrics.jsonl` line: upper bound of the
/// bucket holding the rank, like `LogHistogram::quantile`.
fn hist_quantile(metrics_line: &Value, name: &str, q: f64) -> f64 {
    let Some(h) = json::get(metrics_line, "histograms").and_then(|h| json::get(h, name)) else {
        return 0.0;
    };
    let uint = |v: &Value, key: &str| json::get(v, key).and_then(Value::as_u64).unwrap_or(0);
    let rank = ((q * uint(h, "count") as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for b in json::get(h, "buckets")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        seen += uint(b, "count");
        if seen >= rank {
            return uint(b, "hi") as f64 - 1.0;
        }
    }
    0.0
}

fn service_metrics(report: &ServiceReport, m: &mut Metrics) {
    let line: Value = serde_json::from_str(&report.metrics_final).unwrap_or(Value::Null);
    let us = |name: &str, q: f64| hist_quantile(&line, name, q) / 1e3;
    m.insert("monitord.queue.wait_p50_us", us("queue_wait_ns", 0.50));
    m.insert("monitord.queue.wait_p99_us", us("queue_wait_ns", 0.99));
    m.insert("monitord.service.scan_p50_us", us("scan_latency_ns", 0.50));
    m.insert("monitord.service.scan_p99_us", us("scan_latency_ns", 0.99));
    m.insert(
        "monitord.service.batch_p50",
        hist_quantile(&line, "batch_size", 0.50),
    );
    m.insert("monitord.queue.blocked", report.queue.blocked as f64);
    m.insert("monitord.queue.parked", report.queue.parked as f64);
    m.insert("monitord.queue.dropped", report.queue.dropped as f64);
}

/// The snapshots of all streams in wire order, decoded.
fn interleaved(inputs: &Inputs) -> Vec<CounterSnapshot> {
    (0..SNAPS_PER_STREAM as usize)
        .flat_map(|i| inputs.streams.iter().map(move |st| st[i].clone()))
        .collect()
}

/// One lifetime fed pre-decoded snapshots; measures the RSS the service
/// retains once everything is processed. Must run before any other
/// lifetime so freed heap is not reused unseen.
fn monitord_retention(inputs: &Inputs) -> f64 {
    let snaps = interleaved(inputs);
    let before = rss_kb();
    let svc = Monitord::spawn(ServiceConfig::default());
    let handle = svc.handle();
    for s in snaps {
        handle.push(s);
    }
    while handle.depth() > 0 {
        std::thread::yield_now();
    }
    let after = rss_kb();
    let report = svc.shutdown();
    (after - before).max(0.0) / report.snapshots.max(1) as f64
}

struct Layered {
    metrics: Metrics,
    tracer: Tracer,
    correct: bool,
    complaints: Vec<String>,
}

fn trace_trials(run: &Run, kern: &Metrics, l: &mut Layered) {
    let inputs = &run.inputs;
    let workload = run.workload;
    let spec = &inputs.specs[0];
    let reference = &run.reference.results;
    let m = &mut l.metrics;
    trial_counts(reference, m);
    // The plain trial of the unit: the only one for the single-trial
    // workloads, the controller-less half of fault_loop.
    let plain = reference
        .last()
        .expect("trial workloads keep their results");
    let mut iter_ms = Vec::new();
    let (correct, complaints) = (&mut l.correct, &mut l.complaints);
    let (traced_s, host_speed) = traced_units(&mut l.tracer, |t| {
        if workload == Workload::FaultLoop {
            t.span("ctrl.run_ctrl_trial", |_| {
                black_box(run_ctrl_trial(spec, CtrlConfig::default()).stats.events)
            });
        }
        let staged = t.span("staged.trial", |t| staged_trial(t, spec, plain.fault_port));
        if staged.stats.events != plain.stats.events
            || staged.sched.pops != plain.sched.pops
            || staged.memo_hits != plain.memo_hits
        {
            *correct = false;
            complaints.push(format!(
                    "staged replica diverged from run_trial: events {} vs {}, pops {} vs {}, memo hits {} vs {}",
                    staged.stats.events, plain.stats.events, staged.sched.pops, plain.sched.pops,
                    staged.memo_hits, plain.memo_hits
                ));
        }
        iter_ms.extend(staged.iter_host_ms);
    });
    stage_metrics(&l.tracer, m, workload.name(), host_speed);
    m.insert(
        "collectives.runner.iter_host_ms",
        median(&iter_ms) * host_speed,
    );
    let run_s = m["netsim.sim.run_s"];
    let live_events = plain.stats.events - plain.memo_replayed_events;
    m.insert(
        "netsim.sim.ns_per_event",
        run_s * 1e9 / live_events.max(1) as f64,
    );
    m.insert(
        "bench.trace.overhead_pct",
        pct_over(traced_s, median(&run.unit_s())),
    );
    let spray_ns = match spec.sim.spray {
        fp_netsim::spray::SprayPolicy::LeastLoaded => kern["netsim.spray.pick_ns.leastloaded"],
        _ => kern["netsim.spray.pick_ns.adaptive"],
    };
    let share = unattributed_share(m, &plain.stats, plain.sched.pops, spray_ns);
    m.insert("netsim.sim.unattributed_share", share);

    match workload {
        Workload::SteadyAdaptive | Workload::SteadyLeastLoaded => {
            let off = TrialSpec {
                memo: Some(false),
                ..spec.clone()
            };
            let (on_s, off_s) = timed_pair(
                COMPARE_REPS,
                || {
                    black_box(run_trial(spec).stats.events);
                },
                || {
                    black_box(run_trial(&off).stats.events);
                },
            );
            m.insert("netsim.memo.on_vs_off_ratio", on_s / off_s);
        }
        Workload::PaperLive => {
            let sharded = TrialSpec {
                shards: Some(2),
                ..spec.clone()
            };
            let mut last = None;
            let (x2_s, x1_s) = timed_pair(
                COMPARE_REPS,
                || last = Some(run_trial(&sharded)),
                || {
                    black_box(run_trial(spec).stats.events);
                },
            );
            // Not checked against the unsharded stats: random drops draw
            // from per-shard streams, a documented residual (DESIGN.md §9).
            let r = last.expect("at least one sharded repetition");
            m.insert("netsim.shard.x2_wall_ratio", x2_s / x1_s);
            m.insert("collectives.shard.windows", r.shard_windows as f64);
            m.insert("collectives.shard.syncs", r.shard_syncs as f64);
            m.insert(
                "collectives.shard.windows_per_sync",
                r.shard_windows as f64 / r.shard_syncs.max(1) as f64,
            );
            // The recorder buffers in memory and only writes on finish,
            // which is never called here.
            let (rec_s, bare_s) = timed_pair(
                COMPARE_REPS,
                || {
                    let rec = fp_telemetry::RunRecorder::new("unused");
                    black_box(run_trial_with(spec, Some(Box::new(rec))).0.stats.events);
                },
                || {
                    black_box(run_trial(spec).stats.events);
                },
            );
            m.insert("telemetry.recorder.overhead_pct", pct_over(rec_s, bare_s));
        }
        Workload::FaultLoop => {
            let clean = TrialSpec {
                fault: None,
                ..spec.clone()
            };
            let (ctl_s, bare_s) = timed_pair(
                COMPARE_REPS,
                || {
                    black_box(run_ctrl_trial(&clean, CtrlConfig::default()).stats.events);
                },
                || {
                    black_box(run_trial(&clean).stats.events);
                },
            );
            m.insert("ctrl.loop.overhead_pct", pct_over(ctl_s, bare_s));
        }
        _ => {}
    }
}

fn trace_sweep(run: &Run, kern: &Metrics, l: &mut Layered) {
    let inputs = &run.inputs;
    let reference = &run.reference.results;
    let m = &mut l.metrics;
    trial_counts(reference, m);
    let (traced_s, _) = traced_units(&mut l.tracer, |t| {
        t.span("bench.campaign.run", |_| {
            black_box(
                Campaign::with_threads(SWEEP_THREADS)
                    .run(&inputs.specs)
                    .len(),
            )
        });
    });
    // Worker threads are out of the tracer's sight, so the per-trial
    // stages come from one sequential staged pass over the same specs.
    let mut stats = Stats::default();
    let mut pops = 0;
    let mut iter_ms = Vec::new();
    let mut pass = Tracer::new();
    let ((), pass_timed) = HostClock::start().time(|| {
        pass.unit("unit", |t| {
            for (spec, r) in inputs.specs.iter().zip(reference) {
                let staged = t.span("staged.trial", |t| staged_trial(t, spec, r.fault_port));
                if staged.stats.events != r.stats.events {
                    l.correct = false;
                    l.complaints.push(format!(
                        "staged replica diverged on sweep seed {}",
                        spec.seed
                    ));
                }
                stats.merge(&staged.stats);
                pops += staged.sched.pops;
                iter_ms.extend(staged.iter_host_ms);
            }
        })
    });
    let host_speed = pass_timed.host_speed;
    stage_metrics(&pass, m, "sweep_small (sequential staged pass)", host_speed);
    // Per trial, not per 48.
    let n = inputs.specs.len() as f64;
    for name in [
        "netsim.topology.build_us",
        "collectives.schedule.build_us",
        "core.analytical.predict_us",
        "netsim.sim.new_us",
        "core.eval.other_us",
    ] {
        *m.get_mut(name).expect("stage metric was just set") /= n;
    }
    m.insert(
        "collectives.runner.iter_host_ms",
        median(&iter_ms) * host_speed,
    );
    m.insert(
        "netsim.sim.ns_per_event",
        m["netsim.sim.run_s"] * 1e9 / stats.events.max(1) as f64,
    );
    let share = unattributed_share(m, &stats, pops, kern["netsim.spray.pick_ns.adaptive"]);
    m.insert("netsim.sim.unattributed_share", share);
    m.insert(
        "bench.trace.overhead_pct",
        pct_over(traced_s, median(&run.unit_s())),
    );
    let (t1_s, t2_s) = timed_pair(
        COMPARE_REPS,
        || {
            black_box(Campaign::with_threads(1).run(&inputs.specs).len());
        },
        || {
            black_box(
                Campaign::with_threads(SWEEP_THREADS)
                    .run(&inputs.specs)
                    .len(),
            );
        },
    );
    m.insert("bench.campaign.t2_speedup", t1_s / t2_s);
    m.insert("bench.campaign.per_trial_us", t1_s * 1e6 / n);
}

fn trace_monitord(run: &Run, retained_kb: f64, l: &mut Layered) {
    let inputs = &run.inputs;
    let m = &mut l.metrics;
    m.insert("monitord.service.retained_kb_per_snapshot", retained_kb);
    let mut last_report = None;
    let (correct, complaints) = (&mut l.correct, &mut l.complaints);
    let (traced_s, _) = traced_units(&mut l.tracer, |t| {
        let svc = t.span("monitord.service.spawn", |_| {
            Monitord::spawn(ServiceConfig::default())
        });
        let wire = t.span("monitord.wire.feed_lines", |_| {
            feed_lines(&inputs.wire[..], &svc.handle()).expect("reading from memory cannot fail")
        });
        let report = t.span("monitord.service.shutdown", |_| svc.shutdown());
        let out = monitord_output(inputs, wire, report);
        if out.failed > 0 || out.digest != run.reference.digest {
            *correct = false;
            complaints.extend(out.complaints.iter().cloned());
        }
        last_report = out.report;
    });
    print_self_times(&l.tracer, run.workload.name());
    service_metrics(&last_report.expect("traced units ran"), m);
    let wire_s = median(&run.unit_s());
    m.insert("bench.trace.overhead_pct", pct_over(traced_s, wire_s));
    // The same lifetime fed pre-decoded snapshots: what the wire costs.
    let mut sets: Vec<Vec<CounterSnapshot>> =
        (0..COMPARE_REPS).map(|_| interleaved(inputs)).collect();
    let direct_s = timed_median(COMPARE_REPS, || {
        let svc = Monitord::spawn(ServiceConfig::default());
        let handle = svc.handle();
        for s in sets.pop().expect("one set per repetition") {
            handle.push(s);
        }
        black_box(svc.shutdown().snapshots);
    });
    let offered = (STREAMS as f64) * f64::from(SNAPS_PER_STREAM);
    m.insert(
        "monitord.service.direct_snapshots_per_s",
        offered / direct_s,
    );
    m.insert("monitord.wire.share", 1.0 - direct_s / wire_s);
}

pub struct TracedRun {
    pub run: Run,
    pub metrics: Metrics,
    pub correct: bool,
}

/// The traced run of one workload. Writes the Chrome trace into `out_dir`.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    provenance: Value,
) -> Result<TracedRun, String> {
    // Retention first: it needs a heap no earlier lifetime has used.
    let retained_kb = if workload == Workload::MonitordIngest {
        monitord_retention(&make_inputs(workload, seed))
    } else {
        0.0
    };
    // Untraced baseline for the overhead figure and the reference outputs;
    // a third of the budget, the rest goes to traced units and comparisons.
    let run = measure::run(workload, seed, seconds / 3.0, &Protocol::baseline())?;
    // Every kernel reads a time per operation; all of them are brought to
    // reference host speed by the speed over the whole kernel pass.
    let stream = &make_inputs(Workload::MonitordIngest, seed).streams[1];
    let (mut kern, kern_timed) = HostClock::start().time(|| kernels::run_all(stream));
    kern.values_mut().for_each(|v| *v *= kern_timed.host_speed);
    let mut l = Layered {
        metrics: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        tracer: Tracer::new(),
        correct: run.correct,
        complaints: run.complaints.clone(),
    };
    l.metrics.extend(kern.iter().map(|(k, v)| (*k, *v)));
    match workload {
        Workload::SweepSmall => trace_sweep(&run, &kern, &mut l),
        Workload::MonitordIngest => trace_monitord(&run, retained_kb, &mut l),
        _ => trace_trials(&run, &kern, &mut l),
    }
    let sim = &run.reference.simulated;
    l.metrics.insert("core.detector.fpr", sim.detect_fpr);
    l.metrics
        .insert("ctrl.false_mitigations", sim.false_mitigations as f64);
    l.metrics.insert("ctrl.actions", sim.ctrl_actions as f64);
    l.metrics
        .insert("ctrl.rebaselines", sim.ctrl_rebaselines as f64);
    l.metrics.insert(
        "bench.fail_share",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    l.metrics.insert("bench.unit_wall_ms", run.unit_wall_ms());
    l.metrics.insert("bench.host_speed", run.host_speed());
    debug_assert_eq!(
        l.metrics.len(),
        PER_LAYER.len(),
        "undeclared per-layer metric"
    );
    for c in &l.complaints {
        eprintln!("fpbench: {c}");
    }
    let path = out_dir.join(format!("trace_{}.json", workload.name()));
    l.tracer
        .write_chrome(&path, provenance)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("fpbench: wrote {}", path.display());
    Ok(TracedRun {
        run,
        metrics: l.metrics,
        correct: l.correct,
    })
}
