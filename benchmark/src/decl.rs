//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! one is expected to move. `/BENCHMARK.json` is generated from these
//! tables (`fpbench declare`) and the smoke test fails when the two differ.

use serde::Value;

/// How long one measured run lasts when the caller does not say.
pub const RUN_SECONDS: u64 = 15;

/// Which direction is an improvement.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct E2eDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Workloads on which the metric is measured; on the others the
    /// benchmark prints [`NOT_APPLICABLE`].
    pub on: &'static [&'static str],
    /// A result of the simulation, not of the host's clock: it depends on
    /// the inputs only and repeats exactly for a seed.
    pub simulated: bool,
}

pub struct LayerDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move, and where
    /// (`-` = context only, gated by nothing).
    pub moves: &'static str,
}

/// Value printed for an end-to-end metric on a workload that does not
/// produce it. The result format wants a number for every metric on every
/// workload and no zeros, so "not applicable" is a constant that none of
/// the metrics can read as a measurement. Such pairs appear nowhere else:
/// not in a summary, not in `compare`, not in `selfcheck`.
pub const NOT_APPLICABLE: f64 = 1e-9;

pub const PAPER_LIVE: &str = "paper_live";
pub const STEADY_ADAPTIVE: &str = "steady_adaptive";
pub const STEADY_LEASTLOADED: &str = "steady_leastloaded";
pub const FAULT_LOOP: &str = "fault_loop";
pub const SWEEP_SMALL: &str = "sweep_small";
pub const MONITORD_INGEST: &str = "monitord_ingest";

pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: PAPER_LIVE,
        why: "The paper's section-6 fabric (32x16, Adaptive spray, jitter, 1.5% silent drop): wheel, pipeline, spray pick, transport and counters do all the work; set-up, memo, ctrl and monitord do none.",
    },
    WorkloadDecl {
        name: STEADY_ADAPTIVE,
        why: "24 fault-free iterations with memo requested under default Adaptive spray, where memo refuses today: an engine speed-up shows undiluted and memo-under-Adaptive must show here.",
    },
    WorkloadDecl {
        name: STEADY_LEASTLOADED,
        why: "The same trial under LeastLoaded spray, where memo replays two thirds of the events: fingerprint and replay dominate, an engine speed-up moves only the live third.",
    },
    WorkloadDecl {
        name: FAULT_LOOP,
        why: "Blackhole with the fp-ctrl loop, then the same trial without it: retransmit/RTO storm, fault filter, online scan, localizer and control verbs; yields the simulated detection metrics.",
    },
    WorkloadDecl {
        name: SWEEP_SMALL,
        why: "48 tiny trials on a 2-thread campaign pool: many short engine runs plus per-trial set-up and assembly (under 1% today) and the pool's scaling; where a sweep-level cache would show; yields TPR.",
    },
    WorkloadDecl {
        name: MONITORD_INGEST,
        why: "One fp-monitord lifetime fed 7680 NDJSON snapshots of 32 interleaved streams: wire decode, bounded queue, per-stream apply+scan; the simulator is idle, so engine changes must not move it.",
    },
];

const SIM_WORKLOADS: &[&str] = &[
    PAPER_LIVE,
    STEADY_ADAPTIVE,
    STEADY_LEASTLOADED,
    FAULT_LOOP,
    SWEEP_SMALL,
];
const ALL: &[&str] = &[
    PAPER_LIVE,
    STEADY_ADAPTIVE,
    STEADY_LEASTLOADED,
    FAULT_LOOP,
    SWEEP_SMALL,
    MONITORD_INGEST,
];

pub const SETUP_S: &str = "setup_s";

use Better::{Higher, Lower};

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> E2eDecl {
    E2eDecl {
        name,
        unit,
        better,
        bound,
        on,
        simulated: false,
    }
}

const fn simulated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> E2eDecl {
    E2eDecl {
        name,
        unit,
        better,
        bound,
        on,
        simulated: true,
    }
}

/// One bound per metric has to hold on every workload, so each is about
/// three times the widest quartile spread any workload showed over ten
/// seeds on the 2-vCPU sizing host (README "Bounds"), capped at the
/// format's 0.25. Simulated metrics repeat exactly for a seed; their bound
/// covers the spread across seeds.
pub const END_TO_END: &[E2eDecl] = &[
    host("sim_pkts_per_s", "pkt/s", Higher, 0.25, SIM_WORKLOADS),
    host("trials_per_s", "1/s", Higher, 0.25, SIM_WORKLOADS),
    host("snapshots_per_s", "1/s", Higher, 0.20, &[MONITORD_INGEST]),
    host("peak_rss_mb", "MB", Lower, 0.20, ALL),
    host(SETUP_S, "s", Lower, 0.25, ALL),
    simulated("tt_detect_us", "sim_us", Lower, 0.10, &[FAULT_LOOP]),
    simulated("tt_mitigate_us", "sim_us", Lower, 0.10, &[FAULT_LOOP]),
    simulated("goodput_recovery", "ratio", Higher, 0.02, &[FAULT_LOOP]),
    simulated("detect_tpr", "ratio", Higher, 0.15, &[SWEEP_SMALL]),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDecl {
    LayerDecl {
        name,
        unit,
        better,
        moves,
    }
}

const PKTS_LIVE: &str = "sim_pkts_per_s on paper_live, steady_adaptive, fault_loop";
const TRIALS_SWEEP: &str = "trials_per_s on sweep_small";
const SNAPS: &str = "snapshots_per_s on monitord_ingest";
const PKTS_FAULT: &str = "sim_pkts_per_s on fault_loop";
const PKTS_STEADY: &str = "sim_pkts_per_s on steady_adaptive, steady_leastloaded";
const CONTEXT: &str = "-";

pub const PER_LAYER: &[LayerDecl] = &[
    // Per-trial set-up stages, timed on the unit's own inputs.
    layer("netsim.topology.build_us", "us", Lower, TRIALS_SWEEP),
    layer("collectives.schedule.build_us", "us", Lower, TRIALS_SWEEP),
    layer("core.analytical.predict_us", "us", Lower, TRIALS_SWEEP),
    layer("netsim.sim.new_us", "us", Lower, TRIALS_SWEEP),
    layer("core.eval.other_us", "us", Lower, TRIALS_SWEEP),
    layer("core.eval.setup_share", "ratio", Lower, TRIALS_SWEEP),
    // The engine run.
    layer("netsim.sim.run_s", "s", Lower, PKTS_LIVE),
    layer("netsim.sim.ns_per_event", "ns", Lower, PKTS_LIVE),
    layer("netsim.sim.events", "count", Lower, PKTS_LIVE),
    layer("netsim.sim.events_per_pkt", "ratio", Lower, PKTS_LIVE),
    layer("netsim.sim.unattributed_share", "ratio", Lower, CONTEXT),
    // Scheduler.
    layer("netsim.wheel.push_pop_ns", "ns", Lower, PKTS_LIVE),
    layer("netsim.engine.heap_push_pop_ns", "ns", Lower, CONTEXT),
    layer("netsim.wheel.pushes", "count", Lower, PKTS_LIVE),
    layer("netsim.wheel.pops", "count", Lower, PKTS_LIVE),
    layer("netsim.wheel.cascaded_entries", "count", Lower, PKTS_LIVE),
    layer("netsim.wheel.max_pending", "count", Lower, CONTEXT),
    // Delivery pipes.
    layer("netsim.pipeline.front_ns", "ns", Lower, PKTS_LIVE),
    layer("netsim.pipeline.delivery_share", "ratio", Higher, PKTS_LIVE),
    // Spray pick: boxed trait object against the direct call.
    layer("netsim.spray.pick_ns.adaptive", "ns", Lower, PKTS_LIVE),
    layer("netsim.spray.pick_ns.leastloaded", "ns", Lower, PKTS_STEADY),
    layer("netsim.spray.pick_ns.ecmp", "ns", Lower, CONTEXT),
    layer("netsim.spray.pick_ns.prime", "ns", Lower, CONTEXT),
    layer("netsim.spray.pick_ns.reps", "ns", Lower, CONTEXT),
    layer("netsim.spray.choose_static_ns", "ns", Lower, PKTS_LIVE),
    // Tagged counters.
    layer("netsim.counters.record_ns", "ns", Lower, PKTS_LIVE),
    // Transport.
    layer("netsim.transport.ack_accum_ns", "ns", Lower, PKTS_FAULT),
    layer("netsim.transport.acks_sent", "count", Lower, PKTS_FAULT),
    layer("netsim.transport.retransmits", "count", Lower, PKTS_FAULT),
    layer(
        "netsim.transport.rto_stale_skips",
        "count",
        Lower,
        PKTS_FAULT,
    ),
    layer("netsim.transport.dup_pkts", "count", Lower, PKTS_FAULT),
    layer("netsim.transport.retx_ratio", "ratio", Lower, PKTS_FAULT),
    // Context: PFC is cold in all six workloads.
    layer("netsim.sim.pfc_pauses", "count", Lower, CONTEXT),
    layer("netsim.sim.max_queue_bytes", "B", Lower, CONTEXT),
    layer("netsim.fault.silent_drops", "count", Lower, CONTEXT),
    // Memo fast-forward.
    layer("netsim.memo.hits", "count", Higher, PKTS_STEADY),
    layer("netsim.memo.replayed_events", "count", Higher, PKTS_STEADY),
    layer("netsim.memo.replay_share", "ratio", Higher, PKTS_STEADY),
    layer("netsim.memo.engaged", "count", Higher, PKTS_STEADY),
    layer("netsim.memo.on_vs_off_ratio", "ratio", Lower, PKTS_STEADY),
    // Intra-trial sharding: layer-only datum at host_parallelism = 2.
    layer("netsim.shard.x2_wall_ratio", "ratio", Lower, CONTEXT),
    layer("collectives.shard.windows", "count", Lower, CONTEXT),
    layer("collectives.shard.syncs", "count", Lower, CONTEXT),
    layer(
        "collectives.shard.windows_per_sync",
        "ratio",
        Higher,
        CONTEXT,
    ),
    // Collective runner.
    layer("collectives.runner.iter_host_ms", "ms", Lower, PKTS_STEADY),
    // Detection pipeline.
    layer(
        "core.monitor.scan_us",
        "us",
        Lower,
        "snapshots_per_s on monitord_ingest; sim_pkts_per_s on fault_loop",
    ),
    layer("core.detector.compare_ns", "ns", Lower, SNAPS),
    layer("core.localizer.ring_us", "us", Lower, SNAPS),
    layer("core.snapshot.export_us", "us", Lower, TRIALS_SWEEP),
    layer("core.snapshot.apply_us", "us", Lower, SNAPS),
    layer("core.detector.fpr", "ratio", Lower, CONTEXT),
    // Control loop.
    layer("ctrl.loop.overhead_pct", "%", Lower, PKTS_FAULT),
    layer(
        "ctrl.actions",
        "count",
        Lower,
        "tt_mitigate_us on fault_loop",
    ),
    layer(
        "ctrl.rebaselines",
        "count",
        Lower,
        "tt_mitigate_us on fault_loop",
    ),
    layer("ctrl.false_mitigations", "count", Lower, CONTEXT),
    // Monitor service.
    layer("monitord.wire.encode_us", "us", Lower, CONTEXT),
    layer("monitord.wire.decode_us", "us", Lower, SNAPS),
    layer("monitord.wire.share", "ratio", Lower, SNAPS),
    layer(
        "monitord.service.direct_snapshots_per_s",
        "1/s",
        Higher,
        SNAPS,
    ),
    layer("monitord.queue.wait_p50_us", "us", Lower, SNAPS),
    layer("monitord.queue.wait_p99_us", "us", Lower, SNAPS),
    layer("monitord.service.scan_p50_us", "us", Lower, SNAPS),
    layer("monitord.service.scan_p99_us", "us", Lower, SNAPS),
    layer("monitord.service.batch_p50", "count", Higher, SNAPS),
    layer("monitord.queue.blocked", "count", Lower, SNAPS),
    layer("monitord.queue.parked", "count", Lower, SNAPS),
    layer("monitord.queue.dropped", "count", Lower, SNAPS),
    layer(
        "monitord.service.retained_kb_per_snapshot",
        "kB",
        Lower,
        "peak_rss_mb on monitord_ingest",
    ),
    // Telemetry and harness.
    layer("telemetry.recorder.overhead_pct", "%", Lower, CONTEXT),
    layer("bench.campaign.t2_speedup", "ratio", Higher, TRIALS_SWEEP),
    layer("bench.campaign.per_trial_us", "us", Lower, TRIALS_SWEEP),
    layer("bench.trace.overhead_pct", "%", Lower, CONTEXT),
    layer("bench.fail_share", "ratio", Lower, CONTEXT),
    // The untraced baseline's median unit as the wall clock read it, and
    // the host speed the end-to-end metrics were scaled by (1 = reference).
    layer("bench.unit_wall_ms", "ms", Lower, CONTEXT),
    layer("bench.host_speed", "ratio", Higher, CONTEXT),
];

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn strs(v: &[&str]) -> Value {
    Value::Seq(v.iter().map(|x| s(x)).collect())
}

/// The exact content of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::Map(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::Map(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.name())),
                ("bound".into(), Value::F64(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::Map(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.name())),
            ])
        })
        .collect();
    let v = Value::Map(vec![
        ("command".into(), strs(&["bash", "benchmark/run.sh"])),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        ("workloads".into(), Value::Seq(workloads)),
        ("end_to_end".into(), Value::Seq(end_to_end)),
        ("per_layer".into(), Value::Seq(per_layer)),
    ]);
    let mut out = serde_json::to_string_pretty(&v).expect("declaration serializes");
    out.push('\n');
    out
}

pub fn e2e(name: &str) -> Option<&'static E2eDecl> {
    END_TO_END.iter().find(|m| m.name == name)
}
