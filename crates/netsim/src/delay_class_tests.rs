//! Differential test of the delay-class pipes against the all-scheduler
//! engine they replaced, and the full-simulator scenario generator the
//! engine's other differential tests share (`fast_path_tests`,
//! `head_timer_tests`).
//!
//! A class bound of 0 sends every constant-delay event to the scheduler —
//! exactly the engine before the class pipes existed — so running the same
//! scenario at bound 0, at a bound small enough to overflow, and at the
//! production bound must give identical results: which container an event
//! waits in is not observable. A child module of `sim` because the bound
//! is deliberately not configurable outside tests.

use super::*;
use crate::config::PfcConfig;
use crate::control::{ControlAction, ControlVerb};
use crate::fault::{FaultAction, FaultKind};
use crate::packet::CollectiveTag;
use crate::pipeline::MAX_DELAY_CLASSES;
use crate::time::SimDuration;
use crate::topology::{Clos3Spec, FatTreeSpec};
use fp_telemetry::LinkSample;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// One full-simulator scenario: a small random fabric, a few tagged
/// messages with odd tail sizes (one distinct serialization delay each,
/// so more delays than a small bound holds), one random fault healed
/// midway — plus the engine variant to run it on.
#[derive(Copy, Clone, Debug)]
pub(super) struct Scenario {
    /// Delay-class bound (see `Agenda::set_class_bound`).
    pub bound: usize,
    /// Run every enqueue down the queued route (the engine before the
    /// uncontended-hop shortcut).
    pub queued_route_only: bool,
    /// Arm a first-attempt timer per segment (the transport before the
    /// per-flow head-of-line timer).
    pub per_segment_rto: bool,
    pub seed: u64,
    pub leaves: u32,
    pub spines: u32,
    pub hosts_per_leaf: u32,
    /// Two pods of `leaves` leaves under `spines` aggs and two cores per
    /// group instead of a 2-level tree (fills `agg_counters`).
    pub three_level: bool,
    pub msgs: usize,
    /// Message `m` is posted in wave `m % waves`: wave 0 before the run,
    /// wave `w` by a workload wake-up at `w · WAVE_GAP`, while earlier
    /// waves are still in flight (1: no workload, every message at zero).
    pub waves: u32,
    /// 0 drop, 1 blackhole, 2 dst-blackhole, 3 admin-down, else none.
    pub fault_sel: u32,
    /// The fault comes and goes three times before it heals for good.
    pub flap: bool,
    /// Timeouts a segment survives before its flow gives up.
    pub rto_max_attempts: u32,
    /// 0 off, 1 default thresholds, 2 XOFF/XON of a few packets so pauses
    /// actually happen.
    pub pfc_sel: u32,
    pub spray: spray::SprayPolicy,
    /// Messages rotate through the three priorities and every third one
    /// is untagged background traffic.
    pub mixed_prio: bool,
    /// `RecycleEntropy` on a cable mid-run, restored later.
    pub recycle: bool,
    /// Telemetry sampling interval; 0 attaches no recorder (and keeps the
    /// sampler's ticks out of the scheduler).
    pub sample_ns: u64,
    /// Adaptive spray's deficit half-life (`SimConfig::spray_tau`).
    pub spray_tau: SimDuration,
}

impl Scenario {
    /// The shape the class-bound test has always generated.
    pub fn basic(seed: u64, leaves: u32, spines: u32, msgs: usize, fault_sel: u32) -> Scenario {
        Scenario {
            bound: MAX_DELAY_CLASSES,
            queued_route_only: false,
            per_segment_rto: false,
            seed,
            leaves,
            spines,
            hosts_per_leaf: 1,
            three_level: false,
            msgs,
            waves: 1,
            fault_sel,
            flap: false,
            // Fail fast under black holes so drains stay cheap.
            rto_max_attempts: 6,
            pfc_sel: 1,
            spray: spray::SprayPolicy::default(),
            mixed_prio: false,
            recycle: false,
            sample_ns: 0,
            spray_tau: SimConfig::default().spray_tau,
        }
    }
}

/// What one run must reproduce on every engine variant.
#[derive(PartialEq, Debug)]
pub(super) struct Outcome {
    pub events: u64,
    pub end: SimTime,
    /// Without `rto_stale_skips`, which is how many dead timers surfaced
    /// and the one statistic the timer scheme may change.
    pub stats: String,
    pub rto_stale_skips: u64,
    pub counters: String,
    pub agg_counters: String,
    pub trace: Vec<crate::trace::TraceRecord>,
    pub applied_controls: Vec<AppliedControl>,
    /// Every `(time, link, egress state)` the telemetry sampler saw.
    pub samples: Vec<(u64, u32, LinkSample)>,
}

impl Outcome {
    /// Everything but how many dead timers surfaced.
    pub fn sans_stale_skips(self) -> Outcome {
        Outcome {
            rto_stale_skips: 0,
            ..self
        }
    }
}

/// Time between two waves of messages (see `Scenario::waves`).
const WAVE_GAP: SimTime = SimTime::from_ns(9_000);

/// One message: source, destination, bytes, tag and class.
type Msg = (HostId, HostId, u64, Option<CollectiveTag>, Priority);

/// Posts wave `w + 1` of the messages at `(w + 1) · WAVE_GAP`.
struct Waves(Vec<Vec<Msg>>);

impl Application for Waves {
    fn on_start(&mut self, sim: &mut Simulator) {
        for w in 0..self.0.len() {
            let at = SimTime::from_ns(WAVE_GAP.as_ns() * (w as u64 + 1));
            sim.schedule_wake(at, HostId(0), w as u64);
        }
    }

    fn on_wake(&mut self, sim: &mut Simulator, _: HostId, token: u64) {
        super::flow_table_tests::assert_refs_exact(sim);
        for &(src, dst, bytes, tag, prio) in &self.0[token as usize] {
            sim.post_message(src, dst, bytes, tag, prio);
        }
    }
}

/// Keeps every link sample (shared, so the test reads it after boxing).
struct SampleLog {
    interval: u64,
    samples: Rc<RefCell<Vec<(u64, u32, LinkSample)>>>,
}

impl Recorder for SampleLog {
    fn sample_interval_ns(&self) -> u64 {
        self.interval
    }
    fn on_link_sample(&mut self, t_ns: u64, link: u32, s: &LinkSample) {
        self.samples.borrow_mut().push((t_ns, link, *s));
    }
}

/// How the engine got there: allowed to differ between variants.
#[derive(Copy, Clone, Debug)]
pub(super) struct Traffic {
    /// Scheduler pushes other than first-attempt timers (`head_arms`).
    pub pushes: u64,
    pub class_pushes: u64,
    /// Delay classes discovered.
    pub classes: usize,
    /// Packets that took the uncontended-hop shortcut.
    pub direct_starts: u64,
    pub pfc_pauses: u64,
    /// First-attempt timers armed one per flow at a time.
    pub head_arms: u64,
    pub data_pkts_sent: u64,
    pub retransmits: u64,
    pub flows_failed: u64,
    /// Spray picks the entropy-recycle quarantine narrowed.
    pub spray_avoided_picks: u64,
}

/// Entry by entry (the store's own `Debug` walks a hash index), the cells
/// a reader reads: per-port bytes, per-sender bytes and the iteration's
/// last tagged-packet stamp.
fn counters_debug(c: &CounterStore) -> String {
    let cells: Vec<_> = c
        .keys()
        .into_iter()
        .map(|(job, iter)| {
            let e = c.get(job, iter).expect("listed key");
            (
                job,
                iter,
                &e.bytes,
                e.src_cells().collect::<Vec<_>>(),
                e.last_seen,
            )
        })
        .collect();
    format!("{cells:?}")
}

/// The fabric `run` builds for `sc`.
pub(super) fn topology(sc: &Scenario) -> Topology {
    if sc.three_level {
        Topology::clos3(Clos3Spec {
            pods: 2,
            leaves_per_pod: sc.leaves,
            aggs_per_pod: sc.spines,
            cores_per_group: 2,
            hosts_per_leaf: sc.hosts_per_leaf,
            ..Default::default()
        })
    } else {
        Topology::fat_tree(FatTreeSpec {
            leaves: sc.leaves,
            spines: sc.spines,
            hosts_per_leaf: sc.hosts_per_leaf,
            ..Default::default()
        })
    }
}

pub(super) fn run(sc: Scenario) -> (Outcome, Traffic) {
    let (_, outcome, traffic) = run_sim(sc);
    (outcome, traffic)
}

/// [`run`], handing back the drained simulator too.
pub(super) fn run_sim(sc: Scenario) -> (Simulator, Outcome, Traffic) {
    let topo = topology(&sc);
    let n_links = topo.n_links() as u32;
    let n_hosts = topo.n_hosts() as u32;
    let cfg = SimConfig {
        spray: sc.spray,
        spray_tau: sc.spray_tau,
        rto_max_attempts: sc.rto_max_attempts,
        pfc: match sc.pfc_sel {
            0 => PfcConfig {
                enabled: false,
                ..Default::default()
            },
            1 => PfcConfig::default(),
            _ => PfcConfig {
                enabled: true,
                xoff_bytes: 3 * 4160,
                xon_bytes: 4160,
            },
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo, cfg, sc.seed);
    sim.agenda.set_class_bound(sc.bound);
    sim.queued_route_only = sc.queued_route_only;
    sim.per_segment_rto = sc.per_segment_rto;
    let samples = Rc::new(RefCell::new(Vec::new()));
    if sc.sample_ns > 0 {
        sim.set_recorder(Box::new(SampleLog {
            interval: sc.sample_ns,
            samples: samples.clone(),
        }));
    }
    let tag = Some(CollectiveTag { job: 1, iter: 0 });
    let mut later = vec![Vec::new(); sc.waves.max(1) as usize - 1];
    for m in 0..sc.msgs as u32 {
        let src = HostId(m % n_hosts);
        let dst = HostId((m + 1 + (sc.seed as u32 % (n_hosts - 1))) % n_hosts);
        if src == dst {
            continue;
        }
        let bytes = 200_000 + 17 * m as u64;
        let (tag, prio) = match (sc.mixed_prio, m % 3) {
            (false, _) | (true, 0) => (tag, Priority::MEASURED),
            (true, 1) => (tag, Priority::CONTROL),
            (true, _) => (None, Priority::BACKGROUND),
        };
        match (m % sc.waves.max(1)) as usize {
            0 => _ = sim.post_message(src, dst, bytes, tag, prio),
            w => later[w - 1].push((src, dst, bytes, tag, prio)),
        }
    }
    if !later.is_empty() {
        sim.set_app(Box::new(Waves(later)));
    }
    let link = LinkId((sc.seed as u32 >> 8) % n_links);
    let kind = match sc.fault_sel {
        0 => Some(FaultKind::SilentDrop { rate: 0.2 }),
        1 => Some(FaultKind::SilentBlackhole),
        2 => Some(FaultKind::DstBlackhole { dst_leaf: 0 }),
        3 => Some(FaultKind::AdminDown),
        _ => None,
    };
    if let Some(kind) = kind {
        let spans: &[(u64, u64)] = match sc.flap {
            false => &[(2_000, 40_000)],
            true => &[(2_000, 9_000), (13_000, 21_000), (26_000, 40_000)],
        };
        for &(set, clear) in spans {
            let (set, clear) = (SimTime::from_ns(set), SimTime::from_ns(clear));
            sim.schedule_fault(FaultEvent::new(set, link, FaultAction::Set(kind), true));
            sim.schedule_fault(FaultEvent::new(clear, link, FaultAction::Clear, true));
        }
    }
    if sc.recycle {
        let cable = LinkId((sc.seed as u32 >> 16) % n_links);
        sim.schedule_control(
            SimTime::from_ns(3_000),
            ControlAction::cable(cable, ControlVerb::RecycleEntropy),
        );
        sim.schedule_control(
            SimTime::from_ns(30_000),
            ControlAction::cable(cable, ControlVerb::Restore),
        );
    }
    let summary = sim.run();
    assert_eq!(summary.reason, RunReason::Drained);
    assert_eq!(sim.pending_events(), 0, "drained run left pending work");
    let ss = sim.sched_stats();
    assert_eq!(ss.pushes, ss.pops, "scheduler drained");
    assert_eq!(ss.class_pushes, ss.class_pops, "class pipes drained");
    let samples = samples.take();
    // Sampler ticks are popped like any event but never counted as one.
    let ticks = samples.len() as u64 / n_links as u64;
    assert_eq!(
        ss.pops + ss.class_pops,
        sim.stats.events - sim.stats.pipeline_deliveries + sim.stats.rto_stale_skips + ticks,
        "pop count decomposition"
    );
    // Drained: every flow is acknowledged or gave up, gave its timer slot
    // log back, and nothing names it.
    for id in sim.flow_ids() {
        let f = sim.flow(id);
        assert!(f.fully_acked() || f.failed, "flow {id} left in doubt");
        assert!(!f.rto_armed && f.sent.capacity() == 0, "flow {id} log");
        assert_eq!(f.refs, 0, "flow {id} still named");
    }
    let rto_stale_skips = std::mem::take(&mut sim.stats.rto_stale_skips);
    let outcome = Outcome {
        events: sim.stats.events,
        end: summary.end,
        stats: format!("{:?}", sim.stats),
        rto_stale_skips,
        counters: counters_debug(&sim.counters),
        agg_counters: counters_debug(&sim.agg_counters),
        trace: sim.trace.to_records(),
        applied_controls: sim.applied_controls().to_vec(),
        samples,
    };
    let traffic = Traffic {
        pushes: ss.pushes - ss.head_arms,
        class_pushes: ss.class_pushes,
        classes: sim.agenda.classes(),
        direct_starts: sim.direct_starts,
        pfc_pauses: sim.stats.pfc_pauses,
        head_arms: ss.head_arms,
        data_pkts_sent: sim.stats.data_pkts_sent,
        retransmits: sim.stats.retransmits,
        flows_failed: sim.stats.flows_failed,
        spray_avoided_picks: sim.stats.spray_avoided_picks,
    };
    (sim, outcome, traffic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn class_bound_never_changes_results(
        seed in 0u64..1 << 48,
        leaves in 2u32..6,
        spines in 1u32..4,
        msgs in 1usize..6,
        fault_sel in 0u32..5,
        pfc_sel in 0u32..2,
    ) {
        let go = |bound| run(Scenario {
            bound,
            pfc_sel,
            ..Scenario::basic(seed, leaves, spines, msgs, fault_sel)
        });
        let (want, all) = go(0);
        prop_assert_eq!(all.class_pushes, 0, "bound 0 must keep every event in the scheduler");
        for bound in [2, MAX_DELAY_CLASSES] {
            let (got, t) = go(bound);
            prop_assert_eq!(&got, &want, "diverged at bound {}", bound);
            // Events only move between containers; none is elided.
            prop_assert_eq!(t.pushes + t.class_pushes, all.pushes);
            prop_assert!(t.classes <= bound);
            if bound == 2 {
                // TxDone of a data packet, TxDone of an ACK, the RTO
                // and the ACK flush are four delays already.
                prop_assert_eq!(t.classes, 2);
                prop_assert!(t.pushes > 2, "nothing overflowed at bound 2");
            }
        }
    }
}

/// The production bound holds every delay of the default configuration
/// even through a retransmit storm that walks the whole backoff ladder:
/// only the two scheduled fault updates reach the scheduler.
#[test]
fn default_config_fits_the_production_bound() {
    let (_, t) = run(Scenario::basic(77, 4, 2, 3, 1));
    assert_eq!(
        t.pushes, 2,
        "only the fault's two link changes are absolute-time"
    );
    assert!(t.class_pushes > 1_000);
    assert!(t.classes > 4 && t.classes <= MAX_DELAY_CLASSES, "{t:?}");
}
