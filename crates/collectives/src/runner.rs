//! The collective workload driver.
//!
//! [`CollectiveRunner`] executes the same [`Schedule`] for a configured
//! number of training iterations over an `fp-netsim` fabric, tagging every
//! data packet with `(job, iteration)` — the paper's NCCL modification
//! (§5.1) — and separating iterations by a compute gap with optional
//! per-node jitter. Dependencies are honoured exactly: a transfer is posted
//! the moment its prerequisite message completes at the forwarding node.

use crate::jitter::JitterModel;
use crate::schedule::Schedule;
use fp_netsim::app::Application;
use fp_netsim::ids::HostId;
use fp_netsim::packet::{CollectiveTag, FlowId, Priority};
use fp_netsim::sim::Simulator;
use fp_netsim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which transfers of the schedule FlowPulse measures (paper §5.1: for
/// collectives with multiple non-local destinations per leaf, "we may
/// select a subset of flows from the collective representing each leaf
/// switch once as a sender, and once as a receiver. These flows are run at
/// a high priority and are the only flows used for verifying temporal
/// symmetry").
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize, Debug, Default)]
pub enum MeasuredSubset {
    /// Tag and prioritize every transfer (right for ring collectives,
    /// which naturally have one non-local flow per leaf).
    #[default]
    All,
    /// Tag and prioritize only these transfer indices; the rest run
    /// untagged at [`Priority::BACKGROUND`].
    Transfers(Vec<u32>),
}

impl MeasuredSubset {
    /// True when transfer index `t` is measured (tagged + prioritized).
    pub fn contains(&self, t: u32) -> bool {
        match self {
            MeasuredSubset::All => true,
            MeasuredSubset::Transfers(v) => v.contains(&t),
        }
    }
}

/// Runner parameters.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct RunnerConfig {
    /// Job id: the tag's sentinel value and the wake-token namespace.
    pub job: u32,
    /// Training iterations to run.
    pub iterations: u32,
    /// Compute time separating an iteration's end from the next one's start.
    pub compute_gap: SimDuration,
    /// Per-node start jitter model.
    pub jitter: JitterModel,
    /// Priority class for the collective's *measured* data packets (the
    /// measured collective runs at [`Priority::MEASURED`], §5.1).
    pub prio: Priority,
    /// Stamp packets with a [`CollectiveTag`] (disable to model an untagged
    /// legacy job that FlowPulse cannot see).
    pub tag: bool,
    /// Which transfers are measured (tagged + prioritized).
    pub measured: MeasuredSubset,
    /// Seed for the jitter stream (independent of fabric randomness).
    pub jitter_seed: u64,
    /// Caller's promise that any installed iteration hooks observe or
    /// mutate state only at the barrier iterations passed to
    /// [`Simulator::enable_memo`] (e.g. a fault install/heal hook). With
    /// this set, the runner offers iteration boundaries to the memo engine
    /// even though hooks are present — a fast-forward never crosses a
    /// barrier, so the skipped hook invocations were no-ops by promise.
    /// Ignored (harmless) when memoization is not enabled.
    #[serde(default)]
    pub memo_barrier_hooks: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            job: 1,
            iterations: 1,
            compute_gap: SimDuration::from_us(20),
            jitter: JitterModel::None,
            prio: Priority::MEASURED,
            tag: true,
            measured: MeasuredSubset::All,
            jitter_seed: 0x6a_17_7e_12,
            memo_barrier_hooks: false,
        }
    }
}

/// Callback invoked at an iteration boundary with `(sim, iteration)`.
pub type IterationHook = Box<dyn FnMut(&mut Simulator, u32)>;

/// Drives one collective job across iterations.
pub struct CollectiveRunner {
    cfg: RunnerConfig,
    sched: Schedule,
    children: Vec<Vec<u32>>,
    roots: Vec<u32>,
    node_of: HashMap<HostId, usize>,
    rng: SmallRng,
    on_iter_start: Option<IterationHook>,
    on_iter_end: Option<IterationHook>,

    iter: u32,
    outstanding: u32,
    flow_map: HashMap<FlowId, u32>,
    /// Reusable buffer for the transfers unblocked by one completion
    /// (avoids a heap allocation per completed transfer, mirroring the
    /// simulator's `scratch_cands` pattern).
    scratch_unblocked: Vec<u32>,

    /// Scheduled start time of the running iteration (before jitter). The
    /// per-iteration log is the engine's ([`Simulator::iter_spans`]).
    iter_start: SimTime,
}

impl CollectiveRunner {
    /// Build a runner for `sched` with `cfg`.
    pub fn new(sched: Schedule, cfg: RunnerConfig) -> Self {
        sched.validate().expect("invalid schedule");
        assert!(cfg.iterations > 0);
        let children = sched.children();
        let roots = sched.roots();
        let node_of = sched
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &h)| (h, i))
            .collect();
        let rng = SmallRng::seed_from_u64(cfg.jitter_seed);
        CollectiveRunner {
            cfg,
            sched,
            children,
            roots,
            node_of,
            rng,
            on_iter_start: None,
            on_iter_end: None,
            iter: 0,
            outstanding: 0,
            flow_map: HashMap::new(),
            scratch_unblocked: Vec::new(),
            iter_start: SimTime::ZERO,
        }
    }

    /// The schedule being executed.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// The runner config.
    pub fn config(&self) -> &RunnerConfig {
        &self.cfg
    }

    fn token(&self, transfer: u32) -> u64 {
        (self.cfg.job as u64) << 32 | transfer as u64
    }

    fn owns_token(&self, token: u64) -> Option<u32> {
        (token >> 32 == self.cfg.job as u64).then_some((token & 0xffff_ffff) as u32)
    }

    /// Install a hook called when iteration `i` is about to start (before
    /// any of its transfers are scheduled). Harnesses use this to inject or
    /// heal faults at precise iteration boundaries.
    pub fn set_iteration_start_hook(&mut self, hook: IterationHook) {
        self.on_iter_start = Some(hook);
    }

    /// Install a hook called when iteration `i` has fully completed.
    pub fn set_iteration_end_hook(&mut self, hook: IterationHook) {
        self.on_iter_end = Some(hook);
    }

    fn begin_iteration(&mut self, sim: &mut Simulator, base: SimTime) {
        if let Some(h) = self.on_iter_start.as_mut() {
            h(sim, self.iter);
        }
        self.outstanding = self.sched.transfers.len() as u32;
        self.iter_start = base;
        let delays = self
            .cfg
            .jitter
            .sample(self.sched.nodes.len(), &mut self.rng);
        // Roots fire at the iteration start plus their sender's jitter.
        // Nothing here needs `&mut self`, so iterate in place.
        for &r in &self.roots {
            let src = self.sched.transfers[r as usize].src;
            let d = delays[self.node_of[&src]];
            sim.schedule_wake(base + d, src, self.token(r));
        }
    }

    fn post_transfer(&mut self, sim: &mut Simulator, t: u32) {
        let tr = self.sched.transfers[t as usize];
        let measured = self.cfg.measured.contains(t);
        let tag = (self.cfg.tag && measured).then_some(CollectiveTag {
            job: self.cfg.job,
            iter: self.iter,
        });
        let prio = if measured {
            self.cfg.prio
        } else {
            Priority::BACKGROUND
        };
        let fid = sim.post_message(tr.src, tr.dst, tr.bytes, tag, prio);
        self.flow_map.insert(fid, t);
    }
}

impl Application for CollectiveRunner {
    fn on_start(&mut self, sim: &mut Simulator) {
        let now = sim.now();
        self.begin_iteration(sim, now);
    }

    fn on_wake(&mut self, sim: &mut Simulator, _host: HostId, token: u64) {
        if let Some(t) = self.owns_token(token) {
            self.post_transfer(sim, t);
        }
    }

    fn on_message_complete(&mut self, sim: &mut Simulator, flow: FlowId) {
        let Some(t) = self.flow_map.remove(&flow) else {
            return; // not our flow (multi-job fabric)
        };
        self.outstanding -= 1;
        let mut unblocked = std::mem::take(&mut self.scratch_unblocked);
        unblocked.clear();
        unblocked.extend_from_slice(&self.children[t as usize]);
        for &c in &unblocked {
            self.post_transfer(sim, c);
        }
        self.scratch_unblocked = unblocked;
        if self.outstanding == 0 {
            let now = sim.now();
            sim.record_iteration_span(self.cfg.job, self.iter, self.iter_start, now);
            if let Some(h) = self.on_iter_end.as_mut() {
                h(sim, self.iter);
            }
            self.iter += 1;
            if self.iter < self.cfg.iterations {
                let mut base = now;
                // Temporal-symmetry fast-forward (`FP_MEMO`): at a clean
                // boundary the engine may replay recorded steady-state
                // iterations instead of simulating them. Only offered on
                // jitter-free runs — jitter draws from the runner's
                // private RNG (invisible to the engine fingerprint) — and
                // only when hooks are absent or the caller promised they
                // act solely at memo barrier iterations
                // (`memo_barrier_hooks`), which a fast-forward never
                // crosses. The engine extends its own span log over the
                // replayed iterations; the runner only skips past them.
                if self.cfg.jitter == JitterModel::None
                    && (self.cfg.memo_barrier_hooks
                        || (self.on_iter_start.is_none() && self.on_iter_end.is_none()))
                {
                    if let Some(ff) = sim.memo_boundary(self.iter, self.cfg.iterations - self.iter)
                    {
                        self.iter += ff.iters;
                        base = sim.now();
                    }
                }
                if self.iter < self.cfg.iterations {
                    self.begin_iteration(sim, base + self.cfg.compute_gap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ring_allreduce;
    use fp_netsim::config::SimConfig;
    use fp_netsim::topology::{FatTreeSpec, Topology};

    fn fabric(leaves: u32, spines: u32) -> Simulator {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves,
            spines,
            ..Default::default()
        });
        Simulator::new(topo, SimConfig::default(), 99)
    }

    fn hosts(n: u32) -> Vec<HostId> {
        (0..n).map(HostId).collect()
    }

    #[test]
    fn one_iteration_completes() {
        let mut sim = fabric(4, 2);
        let sched = ring_allreduce(&hosts(4), 64 * 1024);
        let runner = CollectiveRunner::new(sched, RunnerConfig::default());
        sim.set_app(Box::new(runner));
        sim.run();
        assert!(sim.all_flows_complete());
        assert_eq!(sim.stats.flows_failed, 0);
        // Counters saw iteration 0 of job 1 at every leaf.
        let c = sim.counters.get(1, 0).expect("iteration recorded");
        for l in 0..4u32 {
            assert!(
                c.leaf_ports(l).iter().sum::<u64>() > 0,
                "leaf {l} saw no tagged traffic"
            );
        }
    }

    #[test]
    fn iterations_are_temporally_symmetric() {
        // The core §4 claim, as a test: with a deterministic adaptive spray
        // and no new faults, per-port tagged volumes are identical across
        // iterations.
        let mut sim = fabric(8, 4);
        let sched = ring_allreduce(&hosts(8), 256 * 1024);
        let cfg = RunnerConfig {
            iterations: 3,
            ..Default::default()
        };
        sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
        sim.run();
        let c0 = sim.counters.get(1, 0).unwrap().bytes.clone();
        let c1 = sim.counters.get(1, 1).unwrap().bytes.clone();
        let c2 = sim.counters.get(1, 2).unwrap().bytes.clone();
        assert_eq!(c0, c1);
        assert_eq!(c1, c2);
        assert!(c0.iter().sum::<u64>() > 0);
    }

    #[test]
    fn runner_tracks_iteration_spans() {
        let mut sim = fabric(4, 2);
        let sched = ring_allreduce(&hosts(4), 32 * 1024);
        let cfg = RunnerConfig {
            iterations: 2,
            compute_gap: SimDuration::from_us(50),
            ..Default::default()
        };
        let runner = CollectiveRunner::new(sched, cfg);
        sim.set_app(Box::new(runner));
        sim.run();
        // Retrieve the runner back? We can't — it's boxed inside. Instead
        // validate via counters: two iterations recorded, second later.
        let i0 = sim.counters.get(1, 0).unwrap();
        let i1 = sim.counters.get(1, 1).unwrap();
        assert!(i1.first_seen_at(1).unwrap() > i0.first_seen_at(1).unwrap());
        assert_eq!(i0.bytes, i1.bytes);
    }

    #[test]
    fn iteration_spans_reach_the_recorder() {
        use std::cell::RefCell;
        use std::rc::Rc;
        type Spans = Rc<RefCell<Vec<(u32, u32, u64, u64)>>>;
        struct Rec(Spans);
        impl fp_telemetry::Recorder for Rec {
            fn on_iteration(&mut self, job: u32, iter: u32, start_ns: u64, end_ns: u64) {
                self.0.borrow_mut().push((job, iter, start_ns, end_ns));
            }
        }
        let spans: Spans = Default::default();
        let mut sim = fabric(4, 2);
        sim.set_recorder(Box::new(Rec(spans.clone())));
        let sched = ring_allreduce(&hosts(4), 32 * 1024);
        let gap = SimDuration::from_us(50);
        let cfg = RunnerConfig {
            iterations: 2,
            compute_gap: gap,
            ..Default::default()
        };
        sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
        sim.run();
        let s = spans.borrow();
        assert_eq!(s.len(), 2);
        for (i, &(job, iter, start, end)) in s.iter().enumerate() {
            assert_eq!(job, 1);
            assert_eq!(iter, i as u32);
            assert!(start < end);
        }
        // Iteration 1's scheduled base is exactly iteration 0's completion
        // plus the compute gap (jitter is off by default).
        assert_eq!(s[1].2, s[0].3 + gap.as_ns());
    }

    #[test]
    fn goodput_accounts_schedule_bytes_over_span() {
        let mut sim = fabric(4, 2);
        let sched = ring_allreduce(&hosts(4), 32 * 1024);
        let total_bytes = sched.total_bytes();
        let cfg = RunnerConfig {
            iterations: 2,
            ..Default::default()
        };
        sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
        sim.run();

        // The engine's always-on span log is the iteration record: goodput
        // is the schedule's bytes over each span.
        let goodput: Vec<f64> = sim
            .iter_spans()
            .iter()
            .map(|s| {
                assert_eq!(s.job, 1);
                assert!(s.start < s.end);
                let span_ns = s.end.as_ns() - s.start.as_ns();
                total_bytes as f64 * 8.0 / (span_ns as f64 * 1e-9)
            })
            .collect();
        assert_eq!(goodput.len(), 2);
        assert!(goodput.iter().all(|&g| g > 0.0));
        // A fault-free fabric runs both iterations at the same rate.
        assert!((goodput[0] - goodput[1]).abs() / goodput[0] < 0.05);
    }

    #[test]
    fn adaptive_spray_keeps_symmetry_tight_under_jitter() {
        // §4: temporal symmetry is resilient to jitter for rings. With the
        // utilization-aware Adaptive policy the per-port byte deficit
        // self-corrects, so even with 5 µs of per-node jitter the
        // iteration-over-iteration deviation stays well below the paper's
        // 1% detection threshold. Queue-only spraying (LeastLoaded) lacks
        // that correction and is markedly noisier at small sizes.
        let max_dev = |bytes: u64, policy: fp_netsim::spray::SprayPolicy| {
            let topo = fp_netsim::topology::Topology::fat_tree(FatTreeSpec {
                leaves: 8,
                spines: 4,
                ..Default::default()
            });
            let cfg_s = SimConfig {
                spray: policy,
                ..Default::default()
            };
            let mut sim = Simulator::new(topo, cfg_s, 99);
            let sched = ring_allreduce(&hosts(8), bytes);
            let cfg = RunnerConfig {
                iterations: 3,
                jitter: JitterModel::Uniform {
                    max: SimDuration::from_us(5),
                },
                ..Default::default()
            };
            sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
            sim.run();
            let base = sim.counters.get(1, 0).unwrap().bytes.clone();
            let mut worst = 0.0f64;
            for it in 1..3 {
                let c = sim.counters.get(1, it).unwrap();
                for (&a, &b) in base.iter().zip(&c.bytes) {
                    if a > 0 {
                        worst = worst.max(((a as f64 - b as f64) / a as f64).abs());
                    }
                }
            }
            worst
        };
        use fp_netsim::spray::SprayPolicy;
        let adaptive = max_dev(4 * 1024 * 1024, SprayPolicy::Adaptive);
        let queue_only = max_dev(4 * 1024 * 1024, SprayPolicy::LeastLoaded);
        assert!(
            adaptive < 0.005,
            "adaptive symmetry noise should be <0.5%, got {:.3}%",
            adaptive * 100.0
        );
        assert!(
            adaptive < queue_only,
            "adaptive must beat queue-only: {adaptive} vs {queue_only}"
        );
    }

    #[test]
    fn untagged_job_is_invisible() {
        let mut sim = fabric(4, 2);
        let sched = ring_allreduce(&hosts(4), 32 * 1024);
        let cfg = RunnerConfig {
            tag: false,
            ..Default::default()
        };
        sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
        sim.run();
        assert!(sim.all_flows_complete());
        assert!(sim.counters.keys().is_empty());
    }

    #[test]
    fn measured_subset_tags_and_prioritizes_only_chosen_transfers() {
        use crate::alltoall::{alltoall_uniform, single_nonlocal_subset};
        use crate::runner::MeasuredSubset;
        let mut sim = fabric(4, 2);
        let sched = alltoall_uniform(&hosts(4), 256 * 1024);
        let host_leaf: Vec<u32> = (0..4).collect();
        let subset = single_nonlocal_subset(&sched, &host_leaf);
        let subset_bytes: u64 = subset
            .iter()
            .map(|&i| sched.transfers[i as usize].bytes)
            .sum();
        let cfg = RunnerConfig {
            measured: MeasuredSubset::Transfers(subset.clone()),
            ..Default::default()
        };
        sim.set_app(Box::new(CollectiveRunner::new(sched, cfg)));
        sim.run();
        assert!(sim.all_flows_complete());
        // Only the subset's bytes were counted.
        let c = sim.counters.get(1, 0).unwrap();
        assert_eq!(c.total_bytes(), subset_bytes);
        // Non-subset flows ran untagged at background priority.
        let bg = sim
            .flows
            .iter()
            .filter(|f| f.tag.is_none() && f.prio == fp_netsim::packet::Priority::BACKGROUND)
            .count();
        assert_eq!(bg, 4 * 3 - subset.len());
    }

    #[test]
    fn token_namespace_is_job_scoped() {
        let sched = ring_allreduce(&hosts(4), 32 * 1024);
        let r = CollectiveRunner::new(
            sched,
            RunnerConfig {
                job: 7,
                ..Default::default()
            },
        );
        assert_eq!(r.owns_token((7u64 << 32) | 3), Some(3));
        assert_eq!(r.owns_token((8u64 << 32) | 3), None);
    }
}
