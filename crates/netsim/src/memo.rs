//! Temporal-symmetry fast-forward: steady-state iteration memoization.
//!
//! The paper's central observation — collective traffic is *temporally
//! symmetric*, every training iteration pushing the same bytes over the
//! same ports — is not just a detection signal, it is an execution
//! shortcut. Once the simulator reaches a steady state, iteration `i+1`
//! is an exact replay of iteration `i` shifted rigidly in time, flow ids
//! and scheduler sequence numbers. This module detects that fixed point
//! and, instead of simulating the next iteration event by event, applies
//! the recorded window's observable deltas in O(residual state) and jumps
//! the clock — producing byte-identical output (`FP_MEMO=1` vs live) at a
//! fraction of the event cost.
//!
//! ## The fingerprint theorem
//!
//! Let `B_i` be the boundary where iteration `i`'s last transfer
//! completes, at time `T_i`. At each boundary we capture a *normalized
//! residual snapshot*: every piece of simulator state that can influence
//! future behaviour, rebased so that absolute time becomes an offset from
//! `T_i`, flow ids become offsets from the flow-table length, scheduler
//! sequence numbers become offsets from the sequence counter, and
//! iteration tags become distances from the just-finished iteration.
//!
//! If the snapshots at `B_{i-k}` and `B_i` are equal for some small
//! `k ≥ 1`, then by induction the engine — a deterministic function of
//! that residual plus the workload's (identical, jitter-free) next
//! iterations — must reproduce the window `(B_{i-k}, B_i]` exactly,
//! shifted by the period `P = T_i - T_{i-k}`, by `k·F` flow ids (`k`
//! iteration blocks) and by `Sq` sequence numbers. The next matching
//! boundary lands at `T_i + P` with an equal snapshot again, so the
//! replay telescopes: `u` whole windows (`u·k` iterations) fast-forward
//! in one step. `k > 1` matters in practice: the least-loaded spray
//! cursor settles into short cycles (its phase advances by a fixed
//! stride per iteration), so consecutive boundaries differ forever while
//! every `k`-th boundary matches — the harness keeps a small ring of
//! recent boundary records and matches at the smallest available
//! distance.
//!
//! ## What a replay applies
//!
//! * every pending entry of the agenda (`crate::pipeline`) shifts by
//!   `(u·P, u·Sq, u·k·F)` in place (uniform shifts preserve heap and FIFO
//!   order);
//! * cumulative counters ([`Stats`], per-link tx/delivered counters,
//!   scheduler push/pop statistics) grow by `u ×` the recorded window
//!   delta; high-water marks are left alone — a matched steady-state
//!   window sets no new maximum;
//! * FlowPulse counter matrices gain `u` shifted copies of the window's
//!   per-iteration entries (timestamps shifted by `j·P`, iterations by
//!   `j·k`), so snapshot sequences and detector inputs are byte-identical;
//! * the flow table gains `u·k` shifted blocks, and the aged-out blocks in
//!   between are rewritten to the terminal frozen form of their phase
//!   (see `memo_replay_flows`);
//! * per-iteration span records repeat with shifted times;
//! * the clock jumps to `T_i + u·P`.
//!
//! One [`TraceEvent::MemoFastForward`] record per replayed span is the
//! *only* observable difference against a live run — harnesses that
//! require byte-identity compare traces modulo that record (and the
//! default comparisons never trace it: the memo-eligible configurations
//! trace nothing in a steady-state window, or memoization refuses).
//!
//! ## Eligibility and invalidation
//!
//! The snapshot *refuses* (falls back to live simulation, recording a
//! reason) whenever residual state is not provably periodic: a telemetry
//! recorder is attached, a fault is installed on any link,
//! control/fault/wake/sampler events are pending in the scheduler, the
//! flow table does not divide evenly into per-iteration blocks, or the
//! warm-up (`next_iter < D + 3` for block-reference depth `D`) has
//! not completed. Random spray policies are refused at enable time (their
//! RNG draws would also break the fingerprint, but refusing early gives a
//! clear fallback reason). Scheduled faults and controls act as
//! *barriers*: the caller passes their iteration numbers to
//! [`Simulator::enable_memo`] and a replay never crosses one — the
//! barrier iteration runs live, where its `FaultUpdate`/`ControlUpdate`
//! events (pending in the scheduler) break the fingerprint chain anyway.

use super::{IterSpanRecord, Simulator};
use crate::bitset::BitSet;
use crate::counters::{CounterDelta, CounterStore};
use crate::egress::PortBudget;
use crate::engine::{EventKind, SchedStats};
use crate::ids::LinkId;
use crate::packet::{AckBlock, FlowId, Packet, PacketKind, NPRIO};
use crate::pipeline::Due;
use crate::rng::RngStreams;
use crate::spray::SprayPolicy;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
use crate::transport::{AckAccum, FlowState};

/// A fast-forward the engine just performed, reported to the workload
/// runner so it can skip the replayed iterations (the engine extends its
/// own counters, statistics and span log over them).
#[derive(Copy, Clone, Debug)]
pub struct MemoReplay {
    /// Iterations replayed (the runner's iteration counter advances by
    /// this much): a whole number of matched steady-state windows.
    pub iters: u32,
}

/// Memoization outcome counters for one run (surfaced in trial results,
/// campaign manifests and bench rows).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoCounters {
    /// Fast-forwards performed.
    pub hits: u64,
    /// Collective iterations replayed instead of simulated.
    pub replayed_iters: u64,
    /// Engine events the replayed spans account for.
    pub replayed_events: u64,
    /// First reason memoization refused or fell back, if any.
    pub fallback: Option<String>,
}

/// Longest steady-state cycle the boundary ring can match (`k ≤ 8`).
/// The least-loaded spray cursor advances its phase by a fixed stride
/// per iteration, giving cycles of length `spines / gcd(stride, spines)`
/// — up to 8 covers every fabric benched here while keeping at most 8
/// boundary records alive.
const MEMO_RING: usize = 8;

/// Per-simulator memoization state (boxed off the `Simulator` hot path).
pub struct MemoState {
    /// Iterations that must run live (fault onsets, heal edges, scheduled
    /// controls). A replay never covers one.
    barriers: Vec<u32>,
    /// Set when the configuration can never memoize (e.g. random spray).
    disabled: Option<&'static str>,
    /// Records of the last [`MEMO_RING`] *consecutive* eligible
    /// boundaries, oldest first. Any refusal clears it, so entry `j`
    /// (from the back) is always exactly `j + 1` boundaries ago.
    ring: Vec<BoundaryRecord>,
    hits: u64,
    replayed_iters: u64,
    replayed_events: u64,
    fallback: Option<&'static str>,
}

impl MemoState {
    /// Push a boundary record, evicting the oldest past [`MEMO_RING`].
    fn push(&mut self, rec: BoundaryRecord) {
        if self.ring.len() == MEMO_RING {
            self.ring.remove(0);
        }
        self.ring.push(rec);
    }
}

/// Everything recorded at one eligible iteration boundary: the normalized
/// residual fingerprint plus baselines for computing the next window's
/// observable deltas.
struct BoundaryRecord {
    /// Boundary time `T_i`.
    at: SimTime,
    /// Scheduler sequence counter at the boundary.
    seq: u64,
    /// Flow-table length at the boundary.
    flows_len: u32,
    /// Cumulative run statistics (cloned baseline).
    stats: Stats,
    /// Scheduler statistics (cloned baseline).
    sched: SchedStats,
    /// Per-link `[txed_pkts, txed_bytes, delivered_pkts, delivered_bytes]`.
    link_tx: Vec<[u64; 4]>,
    /// FlowPulse leaf counters (cloned baseline).
    counters: CounterStore,
    /// FlowPulse agg counters (cloned baseline; empty on 2-level fabrics).
    agg_counters: CounterStore,
    /// Trace records offered so far — a nonzero window delta refuses the
    /// replay (traced events are not replayed).
    trace_offered: u64,
    /// Iteration-span records logged so far.
    spans_len: usize,
    /// The normalized residual fingerprint.
    snap: NormSnapshot,
}

impl BoundaryRecord {
    fn capture(sim: &Simulator, snap: NormSnapshot) -> BoundaryRecord {
        BoundaryRecord {
            at: sim.now,
            seq: sim.agenda.memo_seq(),
            flows_len: sim.flows.len() as u32,
            stats: sim.stats.clone(),
            sched: sim.sched_stats(),
            link_tx: sim
                .links
                .iter()
                .map(|l| {
                    [
                        l.txed_pkts,
                        l.txed_bytes,
                        l.delivered_pkts,
                        l.delivered_bytes,
                    ]
                })
                .collect(),
            counters: sim.counters.clone(),
            agg_counters: sim.agg_counters.clone(),
            trace_offered: sim.trace.offered,
            spans_len: sim.iter_spans.len(),
            snap,
        }
    }
}

// ---------------------------------------------------------------------
// Normalized residual state
// ---------------------------------------------------------------------

/// A pending timer/control event, rebased to the boundary. One multiset
/// whichever container of the agenda an event waits in: that never affects
/// dispatch order, so it is not residual state.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct NormEvent {
    /// Time offset from the boundary (`at - T_i`).
    dt: u64,
    /// Sequence offset from the counter (`seq_counter - seq`).
    rseq: u64,
    kind: NormEventKind,
}

/// The eligible event kinds, with flow references rebased. `Wake`,
/// `FaultUpdate`, `ControlUpdate`, `Pfc` and `Sample` refuse the snapshot:
/// they are scheduled from aperiodic sources (fault schedules, control
/// planes, recorders) and must never be silently replayed.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
enum NormEventKind {
    Rto { dflow: u32, seq: u32, attempt: u32 },
    AckFlush { dflow: u32 },
    TxDone { link: u32 },
}

/// A packet, with flow id and iteration tag rebased.
#[derive(PartialEq, Eq, Debug)]
struct NormPacket {
    kind: NormPacketKind,
    src: u32,
    dst: u32,
    size: u32,
    prio: u8,
    /// `(job, top_iter - iter)`.
    tag: Option<(u32, u32)>,
    src_leaf: u16,
    ingress: Option<u32>,
    ce: bool,
}

#[derive(PartialEq, Eq, Debug)]
enum NormPacketKind {
    Data { dflow: u32, seq: u32 },
    Ack { dflow: u32, block: AckBlock },
}

/// One packet on the wire (the agenda visits them latency class by
/// latency class, each FIFO by construction, so the order is canonical).
#[derive(PartialEq, Eq, Debug)]
struct NormInFlight {
    dt: u64,
    rseq: u64,
    link: u32,
    pkt: NormPacket,
}

/// One directed link's runtime state, rebased.
#[derive(PartialEq, Eq, Debug)]
struct NormLink {
    admin_up: bool,
    spray_avoid: bool,
    txing: bool,
    current: Option<NormPacket>,
    inflight: u32,
    queued_bytes: u64,
    queues: [Vec<NormPacket>; NPRIO],
    paused: [bool; NPRIO],
    /// `T_i - paused_since` per paused priority, zero when not paused
    /// (replay shifts `paused_since` so the age is preserved).
    pause_age: [u64; NPRIO],
    /// PFC budget of the switch port this link ends at.
    pfc: PortBudget,
}

/// One switch's runtime state. `valid_up`/`valid_core` are derived from
/// admin state, which `NormLink::admin_up` already covers. `rr_cursor` is
/// compared raw: the adaptive and least-loaded policies write bounded
/// values whose short phase cycles the boundary ring matches at distance
/// `k`, while round-robin's cursor grows monotonically — no two
/// boundaries ever fingerprint equal, which is exactly the safe fallback
/// (a replayed round-robin window would resume from the wrong cursor
/// phase).
#[derive(PartialEq, Eq, Debug)]
struct NormSwitch {
    rr_cursor: u64,
    /// Pluggable-backend residual from [`crate::spray::Sprayer::memo_residual`]:
    /// a canonical digest of any backend-private state (0 for stateless
    /// backends). A backend refusing to fingerprint fails the snapshot
    /// with its reason instead.
    sprayer_residual: u64,
    /// Canonical adaptive-spray deficit per uplink slot: `(value, phase)`
    /// after an eager decay sync (see `memo_sync_spray_decay`), where
    /// `phase = T_i - spray_deficit_at`. Never-touched slots are
    /// `(0, u64::MAX)` — their timestamp base is still the initial zero
    /// and must not be compared (or shifted) against the boundary clock.
    spray: Vec<(u64, u64)>,
}

/// One flow's transport state, rebased. Flows at block distance `> D+1`
/// are frozen (no residual state references them) and excluded.
#[derive(PartialEq, Eq, Debug)]
struct NormFlow {
    src: u32,
    dst: u32,
    bytes: u64,
    mtu: u32,
    npkts: u32,
    /// `(job, top_iter - iter)`.
    tag: Option<(u32, u32)>,
    prio: u8,
    next_seq: u32,
    acked: BitSet,
    failed: bool,
    retx: u32,
    cum_acked: u32,
    /// The readable part of the first-attempt slot log — the armed slot
    /// and those behind it — as `(at - T_i, seq_counter - seq)`; empty
    /// when no slot is armed.
    sent: Vec<(u64, u64)>,
    rto_cursor: u32,
    rto_armed: bool,
    rcvd: BitSet,
    pending_ack: Option<AckAccum>,
    /// `T_i - completed_at`, if completed.
    completed_age: Option<u64>,
    /// `T_i - created_at`.
    created_age: u64,
}

/// The full normalized residual fingerprint at one boundary. Two equal
/// snapshots `k` boundaries apart prove the window between them is a
/// rigid shift of the `k`-iteration window before it.
#[derive(PartialEq, Debug)]
struct NormSnapshot {
    /// Max block distance referenced by residual state (`D`).
    dterm: u32,
    /// Flows per iteration block (`F`).
    fpb: u32,
    /// Pending timed events, sorted by `(dt, rseq)`.
    events: Vec<NormEvent>,
    /// Packets on the wire, in the agenda's visiting order. The armed
    /// pipe fronts are derived from these two and left out.
    wire: Vec<NormInFlight>,
    links: Vec<NormLink>,
    switches: Vec<NormSwitch>,
    /// Per-host active-flow deques (`flows_len - flow` per entry; may
    /// contain exhausted flows awaiting lazy removal — those shift too).
    hosts: Vec<Vec<u32>>,
    /// All four RNG streams, compared raw: equality implies the window
    /// drew nothing, so a replay correctly leaves them untouched.
    rng: RngStreams,
    /// Normalized flow blocks at distances `0..=D+1`, oldest first.
    blocks: Vec<NormFlow>,
}

/// Shared normalization context: rebases ids and times, tracks the max
/// block distance referenced, and records the first refusal reason.
struct Normalizer {
    t_ns: u64,
    seqc: u64,
    flows_len: u32,
    fpb: u32,
    /// The just-finished iteration (`next_iter - 1`).
    top_iter: u32,
    maxd: u32,
    err: Option<&'static str>,
}

impl Normalizer {
    fn fail(&mut self, why: &'static str) {
        self.err.get_or_insert(why);
    }

    /// Rebase a flow reference and record its block distance.
    fn dflow(&mut self, f: FlowId) -> u32 {
        if f >= self.flows_len {
            self.fail("foreign-flow-reference");
            return 0;
        }
        let dist = self.top_iter - f / self.fpb;
        self.maxd = self.maxd.max(dist);
        self.flows_len - f
    }

    fn diter(&mut self, iter: u32) -> u32 {
        match self.top_iter.checked_sub(iter) {
            Some(d) => d,
            None => {
                self.fail("future-iteration-tag");
                0
            }
        }
    }

    fn dt(&mut self, at: SimTime) -> u64 {
        match at.as_ns().checked_sub(self.t_ns) {
            Some(d) => d,
            None => {
                self.fail("event-before-boundary");
                0
            }
        }
    }

    fn age(&mut self, at: SimTime) -> u64 {
        match self.t_ns.checked_sub(at.as_ns()) {
            Some(d) => d,
            None => {
                self.fail("timestamp-after-boundary");
                0
            }
        }
    }

    fn rseq(&mut self, seq: u64) -> u64 {
        match self.seqc.checked_sub(seq) {
            Some(d) => d,
            None => {
                self.fail("unissued-sequence");
                0
            }
        }
    }

    fn packet(&mut self, p: &Packet) -> NormPacket {
        let kind = match p.kind {
            PacketKind::Data { flow, seq } => NormPacketKind::Data {
                dflow: self.dflow(flow),
                seq,
            },
            PacketKind::Ack { flow, block } => NormPacketKind::Ack {
                dflow: self.dflow(flow),
                block,
            },
        };
        NormPacket {
            kind,
            src: p.src.0,
            dst: p.dst.0,
            size: p.size,
            prio: p.prio.0,
            tag: p.tag.map(|t| (t.job, self.diter(t.iter))),
            src_leaf: p.src_leaf,
            ingress: p.ingress.map(|l| l.0),
            ce: p.ce,
        }
    }

    fn flow(&mut self, f: &FlowState) -> NormFlow {
        let unsurfaced = f.sent.get(f.rto_cursor as usize..).unwrap_or(&[]);
        let sent = unsurfaced
            .iter()
            .map(|slot| {
                let (at, seq) = slot.memo_parts();
                (self.dt(at), self.rseq(seq))
            })
            .collect();
        NormFlow {
            src: f.src.0,
            dst: f.dst.0,
            bytes: f.bytes,
            mtu: f.mtu,
            npkts: f.npkts,
            tag: f.tag.map(|t| (t.job, self.diter(t.iter))),
            prio: f.prio.0,
            next_seq: f.next_seq,
            acked: f.acked.clone(),
            failed: f.failed,
            retx: f.retx,
            cum_acked: f.cum_acked,
            sent,
            rto_cursor: f.rto_cursor,
            rto_armed: f.rto_armed,
            rcvd: f.rcvd.clone(),
            pending_ack: f.pending_ack,
            completed_age: f.completed_at.map(|c| self.age(c)),
            created_age: self.age(f.created_at),
        }
    }
}

/// Scheduler-statistics growth over one window. `max_pending` is a
/// high-water mark; the delta carries zero and replay never adds to it.
/// The timing wheel's placement diagnostics (level pushes, cascades,
/// spills, splices) depend on absolute-time radix digits and are *not*
/// exactly periodic — replay applies the recorded window's counts as an
/// approximation, documented in DESIGN.md §11 (pushes and pops are
/// exact; only the per-level placement split can drift).
fn sched_window(cur: &SchedStats, prev: &SchedStats) -> SchedStats {
    SchedStats {
        pushes: cur.pushes - prev.pushes,
        pops: cur.pops - prev.pops,
        max_pending: 0,
        level_pushes: std::array::from_fn(|i| cur.level_pushes[i] - prev.level_pushes[i]),
        spill_pushes: cur.spill_pushes - prev.spill_pushes,
        cascades: cur.cascades - prev.cascades,
        cascaded_entries: cur.cascaded_entries - prev.cascaded_entries,
        due_splices: cur.due_splices - prev.due_splices,
        class_pushes: cur.class_pushes - prev.class_pushes,
        class_pops: cur.class_pops - prev.class_pops,
        head_arms: cur.head_arms - prev.head_arms,
        head_pops: cur.head_pops - prev.head_pops,
    }
}

/// Shift a packet onto the replayed iteration's flow block.
fn shift_packet(p: &mut Packet, dflow: u32, diter: u32) {
    match &mut p.kind {
        PacketKind::Data { flow, .. } => *flow += dflow,
        PacketKind::Ack { flow, .. } => *flow += dflow,
    }
    if let Some(tag) = &mut p.tag {
        tag.iter += diter;
    }
}

impl Simulator {
    /// Arm temporal-symmetry memoization (`FP_MEMO`). `barriers` lists
    /// iteration numbers that must run live — fault onsets, heal edges
    /// and scheduled control actions; a fast-forward never covers one.
    ///
    /// Contract: the caller promises that per-iteration hooks observing
    /// simulator state (monitors, controllers) either are absent or fire
    /// only at barrier iterations, and that the run drains to completion
    /// (no mid-run horizon) — a replay jumps the clock and would
    /// overshoot `run_until` limits. The workload runner additionally
    /// refuses the boundary hook under start jitter (its private RNG is
    /// invisible to the fingerprint).
    pub fn enable_memo(&mut self, barriers: Vec<u32>) {
        let disabled = match self.cfg.spray {
            SprayPolicy::Random | SprayPolicy::LeastLoadedRandomTie => Some("random-spray"),
            // Adaptive spraying is phase-anchored: deficit halvings happen
            // on an absolute `spray_tau` grid (`spray_deficit_at` starts at
            // 0 and only ever advances by whole multiples of tau), so the
            // boundary-relative deficit state repeats only when the
            // iteration period divides tau. The fingerprint would soundly
            // auto-miss forever; refuse eagerly so the fallback reason is
            // visible instead of a silent perpetual miss.
            SprayPolicy::Adaptive => Some("adaptive-spray-decay"),
            // REPS recycles entropies fed by ACK arrival order; the cache
            // is feedback-dependent state the fingerprint cannot soundly
            // normalize, so refuse eagerly with a visible reason.
            SprayPolicy::Reps | SprayPolicy::RepsFailover => Some("reps-entropy-cache"),
            // ECMP is a pure flow hash; PRIME is a pure function of
            // (flow, seq, epoch) and its sprayer reports a dynamic
            // residual if congestion epochs ever appear (see snapshot).
            SprayPolicy::RoundRobin
            | SprayPolicy::LeastLoaded
            | SprayPolicy::Ecmp
            | SprayPolicy::Prime => None,
        };
        self.memo = Some(Box::new(MemoState {
            barriers,
            disabled,
            ring: Vec::new(),
            hits: 0,
            replayed_iters: 0,
            replayed_events: 0,
            fallback: None,
        }));
    }

    /// Memoization outcome counters, if [`Simulator::enable_memo`] was
    /// called.
    pub fn memo_counters(&self) -> Option<MemoCounters> {
        self.memo.as_ref().map(|m| MemoCounters {
            hits: m.hits,
            replayed_iters: m.replayed_iters,
            replayed_events: m.replayed_events,
            fallback: m.fallback.map(str::to_owned),
        })
    }

    /// Iteration-boundary hook, called by the workload runner right after
    /// iteration `next_iter - 1` completed with `remaining` iterations
    /// left to run. Returns a [`MemoReplay`] when the engine
    /// fast-forwarded `iters` of them; the runner then advances its own
    /// iteration counter instead of scheduling the next iteration
    /// normally. Returns `None` (and simulates live) on a fingerprint
    /// miss or any eligibility refusal.
    pub fn memo_boundary(&mut self, next_iter: u32, remaining: u32) -> Option<MemoReplay> {
        let mut st = self.memo.take()?;
        let r = self.memo_boundary_inner(&mut st, next_iter, remaining);
        self.memo = Some(st);
        r
    }

    fn memo_boundary_inner(
        &mut self,
        st: &mut MemoState,
        next_iter: u32,
        remaining: u32,
    ) -> Option<MemoReplay> {
        if let Some(why) = st.disabled {
            st.fallback.get_or_insert(why);
            return None;
        }
        if remaining == 0 {
            return None;
        }
        if self.recorder.is_some() {
            st.fallback.get_or_insert("recorder-attached");
            st.ring.clear();
            return None;
        }
        let snap = match self.memo_snapshot(next_iter) {
            Ok(s) => s,
            Err(why) => {
                // Warm-up is a phase every memoized run passes through,
                // not a downgrade worth reporting.
                if why != "warmup" {
                    st.fallback.get_or_insert(why);
                }
                st.ring.clear();
                return None;
            }
        };
        // Cap the replay at the first upcoming barrier: that iteration
        // (and the windows around it) must simulate live.
        let mut cap = remaining;
        for &b in &st.barriers {
            if b >= next_iter {
                cap = cap.min(b - next_iter);
            }
        }
        // Match against the ring, most recent first: the entry `k`
        // boundaries back certifies a steady state of period `k`
        // iterations. Smallest `k` wins (most iterations per window
        // record, fewest live boundaries between hits).
        let Some(pos) = st.ring.iter().rposition(|p| p.snap == snap) else {
            st.push(BoundaryRecord::capture(self, snap));
            return None;
        };
        let k = (st.ring.len() - pos) as u32;
        // Whole windows only: a partial window would land mid-cycle on a
        // boundary whose residual was never recorded.
        let units = cap / k;
        if units == 0 {
            st.push(BoundaryRecord::capture(self, snap));
            return None;
        }
        let p = st.ring.swap_remove(pos);
        if self.trace.offered != p.trace_offered {
            // Something exceptional was traced inside the window; traced
            // events are not replayed, so this window stays live.
            st.fallback.get_or_insert("traced-events-in-window");
            st.ring.clear();
            st.push(BoundaryRecord::capture(self, snap));
            return None;
        }
        let period_ns = self.now.as_ns() - p.at.as_ns();
        if period_ns == 0 {
            st.fallback.get_or_insert("zero-period");
            st.ring.clear();
            st.push(BoundaryRecord::capture(self, snap));
            return None;
        }
        let iters = units * k;
        let stats_delta = self.stats.memo_diff(&p.stats);
        // A live run stops at `max_events` mid-iteration; never replay
        // across the budget (the gate keeps budget-limited runs live and
        // therefore byte-identical).
        if stats_delta
            .events
            .saturating_mul(units as u64)
            .saturating_add(self.stats.events)
            > self.cfg.max_events
        {
            st.fallback.get_or_insert("event-budget");
            st.ring.clear();
            st.push(BoundaryRecord::capture(self, snap));
            return None;
        }
        debug_assert_eq!(self.flows.len() as u32 - p.flows_len, k * snap.fpb);

        // ---- recorded window deltas ----
        let sq = self.agenda.memo_seq() - p.seq;
        let link_delta: Vec<[u64; 4]> = self
            .links
            .iter()
            .zip(&p.link_tx)
            .map(|(l, b)| {
                [
                    l.txed_pkts - b[0],
                    l.txed_bytes - b[1],
                    l.delivered_pkts - b[2],
                    l.delivered_bytes - b[3],
                ]
            })
            .collect();
        let counter_deltas: Vec<CounterDelta> = self.counters.memo_diff(&p.counters);
        let agg_deltas: Vec<CounterDelta> = self.agg_counters.memo_diff(&p.agg_counters);
        let sched_delta = sched_window(&self.sched_stats(), &p.sched);
        let span_delta: Vec<IterSpanRecord> = self.iter_spans[p.spans_len..].to_vec();

        // ---- in-place fast-forward of units windows (iters iterations) ----
        let boundary = self.now;
        let dt = SimDuration::from_ns(period_ns * units as u64);
        let dseq = sq * units as u64;
        let dflow = snap.fpb * iters;
        self.agenda
            .memo_rebase(dt, dseq, dflow, &mut |pkt| shift_packet(pkt, dflow, iters));
        for (l, d) in self.links.iter_mut().zip(&link_delta) {
            l.txed_pkts += d[0] * units as u64;
            l.txed_bytes += d[1] * units as u64;
            l.delivered_pkts += d[2] * units as u64;
            l.delivered_bytes += d[3] * units as u64;
            for pkt in l.packets_mut() {
                shift_packet(pkt, dflow, iters);
            }
            for pr in 0..NPRIO {
                if l.paused[pr] {
                    l.paused_since[pr] += dt;
                }
            }
        }
        if self.cfg.spray_tau.as_ns() > 0 {
            for sw in &mut self.switches.state {
                for v in 0..sw.spray_deficit_at.len() {
                    // Never-touched slots keep their initial zero base
                    // (it is not boundary-relative state).
                    if !sw.untouched(v) {
                        sw.spray_deficit_at[v] += dt.as_ns();
                    }
                }
            }
        }
        for h in &mut self.hosts {
            for f in &mut h.active {
                *f += dflow;
            }
        }
        self.memo_replay_flows(&snap, next_iter, units, k, period_ns, sq);
        for j in 1..=units {
            let tshift = period_ns * j as u64;
            for d in &counter_deltas {
                self.counters.memo_apply(d, j * k, tshift);
            }
            for d in &agg_deltas {
                self.agg_counters.memo_apply(d, j * k, tshift);
            }
            for sp in &span_delta {
                self.iter_spans.push(IterSpanRecord {
                    job: sp.job,
                    iter: sp.iter + j * k,
                    start: sp.start + SimDuration::from_ns(tshift),
                    end: sp.end + SimDuration::from_ns(tshift),
                });
            }
        }
        self.stats.memo_apply(&stats_delta, units as u64);
        self.agenda.memo_add_stats(&sched_delta, units as u64);
        self.now = boundary + dt;
        let replayed_events = stats_delta.events * units as u64;
        self.trace.push(
            boundary,
            TraceEvent::MemoFastForward {
                iters,
                events: replayed_events,
            },
        );
        st.hits += 1;
        st.replayed_iters += iters as u64;
        st.replayed_events += replayed_events;

        // The theorem says the residual at the new boundary normalizes to
        // the same fingerprint; verify that in debug builds (this runs in
        // every debug-mode test that memoizes).
        #[cfg(debug_assertions)]
        {
            let re = self
                .memo_snapshot(next_iter + iters)
                .expect("post-replay snapshot became ineligible");
            assert!(
                re == snap,
                "fast-forward did not preserve the normalized residual"
            );
        }
        // The jump crossed `units` whole cycles, so the landing boundary
        // is in the matched record's phase — but the other ring entries
        // are no longer 1..len boundaries back. Restart the ring from the
        // landing boundary (its baselines re-captured post-replay).
        st.ring.clear();
        st.push(BoundaryRecord::capture(self, snap));
        Some(MemoReplay { iters })
    }

    /// Eagerly apply the lazy exponential decay of every adaptive-spray
    /// deficit slot up to `now`
    /// ([`crate::switch::SwitchState::sync_decay`]). Semantically a no-op —
    /// the floor-composition identity `q + ⌊(x - q·τ)/τ⌋ = ⌊x/τ⌋` makes
    /// early advancement commute with later ones — but it puts
    /// `spray_deficit_at` into a canonical, boundary-relative form the
    /// fingerprint can compare.
    fn memo_sync_spray_decay(&mut self) {
        let (now, tau) = (self.now.as_ns(), self.cfg.spray_tau.as_ns());
        for sw in &mut self.switches.state {
            sw.sync_decay(now, tau);
        }
    }

    /// Capture the normalized residual fingerprint at an iteration
    /// boundary, or refuse with a reason when residual state is not
    /// provably periodic.
    fn memo_snapshot(&mut self, next_iter: u32) -> Result<NormSnapshot, &'static str> {
        let flows_len = self.flows.len() as u32;
        if next_iter == 0 || flows_len == 0 {
            return Err("warmup");
        }
        if !flows_len.is_multiple_of(next_iter) {
            return Err("uneven-flow-blocks");
        }
        for l in &self.links {
            if l.fault.is_some() {
                return Err("link-fault-active");
            }
        }
        self.memo_sync_spray_decay();
        let mut n = Normalizer {
            t_ns: self.now.as_ns(),
            seqc: self.agenda.memo_seq(),
            flows_len,
            fpb: flows_len / next_iter,
            top_iter: next_iter - 1,
            maxd: 0,
            err: None,
        };

        let mut events: Vec<NormEvent> = Vec::new();
        let mut wire: Vec<NormInFlight> = Vec::new();
        self.agenda.memo_for_each(&mut |at, seq, due| {
            let dt = n.dt(at);
            let rseq = n.rseq(seq);
            let kind = match due {
                Due::Delivery(link, pkt) => {
                    let (link, pkt) = (link.0, n.packet(&pkt));
                    wire.push(NormInFlight {
                        dt,
                        rseq,
                        link,
                        pkt,
                    });
                    return;
                }
                Due::Event(kind) => kind,
            };
            let kind = match kind {
                EventKind::Rto { flow, seq, attempt } => NormEventKind::Rto {
                    dflow: n.dflow(flow),
                    seq,
                    attempt,
                },
                EventKind::AckFlush { flow } => NormEventKind::AckFlush {
                    dflow: n.dflow(flow),
                },
                EventKind::TxDone { link } => NormEventKind::TxDone { link: link.0 },
                EventKind::Wake { .. }
                | EventKind::FaultUpdate { .. }
                | EventKind::ControlUpdate { .. }
                | EventKind::Pfc { .. }
                | EventKind::Sample => {
                    n.fail("pending-control-events");
                    NormEventKind::TxDone { link: u32::MAX }
                }
            };
            events.push(NormEvent { dt, rseq, kind });
        });
        events.sort();

        let links: Vec<NormLink> = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| NormLink {
                admin_up: l.admin_up,
                spray_avoid: l.spray_avoid,
                txing: l.txing,
                current: l.current().map(|p| n.packet(p)),
                inflight: l.inflight,
                queued_bytes: l.queued_bytes,
                queues: std::array::from_fn(|q| l.queued(q).map(|p| n.packet(p)).collect()),
                paused: l.paused,
                pause_age: std::array::from_fn(|q| {
                    if l.paused[q] {
                        n.age(l.paused_since[q])
                    } else {
                        0
                    }
                }),
                pfc: *self.pfc.port(LinkId(i as u32)),
            })
            .collect();

        let tau = self.cfg.spray_tau.as_ns();
        let switches: Vec<NormSwitch> = self
            .switches
            .state
            .iter()
            .map(|s| NormSwitch {
                rr_cursor: s.rr_cursor,
                sprayer_residual: match s.sprayer.memo_residual() {
                    Ok(r) => r,
                    Err(why) => {
                        n.fail(why);
                        0
                    }
                },
                spray: (0..s.spray_deficit.len())
                    .map(|v| {
                        let (d, at) = (s.spray_deficit[v], s.spray_deficit_at[v]);
                        if tau == 0 {
                            (d, 0) // decay disabled; the timestamp base is dead state
                        } else if s.untouched(v) {
                            (0, u64::MAX)
                        } else {
                            (d, n.t_ns - at)
                        }
                    })
                    .collect(),
            })
            .collect();

        let hosts: Vec<Vec<u32>> = self
            .hosts
            .iter()
            .map(|h| h.active.iter().map(|&f| n.dflow(f)).collect())
            .collect();

        let rng = self.rng.clone();

        // Every reference has been seen: D is final. The surgery needs
        // blocks at distances 0..=D+1 present at *both* compared
        // boundaries, i.e. next_iter >= D+3.
        let dterm = n.maxd;
        if next_iter < dterm + 3 {
            return Err("warmup");
        }
        let first_block = (next_iter - 1 - (dterm + 1)) as usize * n.fpb as usize;
        let blocks: Vec<NormFlow> = self.flows[first_block..]
            .iter()
            .map(|f| n.flow(f))
            .collect();

        if let Some(why) = n.err {
            return Err(why);
        }
        Ok(NormSnapshot {
            dterm,
            fpb: n.fpb,
            events,
            wire,
            links,
            switches,
            hosts,
            rng,
            blocks,
        })
    }

    /// Rewrite the flow table for a fast-forward of `units` windows of
    /// `k` iterations each (`iters = units·k` in total).
    ///
    /// At the boundary `B_i` (`i = next_iter - 1`) the table holds blocks
    /// `0..=i` of `fpb` flows each. After the replay the table must equal
    /// what a live run would hold at `B_{i+iters}`:
    ///
    /// * blocks `b <= i-(D+1)` were already frozen — unchanged;
    /// * blocks `b >= i+iters-(D+1)` are still live — a copy of block
    ///   `b-iters` shifted by `units` window periods;
    /// * blocks in between aged out during the replayed span and reached
    ///   the terminal frozen form of their *phase* — a copy of the newest
    ///   frozen block congruent to `b` mod `k` (one of the `k` blocks
    ///   ending at `i-(D+1)`), shifted whole windows forward. With `k = 1`
    ///   every phase is the same and this degenerates to the single
    ///   terminal block.
    ///
    /// Shifting a flow by `s` blocks (`s` a multiple of `k`) adds
    /// `(s/k)·P` to its timestamps, `s` to its iteration tag (its id is
    /// its table index, which the push below moves by `s·F`) and
    /// `((s/k)·P, (s/k)·Sq)` to its logged timer slots; all other
    /// transport state (bitmaps, cursors, counters) copies verbatim —
    /// that is what the fingerprint equality certifies, block by block,
    /// for every block live at either compared boundary.
    fn memo_replay_flows(
        &mut self,
        snap: &NormSnapshot,
        next_iter: u32,
        units: u32,
        k: u32,
        period_ns: u64,
        sq: u64,
    ) {
        let (fpb, dterm) = (snap.fpb, snap.dterm);
        let iters = units * k;
        let nb_old = next_iter; // blocks before the replay
        let nb_new = next_iter + iters;
        let term = nb_old - dterm - 2; // newest frozen block, i-(D+1)
        let base = term + 1 - k; // oldest per-phase terminal block needed
        let fpb_us = fpb as usize;
        let tail: Vec<FlowState> = self.flows[base as usize * fpb_us..].to_vec();
        self.flows.truncate((term as usize + 1) * fpb_us);
        for b in (term + 1)..nb_new {
            let (src, s) = if b + dterm + 2 >= nb_new {
                (b - iters, iters) // still-live tail: shift the old block
            } else {
                // Aged out: terminal frozen form of this phase, the
                // newest frozen block a whole number of windows back.
                let w = (b - term).div_ceil(k);
                (b - w * k, w * k)
            };
            let shift = SimDuration::from_ns(period_ns * (s / k) as u64);
            let off = (src - base) as usize * fpb_us;
            for j in 0..fpb_us {
                let mut f = tail[off + j].clone();
                f.created_at += shift;
                if let Some(c) = f.completed_at {
                    f.completed_at = Some(c + shift);
                }
                if let Some(tag) = &mut f.tag {
                    tag.iter += s;
                }
                for slot in &mut f.sent {
                    slot.memo_shift(shift, sq * (s / k) as u64);
                }
                self.flows.push(f);
            }
        }
        debug_assert_eq!(self.flows.len(), nb_new as usize * fpb_us);
    }
}
