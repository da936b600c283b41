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
//! the clock — producing byte-identical output (memoized vs live) at a
//! fraction of the event cost.
//!
//! ## The fingerprint theorem
//!
//! Let `B_i` be the boundary where iteration `i`'s last transfer
//! completes, at time `T_i`. At each boundary we capture a *normalized
//! residual snapshot*: every piece of simulator state that can influence
//! future behaviour, rebased so that absolute time becomes an offset from
//! `T_i`, flow ids become offsets from the next flow id, scheduler
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
//! * every flow the table holds moves `u·k` blocks on (see
//!   `memo_replay_flows`);
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
//! recorder is attached, a fault is installed on any link, an
//! adaptive-spray deficit slot was ever charged (it decays on an absolute
//! grid the fingerprint does not carry), control/fault/wake/sampler
//! events are pending in the scheduler, the flows posted so far do not
//! divide evenly into per-iteration blocks, or the warm-up (`next_iter < D + 3`
//! for block-reference depth `D`) has not completed. Random spray policies are refused at enable time (their
//! RNG draws would also break the fingerprint, but refusing early gives a
//! clear fallback reason). Scheduled faults and controls act as
//! *barriers*: the caller passes their iteration numbers to
//! [`Simulator::enable_memo`] and a replay never crosses one — the
//! barrier iteration runs live, where its `LinkChange` events (pending in
//! the scheduler) break the fingerprint chain anyway.
//!
//! This file is the replay half; the fingerprint half (`NormSnapshot` and
//! how one is taken) is the child `fingerprint`.

use super::{IterSpanRecord, Simulator};
use crate::counters::{CounterDelta, CounterStore};
use crate::engine::SchedStats;
use crate::packet::{Packet, PacketKind, NPRIO};
use crate::spray::SprayPolicy;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;
use fingerprint::NormSnapshot;

mod fingerprint;

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
    /// Next flow id at the boundary.
    next_flow: u32,
    /// Cumulative run statistics (cloned baseline).
    stats: Stats,
    /// Scheduler statistics (cloned baseline).
    sched: SchedStats,
    /// Per-link `[txed_pkts, txed_bytes, delivered_pkts]`.
    link_tx: Vec<[u64; 3]>,
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
            next_flow: sim.flows.ids().end,
            stats: sim.stats.clone(),
            sched: sim.sched_stats(),
            link_tx: sim
                .links
                .iter()
                .map(|l| [l.txed_pkts, l.txed_bytes, l.delivered_pkts])
                .collect(),
            counters: sim.counters.clone(),
            agg_counters: sim.agg_counters.clone(),
            trace_offered: sim.trace.offered,
            spans_len: sim.iter_spans.len(),
            snap,
        }
    }
}

/// Scheduler-statistics growth over one window. `max_pending` is a
/// high-water mark; the delta carries zero and replay never adds to it.
fn sched_window(cur: &SchedStats, prev: &SchedStats) -> SchedStats {
    SchedStats {
        pushes: cur.pushes - prev.pushes,
        pops: cur.pops - prev.pops,
        class_pushes: cur.class_pushes - prev.class_pushes,
        class_pops: cur.class_pops - prev.class_pops,
        head_arms: cur.head_arms - prev.head_arms,
        ..SchedStats::default()
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
    /// Arm temporal-symmetry memoization. `barriers` lists
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
            SprayPolicy::Random => Some("random-spray"),
            // Adaptive spraying is phase-anchored: deficit halvings happen
            // on an absolute `spray_tau` grid (each slot's timestamp base
            // starts at 0 and only ever advances by whole multiples of
            // tau), so the boundary-relative deficit state repeats only
            // when the iteration period divides tau. The snapshot refuses
            // any charged deficit (`adaptive-spray-deficit`) on its own;
            // refuse here too, before a single boundary is looked at.
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
        debug_assert_eq!(self.flows.ids().end - p.next_flow, k * snap.fpb);

        // ---- recorded window deltas ----
        let sq = self.agenda.memo_seq() - p.seq;
        let link_delta: Vec<[u64; 3]> = self
            .links
            .iter()
            .zip(&p.link_tx)
            .map(|(l, b)| {
                [
                    l.txed_pkts - b[0],
                    l.txed_bytes - b[1],
                    l.delivered_pkts - b[2],
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
            for pkt in l.packets_mut() {
                shift_packet(pkt, dflow, iters);
            }
            for pr in 0..NPRIO {
                if l.paused[pr] {
                    l.paused_since[pr] += dt;
                }
            }
        }
        self.hosts.memo_shift(dflow);
        self.memo_replay_flows(dflow, iters, dt, dseq);
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

    /// Move the flow table over a fast-forward of `iters` iterations
    /// (`dflow` ids, `dt` of clock, `dseq` sequence numbers).
    ///
    /// The fingerprint holds every flow the table holds, so its equality
    /// certifies that the table a live run would hold at the landing
    /// boundary is this one, `iters` blocks on: each flow's id (its place
    /// in the table, which the base moves by `dflow`), timestamps, logged
    /// timer slots and iteration tag shift, and all other transport state
    /// (bitmaps, cursors, counters, references) copies verbatim. The blocks
    /// that age out during the replayed span are never materialised.
    fn memo_replay_flows(&mut self, dflow: u32, iters: u32, dt: SimDuration, dseq: u64) {
        self.flows.memo_shift(dflow, |f| {
            f.created_at += dt;
            if let Some(c) = &mut f.completed_at {
                *c += dt;
            }
            if let Some(tag) = &mut f.tag {
                tag.iter += iters;
            }
            for slot in &mut f.sent {
                slot.memo_shift(dt, dseq);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::ids::HostId;
    use crate::packet::Priority;
    use crate::sim::Simulator;
    use crate::spray::SprayPolicy;
    use crate::topology::{FatTreeSpec, Topology};

    /// A drained run of three one-message iteration blocks.
    fn drained(spray: SprayPolicy) -> Simulator {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        let cfg = SimConfig {
            spray,
            ..SimConfig::default()
        };
        let mut s = Simulator::new(topo, cfg, 1);
        for (src, dst) in [(0, 3), (1, 2), (2, 0)] {
            s.post_message(HostId(src), HostId(dst), 100_000, None, Priority::MEASURED);
        }
        s.run();
        s
    }

    /// The fingerprint carries no deficit state, so a boundary after any
    /// charge is refused by the snapshot itself (the Adaptive arm's memo
    /// residual), whatever `enable_memo` let through.
    #[test]
    fn a_charged_spray_deficit_refuses_the_snapshot() {
        // Past warm-up, a drained LeastLoaded run fingerprints.
        assert!(drained(SprayPolicy::LeastLoaded).memo_snapshot(3).is_ok());
        // Adaptive charges a slot with every sprayed packet.
        let s = drained(SprayPolicy::Adaptive);
        assert_eq!(s.memo_snapshot(3).unwrap_err(), "adaptive-spray-deficit");
    }
}
