//! The fingerprint half of the fast-forward: the normalized residual
//! snapshot taken at an iteration boundary (see the parent module's
//! "fingerprint theorem"), or the reason one cannot be taken.

use super::super::Simulator;
use crate::bitset::BitSet;
use crate::egress::PortBudget;
use crate::engine::EventKind;
use crate::ids::LinkId;
use crate::packet::{AckBlock, FlowId, Packet, PacketKind, NPRIO};
use crate::pipeline::Due;
use crate::rng::RngStreams;
use crate::time::SimTime;
use crate::transport::{AckAccum, FlowState};

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
/// `LinkChange`, `Pfc` and `Sample` refuse the snapshot: they are
/// scheduled from aperiodic sources (link-change schedules, control planes,
/// recorders) and must never be silently replayed.
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
/// compared raw: the least-loaded policy writes bounded values whose short
/// phase cycles the boundary ring matches at distance `k`, while
/// round-robin's cursor grows monotonically — no two boundaries ever
/// fingerprint equal, which is exactly the safe fallback (a replayed
/// round-robin window would resume from the wrong cursor phase).
#[derive(PartialEq, Eq, Debug)]
struct NormSwitch {
    rr_cursor: u64,
    /// The sprayer's residual from [`crate::spray::Sprayer::memo_residual`]:
    /// a canonical digest of its state (0 when stateless or empty). An
    /// arm refusing to fingerprint — a charged Adaptive deficit, PRIME
    /// epochs, REPS buckets — fails the snapshot with its reason instead.
    sprayer_residual: u64,
}

/// One flow's transport state, rebased.
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
pub(super) struct NormSnapshot {
    /// Flows per iteration block (`F`).
    pub(super) fpb: u32,
    /// Pending timed events, sorted by `(dt, rseq)`.
    events: Vec<NormEvent>,
    /// Packets on the wire, in the agenda's visiting order. The armed
    /// pipe fronts are derived from these two and left out.
    wire: Vec<NormInFlight>,
    links: Vec<NormLink>,
    switches: Vec<NormSwitch>,
    /// Per-host active-flow deques (`next_flow - flow` per entry; may
    /// contain exhausted flows awaiting lazy removal, failed ones even once
    /// retired — those shift too).
    hosts: Vec<Vec<u32>>,
    /// All four RNG streams, compared raw: equality implies the window
    /// drew nothing, so a replay correctly leaves them untouched.
    rng: RngStreams,
    /// Every flow the table holds, oldest first: its length is the live
    /// count, measured back from the next id (which every `dflow` above is
    /// taken from), so equal snapshots hold equally many flows.
    flows: Vec<NormFlow>,
}

/// Shared normalization context: rebases ids and times, tracks the max
/// block distance referenced, and records the first refusal reason.
struct Normalizer {
    t_ns: u64,
    seqc: u64,
    next_flow: u32,
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
        if f >= self.next_flow {
            self.fail("foreign-flow-reference");
            return 0;
        }
        let dist = self.top_iter - f / self.fpb;
        self.maxd = self.maxd.max(dist);
        self.next_flow - f
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

impl Simulator {
    /// Capture the normalized residual fingerprint at an iteration
    /// boundary, or refuse with a reason when residual state is not
    /// provably periodic.
    pub(super) fn memo_snapshot(&self, next_iter: u32) -> Result<NormSnapshot, &'static str> {
        let next_flow = self.flows.ids().end;
        if next_iter == 0 || next_flow == 0 {
            return Err("warmup");
        }
        if !next_flow.is_multiple_of(next_iter) {
            return Err("uneven-flow-blocks");
        }
        for l in &self.links {
            if l.fault.is_some() {
                return Err("link-fault-active");
            }
        }
        let mut n = Normalizer {
            t_ns: self.now.as_ns(),
            seqc: self.agenda.memo_seq(),
            next_flow,
            fpb: next_flow / next_iter,
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
                | EventKind::LinkChange { .. }
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
            })
            .collect();

        let hosts = self.hosts.memo_norm(|f| n.dflow(f));

        let rng = self.rng.clone();

        // Every reference has been seen: the deepest block one reaches,
        // D, is final. No snapshot is taken before boundary D + 3. The
        // replay needs no block history; the rule fixes where the first
        // fast-forward lands, and with it the hit and replay counts the
        // benchmark reports (`netsim.memo.*`).
        if next_iter < n.maxd + 3 {
            return Err("warmup");
        }
        let flows: Vec<NormFlow> = self.flows.iter().map(|f| n.flow(f)).collect();

        if let Some(why) = n.err {
            return Err(why);
        }
        Ok(NormSnapshot {
            fpb: n.fpb,
            events,
            wire,
            links,
            switches,
            hosts,
            rng,
            flows,
        })
    }
}
