//! The simulator: the event loop and the data-path handlers.
//!
//! [`Simulator`] owns the whole world — topology, per-link egress state
//! (`crate::egress`), per-switch forwarding state (`crate::switch`), each
//! host NIC's round robin (`crate::host`), the transport flow table
//! ([`crate::transport`]), FlowPulse counters — and processes its pending
//! events in the deterministic `(time, seq)` order the agenda
//! ([`crate::pipeline`]) yields them. The state-owning modules decide
//! *what* changes; this file decides *when*, and keeps the statistics, the
//! trace and the application callbacks. Its children keep what is not the
//! data path: `links` applies timed link changes — faults, heals and
//! remediations, one schedule — `telemetry` feeds the recorder, and
//! [`memo`] fast-forwards steady-state iterations. See the crate docs for
//! the model; the short version:
//!
//! * Output-queued switches with strict-priority egress queues per directed
//!   link. A packet arriving at a switch is routed and enqueued instantly;
//!   time passes in link serialization and propagation.
//! * Leaf switches spray packets over all uplinks that (per the routing
//!   tables, i.e. *known* faults only) can reach the destination leaf.
//! * Spine planes forward down the same plane the packet went up on.
//! * Silent faults sample drops at the end of serialization — the packet
//!   burned wire time but never arrives, exactly like a CRC-failed frame.
//! * PFC: per ingress-port/priority buffered-byte accounting with XOFF/XON
//!   thresholds; PAUSE frames take one link latency to take effect.
//! * Transport: a retransmission deadline per segment (one armed timer per
//!   flow) with exponential backoff, coalesced selective ACKs,
//!   reorder-tolerant receivers.

use crate::app::Application;
use crate::config::{self, SimConfig};
use crate::control::{AppliedControl, ControlVerb};
use crate::counters::CounterStore;
pub use crate::egress::LinkState;
use crate::egress::PfcIngress;
use crate::engine::{EventKind, SchedStats};
use crate::fault::FaultEvent;
use crate::host::{Hosts, Nic};
use crate::ids::{HostId, LinkId, NodeId, SwitchId};
use crate::packet::{AckBlock, CollectiveTag, FlowId, Packet, PacketKind, Priority};
use crate::pipeline::{Agenda, Due};
use crate::rng::RngStreams;
use crate::spray;
use crate::stats::{DropCause, Stats};
use crate::switch::{Fabric, Switches};
use crate::time::SimTime;
use crate::topology::{LinkClass, Topology};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::{FlowState, FlowTable, RtoOutcome};
use fp_telemetry::Recorder;
pub use telemetry::IterSpanRecord;

mod links;
pub mod memo;
mod telemetry;

#[cfg(test)]
#[path = "delay_class_tests.rs"]
mod delay_class_tests;

#[cfg(test)]
#[path = "engine_digest_tests.rs"]
mod engine_digest_tests;

#[cfg(test)]
#[path = "fast_path_tests.rs"]
mod fast_path_tests;

#[cfg(test)]
#[path = "flow_table_tests.rs"]
mod flow_table_tests;

#[cfg(test)]
#[path = "head_timer_tests.rs"]
mod head_timer_tests;

/// Why [`Simulator::run`] returned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RunReason {
    /// The agenda drained: nothing left to do.
    Drained,
    /// `max_events` was hit (safety stop).
    EventLimit,
    /// The time horizon passed.
    TimeLimit,
}

/// Result of a run.
#[derive(Copy, Clone, Debug)]
pub struct RunSummary {
    /// Simulated clock at return.
    pub end: SimTime,
    /// Why the run stopped.
    pub reason: RunReason,
}

/// The packet-level fat-tree simulator.
pub struct Simulator {
    /// Configuration (immutable after construction).
    pub(crate) cfg: SimConfig,
    /// The fabric.
    pub topo: Topology,
    now: SimTime,
    /// Every pending event: timers, link changes and packets on the wire,
    /// in the containers `crate::pipeline` chooses for them.
    agenda: Agenda,
    links: Vec<LinkState>,
    /// PFC accounting per (switch ingress port, priority).
    pfc: PfcIngress,
    /// Forwarding state of every switch and the spray stage.
    switches: Switches,
    hosts: Hosts,
    /// Transport flow table: the flows something can still touch
    /// ([`Simulator::flow`] reads one).
    flows: FlowTable,
    rng: RngStreams,
    /// Aggregate run statistics.
    pub stats: Stats,
    /// FlowPulse in-switch counters at the leaf level (spine→leaf ingress).
    pub counters: CounterStore,
    /// 3-level only: FlowPulse counters at the aggregation level
    /// (core→agg ingress); dimensions are `(n_aggs, cores_per_group)`.
    /// Empty (0×0) on 2-level fabrics.
    pub agg_counters: CounterStore,
    /// Exceptional-event trace.
    pub trace: TraceBuffer,
    app: Option<Box<dyn Application>>,
    app_started: bool,
    /// Every timed link change — fault, heal or remediation — with the
    /// verb of the control action that scheduled it, if one did (see
    /// `links`).
    link_changes: Vec<(FaultEvent, Option<ControlVerb>)>,
    applied_controls: Vec<AppliedControl>,
    iter_spans: Vec<IterSpanRecord>,
    recorder: Option<Box<dyn Recorder>>,
    /// Scratch `(seq, ce)` echoes collected while the flow table is
    /// borrowed in [`Simulator::receive_ack`].
    scratch_echoes: Vec<(u32, bool)>,
    /// Temporal-symmetry memoization state (see [`memo`]);
    /// `None` (the default) falls back to fully live simulation.
    memo: Option<Box<memo::MemoState>>,
    /// Test hook: send every packet down the queued route, i.e. run the
    /// engine as it was before the uncontended-hop shortcut.
    #[cfg(test)]
    queued_route_only: bool,
    /// Packets that took the uncontended-hop shortcut (tests only).
    #[cfg(test)]
    direct_starts: u64,
    /// Test hook: arm a first-attempt timer for every segment, i.e. run
    /// the transport as it was before the per-flow head-of-line timer.
    #[cfg(test)]
    per_segment_rto: bool,
}

impl Simulator {
    /// Build a simulator over `topo` with `cfg`, seeded with `seed`.
    pub fn new(topo: Topology, cfg: SimConfig, seed: u64) -> Simulator {
        cfg.validate().expect("invalid SimConfig");
        let n_links = topo.n_links();
        let links = (0..n_links).map(|_| LinkState::new()).collect();
        let switches = Switches::new(&topo, &cfg);
        let counters = CounterStore::new(topo.n_leaves(), topo.n_vspines());
        let agg_counters = CounterStore::new_with_src(
            topo.n_aggs(),
            topo.cores_per_group as usize,
            topo.n_leaves(),
        );
        let agenda = Agenda::new(topo.links.iter().map(|l| l.latency));
        let mut sim = Simulator {
            cfg,
            hosts: Hosts::new(topo.n_hosts()),
            topo,
            now: SimTime::ZERO,
            agenda,
            links,
            pfc: PfcIngress::new(n_links),
            switches,
            flows: FlowTable::default(),
            rng: RngStreams::new(seed),
            stats: Stats::default(),
            counters,
            agg_counters,
            trace: TraceBuffer::new(4096),
            app: None,
            app_started: false,
            link_changes: Vec::new(),
            applied_controls: Vec::new(),
            iter_spans: Vec::new(),
            recorder: None,
            scratch_echoes: Vec::new(),
            memo: None,
            #[cfg(test)]
            queued_route_only: false,
            #[cfg(test)]
            direct_starts: 0,
            #[cfg(test)]
            per_segment_rto: false,
        };
        sim.switches.recompute_routing(&sim.topo, &sim.links);
        sim
    }

    /// Install the workload. Its `on_start` fires when `run*` is first
    /// called.
    pub fn set_app(&mut self, app: Box<dyn Application>) {
        self.app = Some(app);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only view of a link's runtime state.
    pub fn link(&self, id: LinkId) -> &LinkState {
        &self.links[id.idx()]
    }

    /// Count, trace and forget a packet dropped at `link`.
    fn trace_drop(&mut self, link: LinkId, cause: DropCause, pkt: &Packet) {
        self.stats.drop(cause);
        self.flows[pkt.flow()].refs -= 1;
        let flow = match pkt.kind {
            PacketKind::Data { flow, .. } => Some(flow),
            PacketKind::Ack { .. } => None,
        };
        self.trace
            .push(self.now, TraceEvent::Drop { link, cause, flow });
    }

    // ------------------------------------------------------------------
    // Workload API
    // ------------------------------------------------------------------

    /// Post a message of `bytes` from `src` to `dst`. Segments are injected
    /// at line rate as the NIC drains. Returns the flow id.
    pub fn post_message(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: u64,
        tag: Option<CollectiveTag>,
        prio: Priority,
    ) -> FlowId {
        assert!(src != dst, "self-addressed message");
        let flow = FlowState::new(src, dst, bytes, tag, prio, self.now);
        let id = self.flows.post(flow);
        self.hosts.post(src, id);
        self.try_start_tx(self.topo.host_up[src.idx()]);
        id
    }

    /// Schedule an application wake-up at absolute time `at`.
    pub fn schedule_wake(&mut self, at: SimTime, host: HostId, token: u64) {
        self.at(at, EventKind::Wake { host, token });
    }

    /// The door every absolute-time event comes in by. `at` may not be in
    /// the past: the clock only moves forward, and every pipe's FIFO order
    /// rests on that — in a release build too.
    fn at(&mut self, at: SimTime, kind: EventKind) {
        let (t, now) = (at.as_ns(), self.now.as_ns());
        assert!(
            t >= now,
            "{kind:?} scheduled at {t} ns, before now ({now} ns)"
        );
        self.agenda.at(at, kind);
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    fn start_app_if_needed(&mut self) {
        if !self.app_started {
            self.app_started = true;
            self.with_app(|app, sim| app.on_start(sim));
        }
    }

    /// Run until the agenda drains (the workload stops posting work).
    pub fn run(&mut self) -> RunSummary {
        self.run_inner(SimTime::MAX)
    }

    /// Run until simulated time `horizon` (events at exactly `horizon` are
    /// processed). The clock is left at `horizon` if the agenda drained early.
    #[cfg(test)]
    pub(crate) fn run_until(&mut self, horizon: SimTime) -> RunSummary {
        let s = self.run_inner(horizon);
        if self.now < horizon {
            self.now = horizon;
        }
        s
    }

    /// Dispatch the earliest pending event — the one place an event leaves
    /// the agenda. `Err` says why nothing was dispatched. A delivery is
    /// handled here and counts toward `stats.events` exactly like the
    /// per-packet `Delivery` event it replaces, so event accounting and
    /// `max_events` behave identically.
    #[inline]
    fn dispatch_next(&mut self, horizon: SimTime, max_events: u64) -> Result<(), RunReason> {
        let Some(next) = self.agenda.peek() else {
            return Err(RunReason::Drained);
        };
        let at = next.at;
        if at > horizon {
            return Err(RunReason::TimeLimit);
        }
        if self.stats.events >= max_events {
            return Err(RunReason::EventLimit);
        }
        match self.agenda.pop(next) {
            Due::Event(kind) => self.dispatch(at, kind),
            Due::Delivery(link, pkt) => {
                self.links[link.idx()].inflight -= 1;
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.stats.events += 1;
                self.stats.pipeline_deliveries += 1;
                self.handle_delivery(link, pkt);
            }
        }
        Ok(())
    }

    fn run_inner(&mut self, horizon: SimTime) -> RunSummary {
        self.start_app_if_needed();
        let reason = loop {
            if let Err(reason) = self.dispatch_next(horizon, self.cfg.max_events) {
                break reason;
            }
        };
        RunSummary {
            end: self.now,
            reason,
        }
    }

    /// Process a single event (test/debug hook). Returns false if idle.
    pub fn step(&mut self) -> bool {
        self.start_app_if_needed();
        self.dispatch_next(SimTime::MAX, u64::MAX).is_ok()
    }

    fn dispatch(&mut self, at: SimTime, kind: EventKind) {
        if let EventKind::Rto { flow, seq, attempt } = kind {
            let f = &mut self.flows[flow];
            f.refs -= 1;
            // A first-attempt timer is its flow's only armed one: the
            // flow's next logged slot takes its place before anything else
            // happens, so the flow never names a timer that is gone.
            let head_of_line = attempt == 0;
            #[cfg(test)]
            let head_of_line = head_of_line && !self.per_segment_rto;
            if head_of_line {
                if let Some((slot, next)) = f.next_head(flow, seq) {
                    f.refs += 1;
                    self.agenda.arm_reserved(slot, next);
                }
            }
            // Lazy RTO cancellation: a timer whose segment was acknowledged
            // (or whose flow failed) since arming is discarded here, before
            // any event accounting — it does not advance the clock and does
            // not count toward `stats.events` or the `max_events` guard.
            // Pending timers strictly shrink on a skip (a flow's slots only
            // move forward), so this cannot loop.
            if f.rto_is_stale(seq) {
                self.stats.rto_stale_skips += 1;
                return;
            }
        }
        // Sampler ticks are not engine events either (see `telemetry`).
        if matches!(kind, EventKind::Sample) {
            return self.sample_tick(at);
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events += 1;
        match kind {
            EventKind::TxDone { link } => self.handle_tx_done(link),
            EventKind::Rto { flow, seq, attempt } => self.handle_rto(flow, seq, attempt),
            EventKind::Wake { host, token } => {
                self.with_app(|app, sim| app.on_wake(sim, host, token))
            }
            EventKind::LinkChange { idx } => self.apply_link_change(idx),
            EventKind::Pfc { link, prio, pause } => self.handle_pfc(link, prio, pause),
            EventKind::AckFlush { flow } => self.handle_ack_flush(flow),
            EventKind::Sample => unreachable!("handled before event accounting"),
        }
    }

    fn with_app<F: FnOnce(&mut dyn Application, &mut Simulator)>(&mut self, f: F) {
        if let Some(mut app) = self.app.take() {
            f(app.as_mut(), self);
            self.app = Some(app);
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// Start transmitting on `link` if it is idle and something is eligible.
    fn try_start_tx(&mut self, link: LinkId) {
        let l = &mut self.links[link.idx()];
        if l.txing || !l.admin_up {
            return;
        }
        let pkt = match self.topo.links[link.idx()].src {
            // A switch sends only what is queued, so an empty switch egress
            // — the usual state after a `TxDone` on a sprayed fabric — is
            // settled by the occupancy mask.
            NodeId::Switch(_) => l.pop_unpaused(),
            NodeId::Host(h) => {
                let (hosts, mut nic) = self.nic();
                hosts.next_packet(&mut nic, h, link)
            }
        };
        if let Some(pkt) = pkt {
            self.begin_tx(link, pkt);
        }
    }

    /// The host NICs, and the rest of the world as one sees it.
    fn nic(&mut self) -> (&mut Hosts, Nic<'_>) {
        let nic = Nic {
            topo: &self.topo,
            now: self.now,
            links: &mut self.links,
            flows: &mut self.flows,
            agenda: &mut self.agenda,
            stats: &mut self.stats,
            #[cfg(test)]
            per_segment_rto: self.per_segment_rto,
        };
        (&mut self.hosts, nic)
    }

    /// Put `pkt` on `link`'s wire and schedule the end of its serialization.
    #[inline]
    fn begin_tx(&mut self, link: LinkId, pkt: Packet) {
        let wire = pkt.wire_size();
        let ser = self.topo.links[link.idx()].bandwidth.ser_time(wire);
        self.links[link.idx()].start(pkt);
        self.agenda.after(self.now, ser, EventKind::TxDone { link });
    }

    fn handle_tx_done(&mut self, link: LinkId) {
        let (pkt, wire) = self.links[link.idx()].finish();
        self.stats.pkts_txed += 1;
        // Release PFC budget the packet held at this node.
        self.pfc_release(&pkt, wire);
        // Silent-fault sampling: the packet burned wire time; does it arrive?
        let dropped = match self.links[link.idx()].fault {
            Some(fault) if fault.is_silent() => {
                let dst_leaf = self.topo.leaf_of(pkt.dst) as u16;
                fault.drops(dst_leaf, &mut self.rng.fault)
            }
            _ => false,
        };
        if dropped {
            self.trace_drop(link, DropCause::SilentFault, &pkt);
        } else {
            // The surviving packet goes on the wire.
            let at = self.now + self.topo.links[link.idx()].latency;
            self.agenda.deliver(at, link, pkt);
            self.links[link.idx()].inflight += 1;
        }
        self.try_start_tx(link);
    }

    /// Decrement PFC ingress accounting for a packet leaving (or being
    /// dropped from) a switch buffer; send RESUME upstream if the port
    /// falls below XON. Host-originated packets (`ingress` unset) hold no
    /// budget.
    fn pfc_release(&mut self, pkt: &Packet, wire: u64) {
        if !self.cfg.pfc.enabled {
            return;
        }
        let Some(in_link) = pkt.ingress else { return };
        let q = pkt.prio.idx();
        if self.pfc.release(in_link, q, wire, self.cfg.pfc.xon_bytes) {
            self.stats.pfc_resumes += 1;
            self.push_pfc(in_link, q as u8, false);
        }
    }

    /// Charge PFC ingress accounting for a packet just buffered at a
    /// switch; send PAUSE upstream on crossing XOFF.
    #[inline]
    fn pfc_charge(&mut self, pkt: &Packet, wire: u64) {
        if !self.cfg.pfc.enabled {
            return;
        }
        let Some(in_link) = pkt.ingress else { return };
        let q = pkt.prio.idx();
        if self.pfc.charge(in_link, q, wire, self.cfg.pfc.xoff_bytes) {
            self.stats.pfc_pauses += 1;
            self.push_pfc(in_link, q as u8, true);
        }
    }

    /// Schedule a PFC pause/resume frame taking effect at `in_link`'s
    /// transmitter one reverse-link latency from now.
    fn push_pfc(&mut self, in_link: LinkId, prio: u8, pause: bool) {
        let delay = self.topo.links[self.topo.peer[in_link.idx()].idx()].latency;
        let link = in_link;
        let frame = EventKind::Pfc { link, prio, pause };
        self.agenda.after(self.now, delay, frame);
    }

    fn handle_pfc(&mut self, link: LinkId, prio: u8, pause: bool) {
        let q = prio as usize;
        if let Some(pause_ns) = self.links[link.idx()].set_paused(q, pause, self.now) {
            self.stats.pfc_pause_ns[q] += pause_ns;
            if let Some(rec) = self.recorder.as_mut() {
                rec.on_pfc_pause_ns(prio, pause_ns);
            }
        }
        self.trace.push(
            self.now,
            TraceEvent::PfcState {
                link,
                prio,
                paused: pause,
            },
        );
        if !pause {
            self.try_start_tx(link);
        }
    }

    fn handle_delivery(&mut self, link: LinkId, pkt: Packet) {
        self.links[link.idx()].delivered_pkts += 1;
        match self.topo.links[link.idx()].dst {
            NodeId::Switch(sw) => self.switch_receive(sw, link, pkt),
            NodeId::Host(h) => self.host_receive(h, pkt),
        }
    }

    fn switch_receive(&mut self, sw: SwitchId, in_link: LinkId, mut pkt: Packet) {
        // FlowPulse counters: tagged data arriving at a monitored ingress —
        // spine→leaf ports at leaves, core→agg ports at 3-level aggs.
        match self.topo.links[in_link.idx()].class {
            LinkClass::SpineDown { vspine, leaf } if pkt.is_data() => {
                if let Some(tag) = pkt.tag {
                    self.counters.record(
                        leaf,
                        vspine,
                        tag,
                        pkt.src_leaf as u32,
                        pkt.size as u64,
                        self.now,
                    );
                }
            }
            LinkClass::CoreDown { core, agg } if pkt.is_data() => {
                if let Some(tag) = pkt.tag {
                    let k = core % self.topo.cores_per_group.max(1);
                    self.agg_counters.record(
                        agg,
                        k,
                        tag,
                        pkt.src_leaf as u32,
                        pkt.size as u64,
                        self.now,
                    );
                }
            }
            _ => {}
        }
        let fab = Fabric {
            topo: &self.topo,
            links: &self.links,
            cfg: &self.cfg,
            now: self.now,
        };
        let (rng, stats) = (&mut self.rng.spray, &mut self.stats);
        match self.switches.route(&fab, sw, &pkt, in_link, rng, stats) {
            Some(out_link) => {
                pkt.ingress = Some(in_link);
                self.enqueue(out_link, pkt);
            }
            None => self.trace_drop(in_link, DropCause::NoRoute, &pkt),
        }
    }

    /// Hand `pkt` to `out_link`'s egress: charge the load signal and the
    /// PFC budget, then either queue it and kick the transmitter or — on an
    /// uncontended egress — put it on the wire directly.
    fn enqueue(&mut self, out_link: LinkId, mut pkt: Packet) {
        let l = &self.links[out_link.idx()];
        if !l.admin_up {
            self.stats.drop(DropCause::AdminDown);
            self.flows[pkt.flow()].refs -= 1;
            return;
        }
        // ECN: CE-mark data packets entering a standing queue. Gated on
        // the backend actually consuming the echo so classic policies run
        // the pre-feedback byte path unchanged.
        pkt.ce |=
            self.switches.feedback && pkt.is_data() && l.queued_bytes >= config::ECN_THRESHOLD;
        let wire = pkt.wire_size();
        let q = pkt.prio.idx();
        let owner = self.topo.links[out_link.idx()].src;
        // `ingress` is stamped by the switch that buffers the packet and
        // by nobody else; the PFC budget is keyed on that.
        debug_assert_eq!(pkt.ingress.is_some(), matches!(owner, NodeId::Switch(_)));
        // Uncontended hop: queueing the packet would have `try_start_tx`
        // walk the classes and pop this very packet back. On a host NIC
        // the walk also pulls fresh segments of every higher class first,
        // so the shortcut needs there to be none to pull. Everything below
        // happens in the same order on both routes, so which one ran is
        // not observable (DESIGN.md §6).
        let direct = l.uncontended(q)
            && match owner {
                NodeId::Switch(_) => true,
                NodeId::Host(h) => self.hosts.nothing_fresh_above(h, q),
            };
        #[cfg(test)]
        let direct = direct && !self.queued_route_only;
        let l = &mut self.links[out_link.idx()];
        let depth = l.charge(wire);
        if depth > self.stats.max_queue_bytes {
            self.stats.max_queue_bytes = depth;
        }
        if !direct {
            l.push(pkt);
        }
        self.pfc_charge(&pkt, wire);
        if direct {
            #[cfg(test)]
            {
                self.direct_starts += 1;
            }
            self.begin_tx(out_link, pkt);
        } else {
            self.try_start_tx(out_link);
        }
    }

    // ------------------------------------------------------------------
    // Host / transport
    // ------------------------------------------------------------------

    fn host_receive(&mut self, h: HostId, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data { flow, seq } => self.receive_data(h, flow, seq, pkt.size, pkt.ce),
            PacketKind::Ack { flow, block } => self.receive_ack(h, flow, block),
        }
    }

    fn receive_data(&mut self, h: HostId, flow: FlowId, seq: u32, size: u32, ce: bool) {
        let f = &mut self.flows[flow];
        debug_assert_eq!(f.dst, h, "data at wrong host");
        f.refs -= 1;
        self.stats.data_pkts_delivered += 1;
        let (newly, completed) = f.on_data(seq, self.now);
        if newly {
            self.stats.bytes_delivered += size as u64;
        } else {
            self.stats.dup_pkts_delivered += 1;
        }
        if completed {
            self.stats.flows_completed += 1;
            if let Some(rec) = self.recorder.as_mut() {
                let created = self.flows[flow].created_at;
                rec.on_fct_ns(self.now.as_ns().saturating_sub(created.as_ns()));
            }
        }
        // Always (re-)acknowledge, even duplicates — the sender may be
        // retransmitting because our earlier ACK was lost.
        self.accumulate_ack(flow, seq, ce);
        if completed {
            self.with_app(|app, sim| app.on_message_complete(sim, flow));
        }
    }

    fn accumulate_ack(&mut self, flow: FlowId, seq: u32, ce: bool) {
        let f = &mut self.flows[flow];
        let (block, schedule_flush) = f.ack_data(seq, ce);
        f.refs += schedule_flush as u32;
        if let Some(block) = block {
            self.send_ack(flow, block);
        }
        if schedule_flush {
            let flush = EventKind::AckFlush { flow };
            self.agenda.after(self.now, config::ACK_FLUSH_DELAY, flush);
        }
    }

    fn handle_ack_flush(&mut self, flow: FlowId) {
        let f = &mut self.flows[flow];
        f.refs -= 1;
        if let Some(block) = f.flush_ack() {
            self.send_ack(flow, block);
        }
    }

    fn send_ack(&mut self, flow: FlowId, block: AckBlock) {
        let f = &mut self.flows[flow];
        f.refs += 1;
        let pkt = Packet {
            kind: PacketKind::Ack { flow, block },
            src: f.dst,
            dst: f.src,
            size: config::ACK_SIZE,
            prio: Priority::CONTROL,
            tag: None,
            src_leaf: self.topo.leaf_of(f.dst) as u16,
            ingress: None,
            ce: false,
        };
        self.stats.acks_sent += 1;
        let up = self.topo.host_up[f.dst.idx()];
        self.enqueue(up, pkt);
    }

    fn receive_ack(&mut self, h: HostId, flow: FlowId, block: AckBlock) {
        let mut echoes = std::mem::take(&mut self.scratch_echoes);
        echoes.clear();
        let f = &mut self.flows[flow];
        debug_assert_eq!(f.src, h, "ack at wrong host");
        f.refs -= 1;
        let pair = (f.src.0, f.dst.0);
        f.on_ack(block, self.switches.feedback.then_some(&mut echoes));
        // Echo each newly acknowledged segment to the source leaf's
        // sprayer: a clean ACK proves the path, a CE-marked one flags it.
        if !echoes.is_empty() {
            let leaf = self.topo.leaf_of(h) as usize;
            let sprayer = &mut self.switches.state[leaf].sprayer;
            for &(seq, ce) in echoes.iter() {
                let echo = if ce {
                    spray::SprayEcho::Ecn
                } else {
                    spray::SprayEcho::Ack
                };
                sprayer.on_feedback(flow, pair, seq, echo);
            }
        }
        self.scratch_echoes = echoes;
    }

    fn handle_rto(&mut self, flow: FlowId, seq: u32, attempt: u32) {
        let f = &mut self.flows[flow];
        let (src, pair) = (f.src, (f.src.0, f.dst.0));
        let leaf = self.topo.leaf_of(src);
        let max = self.cfg.rto_max_attempts;
        let (pkt, rearm) = match f.on_rto(flow, seq, attempt, max, leaf as u16) {
            RtoOutcome::GaveUp => {
                self.stats.flows_failed += 1;
                self.trace.push(self.now, TraceEvent::FlowFailed { flow });
                self.with_app(|app, sim| app.on_flow_failed(sim, flow));
                return;
            }
            RtoOutcome::Retransmit(pkt, rearm) => {
                f.refs += 2;
                (pkt, rearm)
            }
        };
        self.stats.retransmits += 1;
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_rto_attempt(attempt);
        }
        // Loss echo to the source leaf's sprayer *before* the retransmit
        // is enqueued, so the fresh spray decision re-records the segment
        // under its new entropy.
        if self.switches.feedback {
            self.switches.state[leaf as usize].sprayer.on_feedback(
                flow,
                pair,
                seq,
                spray::SprayEcho::Timeout,
            );
        }
        self.enqueue(self.topo.host_up[src.idx()], pkt);
        let exp = (attempt + 1).min(config::RTO_BACKOFF_CAP);
        let backoff = config::RTO.mul_f64(config::RTO_BACKOFF.powi(exp as i32));
        self.agenda.after(self.now, backoff, rearm);
    }

    // ------------------------------------------------------------------
    // Inspection helpers
    // ------------------------------------------------------------------

    /// Flow `id`'s transport state. Panics once the flow is retired: a
    /// post retires every finished flow older than the oldest one still
    /// in play, so a drained run's flows are readable until the workload
    /// posts again.
    pub fn flow(&self, id: FlowId) -> &FlowState {
        let held = self.flows.ids();
        assert!(held.contains(&id), "flow {id} is not held ({held:?})");
        &self.flows[id]
    }

    /// Ids of the flows [`Simulator::flow`] can read, oldest first; `end`
    /// is the id the next post gets.
    pub fn flow_ids(&self) -> std::ops::Range<FlowId> {
        self.flows.ids()
    }

    /// True while a held flow tagged `(job, iter ≤ through)` can still add
    /// a byte to the counters: it is not done (`FlowState::is_done`), so
    /// it has segments to send, a packet or timer still names it, or both.
    /// A receiver completes while its ACKs are in flight, so an iteration
    /// is never quiet at its own end. A retired flow is done.
    pub fn may_record(&self, job: u32, through: u32) -> bool {
        self.flows
            .iter()
            .any(|f| f.tag.is_some_and(|t| t.job == job && t.iter <= through) && !f.is_done())
    }

    /// True if every posted flow has been fully received and none failed
    /// (a retired flow either finished or failed).
    pub fn all_flows_complete(&self) -> bool {
        self.stats.flows_failed == 0 && self.flows.iter().all(|f| f.is_complete())
    }

    /// Pending work count: timed events plus packets on the wire
    /// (0 = idle).
    pub fn pending_events(&self) -> usize {
        self.agenda.len()
    }

    /// Scheduler occupancy counters accumulated so far (telemetry only —
    /// never part of trial results).
    pub fn sched_stats(&self) -> SchedStats {
        self.agenda.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultKind};
    use crate::topology::FatTreeSpec;
    use fp_telemetry::LinkSample;

    fn small_topo() -> Topology {
        Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 1,
            ..Default::default()
        })
    }

    fn sim(seed: u64) -> Simulator {
        Simulator::new(small_topo(), SimConfig::default(), seed)
    }

    #[test]
    fn single_message_delivers() {
        let mut s = sim(1);
        let f = s.post_message(HostId(0), HostId(2), 100_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        assert!(s.flow(f).is_complete());
        assert!(s.flow(f).fully_acked());
        assert_eq!(s.stats.bytes_delivered, 100_000);
        assert_eq!(s.stats.flows_completed, 1);
        assert_eq!(s.stats.flows_failed, 0);
        assert_eq!(s.stats.total_drops(), 0);
    }

    #[test]
    fn pipeline_deliveries_dominate_and_account_exactly() {
        // Recorder-free drained run: every scheduler or class-pipe pop is
        // either an engine event that was not a pipeline delivery, or a
        // stale RTO discarded by lazy cancellation. Deliveries themselves
        // never round-trip either container — that is the point of the
        // pipelines — and with no fault, control or wake-up scheduled,
        // every timer rode a delay-class pipe or was a flow's first-attempt
        // timer in its reserved slot: the scheduler saw nothing else.
        let mut s = sim(17);
        s.post_message(HostId(0), HostId(2), 500_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        assert_eq!(s.pending_events(), 0);
        let ss = s.sched_stats();
        assert_eq!(ss.pushes, ss.pops, "drained run: pushes == pops");
        assert_eq!(ss.class_pushes, ss.class_pops, "drained class pipes");
        assert_eq!(
            ss.pops + ss.class_pops,
            s.stats.events - s.stats.pipeline_deliveries + s.stats.rto_stale_skips
        );
        assert_eq!(
            ss.pushes, ss.head_arms,
            "a constant-delay event reached the scheduler"
        );
        // Roughly one delivery per tx'd packet; in any case a large share
        // of all engine events bypassed the scheduler.
        assert_eq!(s.stats.pipeline_deliveries, s.stats.pkts_txed);
        assert!(s.stats.pipeline_deliveries * 3 > s.stats.events);
    }

    #[test]
    fn local_traffic_stays_under_leaf() {
        // Two hosts under the same leaf: no spine link should carry data.
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 2,
            ..Default::default()
        });
        let mut s = Simulator::new(topo, SimConfig::default(), 3);
        s.post_message(HostId(0), HostId(1), 50_000, None, Priority::MEASURED);
        s.run();
        assert!(s.all_flows_complete());
        for v in 0..s.topo.n_vspines() as u32 {
            for l in 0..s.topo.n_leaves() as u32 {
                assert_eq!(s.link(s.topo.downlink(v, l)).txed_pkts, 0);
                assert_eq!(s.link(s.topo.uplink(l, v)).txed_pkts, 0);
            }
        }
    }

    #[test]
    fn remote_traffic_sprays_across_all_spines() {
        let mut s = sim(7);
        s.post_message(HostId(0), HostId(3), 4_000_000, None, Priority::MEASURED);
        s.run();
        assert!(s.all_flows_complete());
        // ~977 packets over 2 vspines: both should carry a solid share.
        for v in 0..2u32 {
            let up = s.link(s.topo.uplink(0, v)).txed_pkts;
            assert!(up > 300, "vspine {v} carried only {up}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut s = sim(seed);
            s.post_message(HostId(1), HostId(2), 1_000_000, None, Priority::MEASURED);
            s.run();
            (
                s.now().as_ns(),
                s.stats.events,
                s.link(s.topo.uplink(1, 0)).txed_pkts,
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).2, 0);
    }

    #[test]
    fn silent_drop_recovers_via_retransmit() {
        let mut s = sim(11);
        // 10% drop on one spine->leaf downlink toward leaf 3.
        let bad = s.topo.downlink(0, 3);
        s.apply_fault_now(
            bad,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.10 }),
            false,
        );
        let f = s.post_message(HostId(0), HostId(3), 2_000_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        assert!(s.flow(f).is_complete(), "flow must recover");
        assert!(s.stats.silent_drops() > 0, "fault must have bitten");
        assert!(s.stats.retransmits >= s.stats.silent_drops() / 2);
    }

    #[test]
    fn total_blackhole_still_completes_by_respraying() {
        let mut s = sim(13);
        let bad = s.topo.downlink(1, 2);
        s.apply_fault_now(bad, FaultAction::Set(FaultKind::SilentBlackhole), false);
        let f = s.post_message(HostId(0), HostId(2), 500_000, None, Priority::MEASURED);
        s.run();
        assert!(s.flow(f).is_complete());
        assert!(s.stats.silent_drops() > 0);
    }

    #[test]
    fn admin_down_removes_from_spraying() {
        let mut s = sim(17);
        let up = s.topo.uplink(0, 0);
        s.apply_fault_now(up, FaultAction::Set(FaultKind::AdminDown), true);
        assert_eq!(s.switches.state[0].valid_up[3].len(), 1);
        s.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
        s.run();
        assert!(s.all_flows_complete());
        assert_eq!(s.link(s.topo.uplink(0, 0)).txed_pkts, 0);
        // Everything went over vspine 1.
        assert!(s.link(s.topo.uplink(0, 1)).txed_pkts > 200);
    }

    #[test]
    fn remote_admin_down_excludes_spine_for_that_dst_only() {
        let mut s = sim(19);
        // Down the spine0 -> leaf3 downlink (both directions of that cable).
        let down = s.topo.downlink(0, 3);
        s.apply_fault_now(down, FaultAction::Set(FaultKind::AdminDown), true);
        // leaf0 -> leaf3 must avoid vspine 0...
        assert_eq!(s.switches.state[0].valid_up[3], &[s.topo.uplink(0, 1)]);
        // ...but leaf0 -> leaf2 still uses both.
        assert_eq!(s.switches.state[0].valid_up[2].len(), 2);
    }

    #[test]
    fn fault_heals_and_routing_returns() {
        let mut s = sim(23);
        let up = s.topo.uplink(2, 1);
        s.apply_fault_now(up, FaultAction::Set(FaultKind::AdminDown), true);
        assert_eq!(s.switches.state[2].valid_up[0].len(), 1);
        s.apply_fault_now(up, FaultAction::Clear, true);
        assert_eq!(s.switches.state[2].valid_up[0].len(), 2);
    }

    #[test]
    fn scheduled_control_applies_on_the_engine_clock() {
        use crate::control::{ControlAction, ControlVerb};
        let mut s = sim(37);
        let cable = s.topo.uplink(0, 0);
        let down_at = SimTime::from_ns(50_000);
        let up_at = SimTime::from_ns(150_000);
        s.schedule_control(down_at, ControlAction::cable(cable, ControlVerb::AdminDown));
        s.schedule_control(up_at, ControlAction::cable(cable, ControlVerb::Restore));
        s.post_message(HostId(0), HostId(3), 2_000_000, None, Priority::MEASURED);
        s.run();
        assert!(s.all_flows_complete());
        // Applied exactly at their scheduled times, in order.
        let applied = s.applied_controls();
        assert_eq!(applied.len(), 2);
        assert_eq!(applied[0].at, down_at);
        assert_eq!(applied[0].action.verb, ControlVerb::AdminDown);
        assert_eq!(applied[1].at, up_at);
        assert_eq!(applied[1].action.verb, ControlVerb::Restore);
        // The restore returned the cable to routing.
        assert_eq!(s.switches.state[0].valid_up[3].len(), 2);
        // Both transitions landed in the trace ring.
        let controls = s
            .trace
            .to_records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ControlApplied { link } if link == cable))
            .count();
        assert_eq!(controls, 2);
    }

    #[test]
    fn faults_and_controls_share_one_link_change_schedule() {
        use crate::control::ControlAction;
        let mut s = sim(31);
        let up = s.topo.uplink(1, 0);
        let blackhole = FaultAction::Set(FaultKind::SilentBlackhole);
        s.schedule_fault(FaultEvent::new(SimTime::from_us(1), up, blackhole, false));
        let at = SimTime::from_us(2);
        let idx = s.schedule_control(at, ControlAction::cable(up, ControlVerb::AdminDown));
        assert_eq!(idx, 1, "the fault took schedule entry 0");
        s.run();
        // Both landed; only the remediation is logged as a control.
        let applied = s.applied_controls();
        assert_eq!(applied.len(), 1);
        assert_eq!((applied[0].at, applied[0].idx), (at, 1));
        assert!(!s.links[up.idx()].admin_up);
        let peer = s.topo.peer[up.idx()];
        assert!(
            !s.links[peer.idx()].admin_up,
            "a cable action takes both directions"
        );
    }

    #[test]
    fn a_quarantine_keeps_the_cable_routed_until_a_clear_lifts_it() {
        let mut s = sim(33);
        let up = s.topo.uplink(0, 1);
        let peer = s.topo.peer[up.idx()];
        s.apply_fault_now(up, FaultAction::Quarantine, true);
        for l in [up, peer] {
            let link = &s.links[l.idx()];
            assert!(link.spray_avoid && link.admin_up && link.fault.is_none());
        }
        // Spray avoids it, routing still counts it.
        assert_eq!(s.switches.state[0].valid_up[3].len(), 2);
        s.apply_fault_now(up, FaultAction::Clear, true);
        assert!(!s.links[up.idx()].spray_avoid && !s.links[peer.idx()].spray_avoid);
        assert_eq!(s.switches.state[0].valid_up[3].len(), 2);
    }

    #[test]
    fn dst_blackhole_only_affects_target_leaf() {
        let mut s = sim(29);
        // Blackhole packets to leaf 3 on leaf0's uplink to vspine 0.
        let up = s.topo.uplink(0, 0);
        s.apply_fault_now(
            up,
            FaultAction::Set(FaultKind::DstBlackhole { dst_leaf: 3 }),
            false,
        );
        let fa = s.post_message(HostId(0), HostId(3), 400_000, None, Priority::MEASURED);
        let fb = s.post_message(HostId(0), HostId(2), 400_000, None, Priority::MEASURED);
        s.run();
        assert!(s.flow(fa).is_complete());
        assert!(s.flow(fb).is_complete());
        // Flow to leaf 3 suffered; flow to leaf 2 did not lose anything.
        assert!(s.stats.silent_drops() > 0);
    }

    #[test]
    fn counters_only_count_tagged_data() {
        let mut s = sim(31);
        let tag = CollectiveTag { job: 9, iter: 0 };
        s.post_message(HostId(0), HostId(3), 300_000, Some(tag), Priority::MEASURED);
        s.post_message(HostId(1), HostId(2), 300_000, None, Priority::BACKGROUND);
        s.run();
        let c = s.counters.get(9, 0).expect("tagged iteration recorded");
        // All tagged bytes landed at leaf 3 (the destination's leaf).
        let leaf3: u64 = c.leaf_ports(3).iter().sum();
        assert_eq!(leaf3, 300_000);
        // No other leaf counted tagged traffic.
        for l in [0u32, 1, 2] {
            assert_eq!(c.leaf_ports(l).iter().sum::<u64>(), 0, "leaf {l}");
        }
        // Untagged background flow produced no counter entries at all.
        assert_eq!(s.counters.keys(), vec![(9, 0)]);
        // Per-source attribution: everything from leaf 0.
        assert_eq!(
            c.port_src_bytes(3, 0, 0) + c.port_src_bytes(3, 1, 0),
            300_000
        );
    }

    /// A tagged iteration stays open until nothing can add a byte to it:
    /// its receiver completes with ACKs still in flight, so it is open at
    /// its own end, and it closes once the last ACK lands and nothing names
    /// the flow. A flow that gave up closes too.
    #[test]
    fn a_tag_stays_open_until_its_flows_are_done() {
        use std::cell::Cell;
        use std::rc::Rc;
        const TAG: CollectiveTag = CollectiveTag { job: 9, iter: 2 };
        /// What `may_record` said at the receiver's completion.
        struct AtCompletion(Rc<Cell<Option<[bool; 4]>>>);
        impl Application for AtCompletion {
            fn on_message_complete(&mut self, sim: &mut Simulator, flow: FlowId) {
                assert!(sim.flow(flow).refs > 0, "the ACK is in flight");
                self.0.set(Some([
                    sim.may_record(9, 2),
                    sim.may_record(9, 7),
                    sim.may_record(9, 1),
                    sim.may_record(8, 2),
                ]));
            }
        }
        let seen = Rc::new(Cell::new(None));
        let mut s = sim(5);
        s.set_app(Box::new(AtCompletion(seen.clone())));
        assert!(!s.may_record(9, 2), "nothing posted yet");
        let f = s.post_message(HostId(0), HostId(2), 64_000, Some(TAG), Priority::MEASURED);
        assert!(s.may_record(9, 2));
        s.run();
        assert_eq!(
            seen.get(),
            Some([true, true, false, false]),
            "open through its own iteration and later ones, at its own end"
        );
        assert_eq!(s.flow(f).refs, 0);
        assert!(!s.may_record(9, 2), "closed once the ACK landed");

        let mut s = sim(5);
        s.cfg.rto_max_attempts = 2;
        s.apply_fault_now(
            s.topo.host_up[0],
            FaultAction::Set(FaultKind::SilentBlackhole),
            false,
        );
        let f = s.post_message(HostId(0), HostId(2), 8_000, Some(TAG), Priority::MEASURED);
        while s.step() {
            assert!(s.may_record(9, 2) || s.flow(f).refs == 0);
        }
        assert_eq!(s.stats.flows_failed, 1);
        assert!(!s.flow(f).is_complete());
        assert!(!s.may_record(9, 2), "a flow that gave up is closed");
    }

    #[test]
    fn wake_events_reach_app() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Waker {
            hits: Rc<Cell<u32>>,
        }
        impl Application for Waker {
            fn on_start(&mut self, sim: &mut Simulator) {
                sim.schedule_wake(SimTime::from_ns(100), HostId(0), 7);
                sim.schedule_wake(SimTime::from_ns(200), HostId(1), 8);
            }
            fn on_wake(&mut self, _sim: &mut Simulator, _host: HostId, token: u64) {
                self.hits.set(self.hits.get() + token as u32);
            }
        }
        let hits = Rc::new(Cell::new(0));
        let mut s = sim(37);
        s.set_app(Box::new(Waker { hits: hits.clone() }));
        s.run();
        assert_eq!(hits.get(), 15);
        assert_eq!(s.now().as_ns(), 200);
    }

    /// A simulator whose clock stands at 5 µs.
    fn sim_at_5us() -> Simulator {
        let mut s = sim(89);
        s.run_until(SimTime::from_us(5));
        s
    }

    #[test]
    #[should_panic(expected = "scheduled at 4000 ns, before now (5000 ns)")]
    fn a_wake_in_the_past_is_refused() {
        sim_at_5us().schedule_wake(SimTime::from_us(4), HostId(0), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled at 4000 ns, before now (5000 ns)")]
    fn a_fault_in_the_past_is_refused() {
        let mut s = sim_at_5us();
        let up = s.topo.uplink(0, 0);
        s.schedule_fault(FaultEvent::new(
            SimTime::from_us(4),
            up,
            FaultAction::Clear,
            false,
        ));
    }

    #[test]
    #[should_panic(expected = "scheduled at 4000 ns, before now (5000 ns)")]
    fn a_control_in_the_past_is_refused() {
        use crate::control::ControlAction;
        let mut s = sim_at_5us();
        let up = s.topo.uplink(0, 0);
        s.schedule_control(
            SimTime::from_us(4),
            ControlAction::cable(up, ControlVerb::Restore),
        );
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s = sim(41);
        s.post_message(HostId(0), HostId(3), 10_000_000, None, Priority::MEASURED);
        let r = s.run_until(SimTime::from_us(5));
        assert_eq!(r.reason, RunReason::TimeLimit);
        assert_eq!(s.now(), SimTime::from_us(5));
        assert!(!s.all_flows_complete());
        let r2 = s.run();
        assert_eq!(r2.reason, RunReason::Drained);
        assert!(s.all_flows_complete());
    }

    #[test]
    fn event_limit_stops_runaway() {
        let mut s = sim(43);
        s.cfg.max_events = 50;
        s.post_message(HostId(0), HostId(3), 10_000_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::EventLimit);
    }

    #[test]
    fn scheduled_fault_fires_at_time() {
        let mut s = sim(47);
        let bad = s.topo.downlink(0, 3);
        let blackhole = FaultAction::Set(FaultKind::SilentBlackhole);
        let (set, clear) = (SimTime::from_us(10), SimTime::from_us(20));
        s.schedule_fault(FaultEvent::new(set, bad, blackhole, false));
        s.schedule_fault(FaultEvent::new(clear, bad, FaultAction::Clear, false));
        s.run();
        assert!(s.link(bad).fault.is_none());
        assert!(s.link(bad).admin_up);
        // Trace captured both transitions.
        let n = s
            .trace
            .records()
            .filter(|(_, e)| {
                matches!(
                    e,
                    TraceEvent::FaultSet { .. } | TraceEvent::FaultCleared { .. }
                )
            })
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn stale_rto_does_not_retransmit_or_advance_clock() {
        // One tiny segment: its ACK lands long before the 5 µs RTO, so the
        // armed timer must surface as a stale skip — no retransmission, no
        // clock advance to the timer's expiry, no event counted for it.
        let mut s = sim(59);
        s.post_message(HostId(0), HostId(1), 1_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        assert_eq!(s.stats.retransmits, 0);
        assert_eq!(
            s.stats.rto_stale_skips, 1,
            "one segment: the flow's only timer is armed and dies stale"
        );
        assert!(
            s.now() < SimTime::ZERO + config::RTO,
            "dead timer advanced the clock to {}",
            s.now()
        );
    }

    #[test]
    fn clean_run_lazily_cancels_every_timer() {
        let mut s = sim(61);
        s.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
        s.run();
        assert_eq!((s.flow(0).npkts, s.stats.retransmits), (245, 0));
        let ss = s.sched_stats();
        assert_eq!(
            ss.head_arms, s.stats.rto_stale_skips,
            "every one died stale"
        );
        assert_eq!(
            s.stats.rto_stale_skips, 8,
            "one timer at a time: each one that surfaces (an RTO after its \
             segment left) hands over to the oldest segment still \
             unacknowledged, about an RTO less a round trip further on, and \
             the last segment sent is always armed"
        );
    }

    #[test]
    fn stale_skips_do_not_count_toward_event_budget() {
        // Same drop-recovery scenario twice: the second run's event budget
        // is exactly what the first consumed (+1 headroom for the >= guard).
        // If stale RTO timers were charged as events — dead backoff chains
        // growing `stats.events` — the rerun would hit the limit instead of
        // draining.
        let run = |max_events: u64| {
            let mut s = sim(11);
            s.cfg.max_events = max_events;
            let bad = s.topo.downlink(0, 3);
            s.apply_fault_now(
                bad,
                FaultAction::Set(FaultKind::SilentDrop { rate: 0.10 }),
                false,
            );
            s.post_message(HostId(0), HostId(3), 500_000, None, Priority::MEASURED);
            let r = s.run();
            (
                r,
                s.stats.events,
                s.stats.rto_stale_skips,
                s.stats.retransmits,
            )
        };
        let (r1, events1, skips, retx) = run(u64::MAX);
        assert_eq!(r1.reason, RunReason::Drained);
        assert!(retx > 0, "fault must have forced retransmissions");
        assert!(
            skips > 0 && skips < 123,
            "{skips}: an acknowledged head-of-line segment leaves a stale \
             timer behind, most of the 123 segments never arm one"
        );
        let (r2, events2, skips2, _) = run(events1 + 1);
        assert_eq!(r2.reason, RunReason::Drained);
        assert_eq!(events2, events1, "runs must be identical");
        assert_eq!(skips2, skips);
    }

    /// Shared-counter test recorder (hooks tallied through `Rc<Cell>` so
    /// the test keeps a handle after boxing it into the simulator).
    #[derive(Clone, Default)]
    struct CountingRec {
        interval: u64,
        ticks: std::rc::Rc<std::cell::Cell<u64>>,
        samples: std::rc::Rc<std::cell::Cell<u64>>,
        last_t: std::rc::Rc<std::cell::Cell<u64>>,
        fcts: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        rtos: std::rc::Rc<std::cell::Cell<u64>>,
        pauses: std::rc::Rc<std::cell::Cell<u64>>,
        pause_ns: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl Recorder for CountingRec {
        fn sample_interval_ns(&self) -> u64 {
            self.interval
        }
        fn on_link_sample(&mut self, t_ns: u64, _link: u32, _s: &LinkSample) {
            self.samples.set(self.samples.get() + 1);
            if self.last_t.get() != t_ns {
                self.last_t.set(t_ns);
                self.ticks.set(self.ticks.get() + 1);
            }
        }
        fn on_fct_ns(&mut self, fct_ns: u64) {
            self.fcts.borrow_mut().push(fct_ns);
        }
        fn on_rto_attempt(&mut self, _attempt: u32) {
            self.rtos.set(self.rtos.get() + 1);
        }
        fn on_pfc_pause_ns(&mut self, _prio: u8, pause_ns: u64) {
            self.pauses.set(self.pauses.get() + 1);
            self.pause_ns.set(self.pause_ns.get() + pause_ns);
        }
    }

    #[test]
    fn sampler_ticks_match_duration_over_interval() {
        const INTERVAL: u64 = 1_000;
        let base_events = {
            let mut s = sim(67);
            s.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
            s.run();
            s.stats.events
        };
        let mut s = sim(67);
        let rec = CountingRec {
            interval: INTERVAL,
            ..Default::default()
        };
        s.set_recorder(Box::new(rec.clone()));
        s.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        // Samples land exactly at k*INTERVAL and the final event of the run
        // is the last sampler tick, so tick count == duration / interval.
        assert_eq!(s.now().as_ns() % INTERVAL, 0);
        assert_eq!(rec.ticks.get(), s.now().as_ns() / INTERVAL);
        // Every link is observed on every tick.
        assert_eq!(rec.samples.get(), rec.ticks.get() * s.topo.n_links() as u64);
        // Sampler ticks are not charged as engine events: accounting is
        // identical to the recorder-free run.
        assert_eq!(s.stats.events, base_events);
    }

    #[test]
    fn recorder_sees_flow_completion_times() {
        let mut s = sim(71);
        let rec = CountingRec::default();
        s.set_recorder(Box::new(rec.clone()));
        let f = s.post_message(HostId(0), HostId(2), 100_000, None, Priority::MEASURED);
        s.run();
        let fcts = rec.fcts.borrow();
        assert_eq!(fcts.len(), 1);
        let flow = s.flow(f);
        let want = flow.completed_at.unwrap().as_ns() - flow.created_at.as_ns();
        assert_eq!(fcts[0], want);
    }

    #[test]
    fn recorder_sees_rto_attempts() {
        let mut s = sim(73);
        let rec = CountingRec::default();
        s.set_recorder(Box::new(rec.clone()));
        let bad = s.topo.downlink(0, 3);
        s.apply_fault_now(
            bad,
            FaultAction::Set(FaultKind::SilentDrop { rate: 0.10 }),
            false,
        );
        s.post_message(HostId(0), HostId(3), 2_000_000, None, Priority::MEASURED);
        s.run();
        assert!(s.stats.retransmits > 0);
        assert_eq!(rec.rtos.get(), s.stats.retransmits);
    }

    #[test]
    fn pfc_pause_durations_accumulate_per_priority() {
        // 4-to-1 incast through a 2-leaf fabric: ingress accounting at the
        // destination leaf must cross XOFF and pause the spine downlinks.
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 4,
            ..Default::default()
        });
        let mut s = Simulator::new(topo, SimConfig::default(), 83);
        let rec = CountingRec::default();
        s.set_recorder(Box::new(rec.clone()));
        for h in 4..8 {
            s.post_message(HostId(h), HostId(0), 4_000_000, None, Priority::MEASURED);
        }
        s.run();
        assert!(s.all_flows_complete());
        assert!(s.stats.pfc_pauses > 0, "incast must trigger PFC");
        // A drained run resumes every pause, so durations cover every
        // interval and land on the traffic's priority only.
        assert_eq!(s.stats.pfc_resumes, s.stats.pfc_pauses);
        let q = Priority::MEASURED.idx();
        assert!(s.stats.pfc_pause_ns[q] > 0);
        for (p, &ns) in s.stats.pfc_pause_ns.iter().enumerate() {
            if p != q {
                assert_eq!(ns, 0, "no pauses expected at priority {p}");
            }
        }
        // The recorder's histogram feed saw exactly the completed intervals.
        assert_eq!(rec.pauses.get(), s.stats.pfc_resumes);
        assert_eq!(rec.pause_ns.get(), s.stats.pfc_pause_ns[q]);
    }

    #[test]
    fn acks_are_coalesced() {
        let mut s = sim(53);
        s.post_message(HostId(0), HostId(1), 4_000_000, None, Priority::MEASURED);
        s.run();
        // ~977 data packets; with 8-way coalescing ACK count should sit well
        // below data count.
        assert!(
            s.stats.acks_sent * 4 < s.stats.data_pkts_sent,
            "acks={} data={}",
            s.stats.acks_sent,
            s.stats.data_pkts_sent
        );
    }
}
