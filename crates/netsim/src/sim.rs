//! The simulator: the event loop and the handler of every event kind.
//!
//! [`Simulator`] owns the whole world — topology, per-link egress state
//! ([`crate::egress`]), per-switch forwarding state (`crate::switch`), the
//! transport flow table ([`crate::transport`]), FlowPulse counters — and
//! processes its pending events in the deterministic `(time, seq)` order
//! the agenda ([`crate::pipeline`]) yields them. The state-owning modules
//! decide *what* changes; this file decides *when*, and keeps the
//! statistics, the trace, the recorder and the application callbacks. See
//! the crate docs for the model; the short version:
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
use crate::config::SimConfig;
use crate::control::{AppliedControl, ControlAction, ControlEvent, ControlVerb};
use crate::counters::CounterStore;
pub use crate::egress::LinkState;
use crate::egress::PfcIngress;
use crate::engine::{EventKind, SchedKind, SchedStats};
use crate::fault::{FaultAction, FaultEvent, FaultKind};
use crate::ids::{HostId, LinkId, NodeId, SwitchId};
use crate::packet::{AckBlock, CollectiveTag, FlowId, Packet, PacketKind, Priority, NPRIO};
use crate::pipeline::{Agenda, Due};
use crate::rng::RngStreams;
use crate::spray;
use crate::stats::{DropCause, Stats};
use crate::switch::{Fabric, Switches};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkClass, Topology};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::transport::{FlowState, RtoOutcome};
use fp_telemetry::{LinkMeta, Recorder};
use std::collections::VecDeque;

// A child module (rather than a sibling) so the fast-forward machinery can
// reach the simulator's private runtime state without widening its API.
#[path = "memo.rs"]
pub mod memo;

#[cfg(test)]
#[path = "delay_class_tests.rs"]
mod delay_class_tests;

#[cfg(test)]
#[path = "fast_path_tests.rs"]
mod fast_path_tests;

#[cfg(test)]
#[path = "head_timer_tests.rs"]
mod head_timer_tests;

/// Runtime state of one host NIC.
#[derive(Debug)]
struct HostState {
    /// Flows with fresh segments left, drained round-robin.
    active: VecDeque<FlowId>,
}

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
    /// Events processed in this call.
    pub events: u64,
    /// Simulated clock at return.
    pub end: SimTime,
    /// Why the run stopped.
    pub reason: RunReason,
}

/// One completed collective iteration, as reported by a workload runner.
/// Always logged by the engine (no recorder needed) so goodput and
/// control-plane latencies can be measured on any run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IterSpanRecord {
    /// Job identifier.
    pub job: u32,
    /// Iteration number within the job.
    pub iter: u32,
    /// When the iteration's first transfer was posted.
    pub start: SimTime,
    /// When the iteration's last transfer completed.
    pub end: SimTime,
}

/// The packet-level fat-tree simulator.
pub struct Simulator {
    /// Configuration (immutable after construction).
    pub cfg: SimConfig,
    /// The fabric.
    pub topo: Topology,
    now: SimTime,
    /// Every pending event: timers, control events and packets on the
    /// wire, in the containers `crate::pipeline` chooses for them.
    agenda: Agenda,
    links: Vec<LinkState>,
    /// PFC accounting per (switch ingress port, priority).
    pfc: PfcIngress,
    /// Forwarding state of every switch and the spray stage.
    switches: Switches,
    hosts: Vec<HostState>,
    /// Transport flow table (public for inspection by harnesses).
    pub flows: Vec<FlowState>,
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
    fault_events: Vec<FaultEvent>,
    control_events: Vec<ControlEvent>,
    applied_controls: Vec<AppliedControl>,
    iter_spans: Vec<IterSpanRecord>,
    recorder: Option<Box<dyn Recorder>>,
    /// Scratch `(seq, ce)` echoes collected while the flow table is
    /// borrowed in [`Simulator::receive_ack`].
    scratch_echoes: Vec<(u32, bool)>,
    /// Temporal-symmetry memoization state (`FP_MEMO`, see [`memo`]);
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
        let hosts = (0..topo.n_hosts())
            .map(|_| HostState {
                active: VecDeque::new(),
            })
            .collect();
        let counters = CounterStore::new(topo.n_leaves(), topo.n_vspines());
        let agg_counters = CounterStore::new_with_src(
            topo.n_aggs(),
            topo.cores_per_group as usize,
            topo.n_leaves(),
        );
        let agenda = Agenda::new(
            cfg.sched.unwrap_or_default(),
            topo.links.iter().map(|l| l.latency),
        );
        let mut sim = Simulator {
            cfg,
            topo,
            now: SimTime::ZERO,
            agenda,
            links,
            pfc: PfcIngress::new(n_links),
            switches,
            hosts,
            flows: Vec::new(),
            rng: RngStreams::new(seed),
            stats: Stats::default(),
            counters,
            agg_counters,
            trace: TraceBuffer::new(4096),
            app: None,
            app_started: false,
            fault_events: Vec::new(),
            control_events: Vec::new(),
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

    /// The leaf a host hangs off.
    pub fn host_leaf(&self, h: HostId) -> u32 {
        self.topo.leaf_of(h)
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Attach a telemetry recorder. The recorder immediately receives the
    /// topology description; if it asks for a nonzero sampling interval the
    /// periodic link sampler is scheduled. With no recorder attached (the
    /// default) every telemetry call site reduces to one `Option` branch
    /// and no sampler events exist, so runs are byte-identical to a build
    /// without telemetry.
    pub fn set_recorder(&mut self, mut rec: Box<dyn Recorder>) {
        rec.on_topology(&link_metas(&self.topo));
        let interval = rec.sample_interval_ns();
        self.recorder = Some(rec);
        if interval > 0 {
            let at = self.now + SimDuration::from_ns(interval);
            self.agenda.at(at, EventKind::Sample);
        }
    }

    /// Detach and return the recorder (for post-run export and flushing).
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Report a completed collective iteration span. Always appended to the
    /// in-sim span log (see [`Simulator::iter_spans`]) so goodput and
    /// control-plane timing can be computed without a recorder; additionally
    /// forwarded to the telemetry recorder when one is attached. Called by
    /// workload runners.
    pub fn record_iteration_span(&mut self, job: u32, iter: u32, start: SimTime, end: SimTime) {
        self.iter_spans.push(IterSpanRecord {
            job,
            iter,
            start,
            end,
        });
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_iteration(job, iter, start.as_ns(), end.as_ns());
        }
    }

    /// Completed collective iteration spans, in completion order.
    pub fn iter_spans(&self) -> &[IterSpanRecord] {
        &self.iter_spans
    }

    /// Sampler tick: hand every link's egress state to the recorder.
    fn sample_links(&mut self) {
        // Move the recorder out so the link table can be borrowed freely.
        let Some(mut rec) = self.recorder.take() else {
            return;
        };
        let t = self.now.as_ns();
        for (i, l) in self.links.iter().enumerate() {
            rec.on_link_sample(t, i as u32, &l.sample());
        }
        self.recorder = Some(rec);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Schedule a fault event for later application.
    pub fn schedule_fault(&mut self, ev: FaultEvent) {
        let idx = self.fault_events.len() as u32;
        self.fault_events.push(ev);
        self.agenda.at(ev.at, EventKind::FaultUpdate { idx });
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    /// Schedule a control-plane action (remediation) to land at `at`.
    ///
    /// The action rides the same future-event scheduler as every other
    /// event, so a controller-enabled run stays byte-identical across
    /// scheduler backends and thread counts. Returns the schedule index,
    /// which reappears in [`Simulator::applied_controls`] once the action
    /// has taken effect.
    pub fn schedule_control(&mut self, at: SimTime, action: ControlAction) -> u32 {
        let idx = self.control_events.len() as u32;
        self.control_events.push(ControlEvent { at, action });
        self.agenda.at(at, EventKind::ControlUpdate { idx });
        idx
    }

    /// The full control-action schedule so far (applied or pending).
    pub fn control_events(&self) -> &[ControlEvent] {
        &self.control_events
    }

    /// Append-only log of control actions that have been applied.
    pub fn applied_controls(&self) -> &[AppliedControl] {
        &self.applied_controls
    }

    /// Apply a control action immediately, logging it with schedule index
    /// `idx`.
    fn apply_control(&mut self, idx: u32, action: ControlAction) {
        self.trace
            .push(self.now, TraceEvent::ControlApplied { link: action.link });
        match action.verb {
            ControlVerb::AdminDown => {
                self.apply_fault_now(
                    action.link,
                    FaultAction::Set(FaultKind::AdminDown),
                    action.bidirectional,
                );
            }
            ControlVerb::Restore => {
                self.apply_fault_now(action.link, FaultAction::Clear, action.bidirectional);
            }
            // Soft mitigation: quarantine the cable for spray decisions
            // only. No admin state change, no queue drain, no routing
            // recompute — queued and in-flight packets finish normally.
            ControlVerb::RecycleEntropy => {
                let link = action.link.idx();
                self.switches.set_spray_avoid(&mut self.links[link], true);
                if action.bidirectional {
                    let peer = self.topo.peer[link].idx();
                    self.switches.set_spray_avoid(&mut self.links[peer], true);
                }
            }
        }
        self.applied_controls.push(AppliedControl {
            at: self.now,
            idx,
            action,
        });
    }

    /// Apply a fault action right now.
    pub fn apply_fault_now(&mut self, link: LinkId, action: FaultAction, bidirectional: bool) {
        self.apply_fault_action(link, action);
        if bidirectional {
            let peer = self.topo.peer[link.idx()];
            self.apply_fault_action(peer, action);
        }
    }

    fn apply_fault_action(&mut self, link: LinkId, action: FaultAction) {
        match action {
            FaultAction::Set(kind) => {
                self.trace
                    .push(self.now, TraceEvent::FaultSet { link, kind });
                if kind == FaultKind::AdminDown {
                    self.links[link.idx()].admin_up = false;
                    self.links[link.idx()].fault = None;
                    self.drain_link_queues(link);
                    self.switches.recompute_routing(&self.topo, &self.links);
                } else {
                    self.links[link.idx()].fault = Some(kind);
                }
            }
            FaultAction::Clear => {
                self.trace.push(self.now, TraceEvent::FaultCleared { link });
                let was_down = !self.links[link.idx()].admin_up;
                self.links[link.idx()].fault = None;
                self.links[link.idx()].admin_up = true;
                // A healed/restored link also sheds any entropy-recycle
                // quarantine — it is trustworthy again.
                self.switches
                    .set_spray_avoid(&mut self.links[link.idx()], false);
                if was_down {
                    self.switches.recompute_routing(&self.topo, &self.links);
                }
                self.try_start_tx(link);
            }
        }
    }

    /// Drop everything queued on a link that just went admin-down,
    /// releasing PFC accounting for each dropped packet.
    fn drain_link_queues(&mut self, link: LinkId) {
        while let Some((pkt, wire)) = self.links[link.idx()].drain_next(self.cfg.wire_overhead) {
            self.trace_drop(link, DropCause::AdminDown, &pkt);
            self.pfc_release(&pkt, wire);
        }
    }

    /// Count and trace a packet dropped at `link`.
    fn trace_drop(&mut self, link: LinkId, cause: DropCause, pkt: &Packet) {
        self.stats.drop(cause);
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
        let id = self.flows.len() as FlowId;
        self.flows.push(FlowState::new(
            src,
            dst,
            bytes,
            self.cfg.mtu,
            tag,
            prio,
            self.now,
        ));
        self.hosts[src.idx()].active.push_back(id);
        self.try_start_tx(self.topo.host_up[src.idx()]);
        id
    }

    /// Schedule an application wake-up at absolute time `at`.
    pub fn schedule_wake(&mut self, at: SimTime, host: HostId, token: u64) {
        debug_assert!(at >= self.now);
        self.agenda.at(at, EventKind::Wake { host, token });
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
    pub fn run_until(&mut self, horizon: SimTime) -> RunSummary {
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
        let start_events = self.stats.events;
        let reason = loop {
            if let Err(reason) = self.dispatch_next(horizon, self.cfg.max_events) {
                break reason;
            }
        };
        RunSummary {
            events: self.stats.events - start_events,
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
            let f = &mut self.flows[flow as usize];
            // A first-attempt timer is its flow's only armed one: the
            // flow's next logged slot takes its place before anything else
            // happens, so the flow never names a timer that is gone.
            let head_of_line = attempt == 0;
            #[cfg(test)]
            let head_of_line = head_of_line && !self.per_segment_rto;
            if head_of_line {
                if let Some((slot, next)) = f.next_head(flow, seq) {
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
        // Sampler ticks advance the clock but, like stale-RTO skips, are
        // not charged to `stats.events` or the `max_events` guard —
        // telemetry must not perturb event accounting. The tick reschedules
        // itself only while other events remain, so a drained workload
        // cannot be kept alive by its own sampler.
        if matches!(kind, EventKind::Sample) {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.sample_links();
            if let Some(interval) = self
                .recorder
                .as_ref()
                .map(|r| r.sample_interval_ns())
                .filter(|&i| i > 0)
            {
                let next = at + SimDuration::from_ns(interval);
                if !self.agenda.is_empty() {
                    self.agenda.at(next, EventKind::Sample);
                }
            }
            return;
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
            EventKind::FaultUpdate { idx } => {
                let ev = self.fault_events[idx as usize];
                self.apply_fault_now(ev.link, ev.action, ev.bidirectional);
            }
            EventKind::ControlUpdate { idx } => {
                let ev = self.control_events[idx as usize];
                self.apply_control(idx, ev.action);
            }
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

    fn wire_size(&self, pkt: &Packet) -> u64 {
        pkt.size as u64 + self.cfg.wire_overhead as u64
    }

    /// Start transmitting on `link` if it is idle and something is eligible.
    fn try_start_tx(&mut self, link: LinkId) {
        let l = &self.links[link.idx()];
        if l.txing || !l.admin_up {
            return;
        }
        let src = self.topo.links[link.idx()].src;
        // A switch sends only what is queued (a host NIC also pulls fresh
        // segments), so an empty switch egress — the usual state after a
        // `TxDone` on a sprayed fabric — is settled by the occupancy mask.
        if l.queues_empty() && matches!(src, NodeId::Switch(_)) {
            return;
        }
        let mut chosen: Option<Packet> = None;
        for q in 0..NPRIO {
            if self.links[link.idx()].paused[q] {
                continue;
            }
            // queued_bytes is *not* decremented here: it tracks queued plus
            // in-flight bytes and is released at TxDone.
            if let Some(pkt) = self.links[link.idx()].pop(q) {
                chosen = Some(pkt);
                break;
            }
            if let NodeId::Host(h) = src {
                if let Some(pkt) = self.next_fresh(h, q) {
                    // Fresh segments bypass the queue; charge them so the
                    // in-flight accounting stays symmetric.
                    let wire = self.wire_size(&pkt);
                    self.links[link.idx()].charge(wire);
                    chosen = Some(pkt);
                    break;
                }
            }
        }
        if let Some(pkt) = chosen {
            self.begin_tx(link, pkt);
        }
    }

    /// Put `pkt` on `link`'s wire and schedule the end of its serialization.
    #[inline]
    fn begin_tx(&mut self, link: LinkId, pkt: Packet) {
        let wire = self.wire_size(&pkt);
        let ser = self.topo.links[link.idx()].bandwidth.ser_time(wire);
        self.links[link.idx()].start(pkt);
        self.agenda.after(self.now, ser, EventKind::TxDone { link });
    }

    /// Pull the next fresh (never-sent) segment at priority class `q` from
    /// host `h`'s active flows, round-robin. Takes the segment's place in
    /// the timer order and arms it if the flow has no timer armed.
    fn next_fresh(&mut self, h: HostId, q: usize) -> Option<Packet> {
        let n = self.hosts[h.idx()].active.len();
        for _ in 0..n {
            let fid = self.hosts[h.idx()].active.pop_front().expect("len checked");
            let f = &self.flows[fid as usize];
            if !f.has_fresh() {
                // Exhausted (or failed): drop from the active set.
                continue;
            }
            if f.prio.idx() != q {
                self.hosts[h.idx()].active.push_back(fid);
                continue;
            }
            let leaf = self.topo.leaf_of(h) as u16;
            let f = &mut self.flows[fid as usize];
            let pkt = f.send_fresh(fid, leaf);
            if f.has_fresh() {
                self.hosts[h.idx()].active.push_back(fid);
            }
            self.stats.data_pkts_sent += 1;
            #[cfg(test)]
            if self.per_segment_rto {
                let (flow, seq, attempt) = (fid, f.next_seq - 1, 0);
                let rto = EventKind::Rto { flow, seq, attempt };
                self.agenda.after(self.now, self.cfg.rto, rto);
                return Some(pkt);
            }
            let slot = self.agenda.reserve_after(self.now, self.cfg.rto);
            if let Some(rto) = f.log_sent(fid, slot) {
                self.agenda.arm_reserved(slot, rto);
            }
            return Some(pkt);
        }
        None
    }

    fn handle_tx_done(&mut self, link: LinkId) {
        let (pkt, wire) = self.links[link.idx()].finish(self.cfg.wire_overhead);
        self.stats.pkts_txed += 1;
        // Release PFC budget the packet held at this node.
        self.pfc_release(&pkt, wire);
        // Silent-fault sampling: the packet burned wire time; does it arrive?
        let dropped = match self.links[link.idx()].fault {
            Some(fault) if fault.is_silent() => {
                let dst_leaf = self.topo.leaf_of(pkt.dst) as u16;
                fault.drops(&pkt, dst_leaf, &mut self.rng.fault)
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
        {
            let l = &mut self.links[link.idx()];
            l.delivered_pkts += 1;
            l.delivered_bytes += pkt.size as u64;
        }
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
            return;
        }
        // ECN: CE-mark data packets entering a standing queue. Gated on
        // the backend actually consuming the echo so classic policies run
        // the pre-feedback byte path unchanged.
        if self.switches.feedback
            && !pkt.ce
            && pkt.is_data()
            && l.queued_bytes >= self.cfg.ecn_threshold
        {
            pkt.ce = true;
        }
        let wire = self.wire_size(&pkt);
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
                NodeId::Host(h) => q == 0 || self.hosts[h.idx()].active.is_empty(),
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
        debug_assert_eq!(self.flows[flow as usize].dst, h, "data at wrong host");
        self.stats.data_pkts_delivered += 1;
        let (newly, completed) = self.flows[flow as usize].on_data(seq, self.now);
        if newly {
            self.stats.bytes_delivered += size as u64;
        } else {
            self.stats.dup_pkts_delivered += 1;
        }
        if completed {
            self.stats.flows_completed += 1;
            if let Some(rec) = self.recorder.as_mut() {
                let created = self.flows[flow as usize].created_at;
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
        let f = &mut self.flows[flow as usize];
        let (block, schedule_flush) = f.ack_data(seq, ce, self.cfg.ack_coalesce);
        if let Some(block) = block {
            self.send_ack(flow, block);
        }
        if schedule_flush {
            let flush = EventKind::AckFlush { flow };
            self.agenda.after(self.now, self.cfg.ack_flush_delay, flush);
        }
    }

    fn handle_ack_flush(&mut self, flow: FlowId) {
        if let Some(block) = self.flows[flow as usize].flush_ack() {
            self.send_ack(flow, block);
        }
    }

    fn send_ack(&mut self, flow: FlowId, block: AckBlock) {
        let f = &self.flows[flow as usize];
        let pkt = Packet {
            kind: PacketKind::Ack { flow, block },
            src: f.dst,
            dst: f.src,
            size: self.cfg.ack_size,
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
        debug_assert_eq!(self.flows[flow as usize].src, h, "ack at wrong host");
        let mut echoes = std::mem::take(&mut self.scratch_echoes);
        echoes.clear();
        let f = &mut self.flows[flow as usize];
        let pair = (f.src.0, f.dst.0);
        let newly_done = f.on_ack(block, self.switches.feedback.then_some(&mut echoes));
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
        if newly_done {
            self.with_app(|app, sim| app.on_flow_acked(sim, flow));
        }
    }

    fn handle_rto(&mut self, flow: FlowId, seq: u32, attempt: u32) {
        let f = &mut self.flows[flow as usize];
        let (src, pair) = (f.src, (f.src.0, f.dst.0));
        let leaf = self.topo.leaf_of(src);
        let max = self.cfg.rto_max_attempts;
        let (pkt, rearm) = match f.on_rto(flow, seq, attempt, max, leaf as u16) {
            // Defense in depth: `dispatch` already discards stale timers.
            RtoOutcome::Stale => return,
            RtoOutcome::GaveUp => {
                self.stats.flows_failed += 1;
                self.trace.push(self.now, TraceEvent::FlowFailed { flow });
                self.with_app(|app, sim| app.on_flow_failed(sim, flow));
                return;
            }
            RtoOutcome::Retransmit(pkt, rearm) => (pkt, rearm),
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
        let exp = (attempt + 1).min(self.cfg.rto_backoff_cap);
        let backoff = self.cfg.rto.mul_f64(self.cfg.rto_backoff.powi(exp as i32));
        self.agenda.after(self.now, backoff, rearm);
    }

    // ------------------------------------------------------------------
    // Inspection helpers
    // ------------------------------------------------------------------

    /// True if every posted flow has been fully received.
    pub fn all_flows_complete(&self) -> bool {
        self.flows.iter().all(|f| f.is_complete())
    }

    /// Pending work count: timed events plus packets on the wire
    /// (0 = idle).
    pub fn pending_events(&self) -> usize {
        self.agenda.len()
    }

    /// Which scheduler backend this simulator runs on.
    pub fn sched_kind(&self) -> SchedKind {
        self.agenda.sched_kind()
    }

    /// Scheduler occupancy counters accumulated so far (telemetry only —
    /// never part of trial results, which are backend-independent).
    pub fn sched_stats(&self) -> SchedStats {
        self.agenda.stats()
    }
}

/// Compact endpoint label for telemetry track names.
fn node_label(n: NodeId) -> String {
    match n {
        NodeId::Host(h) => format!("host{}", h.0),
        NodeId::Switch(s) => format!("sw{}", s.0),
    }
}

/// The telemetry link descriptions for a topology — what
/// [`Simulator::set_recorder`] hands to [`Recorder::on_topology`].
fn link_metas(topo: &Topology) -> Vec<LinkMeta> {
    topo.links
        .iter()
        .enumerate()
        .map(|(i, l)| LinkMeta {
            id: i as u32,
            name: format!("{}->{}", node_label(l.src), node_label(l.dst)),
            bytes_per_sec: l.bandwidth.bps() / 8,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(s.flows[f as usize].is_complete());
        assert!(s.flows[f as usize].fully_acked());
        assert_eq!(s.stats.bytes_delivered, 100_000);
        assert_eq!(s.stats.flows_completed, 1);
        assert_eq!(s.stats.flows_failed, 0);
        assert_eq!(s.stats.total_drops(), 0);
    }

    #[test]
    fn pipeline_deliveries_dominate_and_account_exactly() {
        // Recorder-free drained run: every scheduler, class-pipe or
        // head-of-line pop is either an engine event that was not a
        // pipeline delivery, or a stale RTO discarded by lazy cancellation.
        // Deliveries themselves never round-trip any of those containers —
        // that is the point of the pipelines — and with no fault, control
        // or wake-up scheduled, every timer rode a delay-class pipe or was
        // a flow's head-of-line timer: the scheduler saw nothing.
        let mut s = sim(17);
        s.post_message(HostId(0), HostId(2), 500_000, None, Priority::MEASURED);
        let r = s.run();
        assert_eq!(r.reason, RunReason::Drained);
        assert_eq!(s.pending_events(), 0);
        let ss = s.sched_stats();
        assert_eq!(ss.pushes, ss.pops, "drained run: pushes == pops");
        assert_eq!(ss.class_pushes, ss.class_pops, "drained class pipes");
        assert_eq!(ss.head_arms, ss.head_pops, "drained head-of-line timers");
        assert_eq!(
            ss.pops + ss.class_pops + ss.head_pops,
            s.stats.events - s.stats.pipeline_deliveries + s.stats.rto_stale_skips
        );
        assert_eq!(ss.pushes, 0, "a constant-delay event reached the scheduler");
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
        assert!(s.flows[f as usize].is_complete(), "flow must recover");
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
        assert!(s.flows[f as usize].is_complete());
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
        s.schedule_control(down_at, ControlAction::admin_down_cable(cable));
        s.schedule_control(up_at, ControlAction::restore_cable(cable));
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
        assert!(s.flows[fa as usize].is_complete());
        assert!(s.flows[fb as usize].is_complete());
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
        s.schedule_fault(FaultEvent::set(
            SimTime::from_us(10),
            bad,
            FaultKind::SilentBlackhole,
        ));
        s.schedule_fault(FaultEvent::clear(SimTime::from_us(20), bad));
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
            s.now() < SimTime::ZERO + s.cfg.rto,
            "dead timer advanced the clock to {}",
            s.now()
        );
    }

    #[test]
    fn clean_run_lazily_cancels_every_timer() {
        let mut s = sim(61);
        s.post_message(HostId(0), HostId(3), 1_000_000, None, Priority::MEASURED);
        s.run();
        assert_eq!((s.flows[0].npkts, s.stats.retransmits), (245, 0));
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
            (r, s.stats.rto_stale_skips, s.stats.retransmits)
        };
        let (r1, skips, retx) = run(u64::MAX);
        assert_eq!(r1.reason, RunReason::Drained);
        assert!(retx > 0, "fault must have forced retransmissions");
        assert!(
            skips > 0 && skips < 123,
            "{skips}: an acknowledged head-of-line segment leaves a stale \
             timer behind, most of the 123 segments never arm one"
        );
        let (r2, skips2, _) = run(r1.events + 1);
        assert_eq!(r2.reason, RunReason::Drained);
        assert_eq!(r2.events, r1.events, "runs must be identical");
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
        let flow = &s.flows[f as usize];
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
