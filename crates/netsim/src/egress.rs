//! The egress layer: one transmitter with strict-priority queues per
//! directed link, and the PFC budget its packets hold at the switch port
//! they came in through.
//!
//! Plain state and methods — no scheduler, no topology, no statistics — so
//! the simulator decides *when* (events, sequence numbers, drops, traces)
//! and this module decides *what* (which packet is on the wire, what is
//! queued, how many bytes are charged). Two routes lead a packet onto the
//! wire:
//!
//! * the **queued** route: `LinkState::push` now, `LinkState::pop` when
//!   the transmitter next looks for work;
//! * the **direct** route: `LinkState::start` right away, allowed exactly
//!   when `LinkState::uncontended` holds — the transmitter is up, idle,
//!   not paused for the packet's class and nothing at all is queued, so
//!   the queued route would pop this very packet straight back.
//!
//! Both leave the same state behind; `sim.rs` calls the scheduler at the
//! same program points on either, which is what keeps every output byte
//! independent of the route taken (DESIGN.md §6).

use crate::fault::FaultKind;
use crate::ids::LinkId;
use crate::packet::{Packet, NPRIO};
use crate::time::SimTime;
use fp_telemetry::LinkSample;
use std::collections::VecDeque;

/// Runtime state of one directed link (its egress queue lives at the
/// transmitting node).
#[derive(Debug)]
pub struct LinkState {
    /// Administratively up (known faults take links out of routing).
    pub(crate) admin_up: bool,
    /// Entropy-recycle remediation flag (`ControlVerb::RecycleEntropy`):
    /// the link stays admin-up and keeps forwarding, but spray decisions
    /// steer away from it whenever an alternative candidate exists. Far
    /// gentler than admin-down — in-flight and queued packets survive.
    pub(crate) spray_avoid: bool,
    /// Installed silent fault, if any.
    pub(crate) fault: Option<FaultKind>,
    /// Currently serializing a packet.
    pub(crate) txing: bool,
    current: Option<Packet>,
    /// Packets on the wire: fully serialized, propagating toward the far
    /// end. The packets themselves live in the simulator's per-latency-class
    /// delivery pipes (see `crate::pipeline`); this is the link's share.
    pub(crate) inflight: u32,
    queues: [VecDeque<Packet>; NPRIO],
    /// Occupancy mask: bit `q` set ⇔ `queues[q]` is nonempty. Lets the
    /// transmitter of an empty egress answer "anything to send?" from one
    /// byte instead of three deques.
    occupied: u8,
    /// Queued **plus in-flight** wire bytes across priorities — the APS load
    /// signal. Including the packet currently serializing is what lets
    /// least-loaded spraying rotate away from the port it just used (as
    /// DRILL-style hardware does) instead of seeing all-empty queues.
    pub(crate) queued_bytes: u64,
    /// PFC pause state per priority (set by the downstream receiver).
    pub(crate) paused: [bool; NPRIO],
    /// When the current pause interval started, per priority (valid only
    /// while `paused[p]`; feeds `Stats::pfc_pause_ns`).
    pub(crate) paused_since: [SimTime; NPRIO],
    /// Packets fully serialized onto this link.
    pub txed_pkts: u64,
    /// Wire bytes fully serialized onto this link.
    pub txed_bytes: u64,
    /// Packets delivered at the far end (survived faults).
    pub delivered_pkts: u64,
}

impl LinkState {
    pub(crate) fn new() -> Self {
        LinkState {
            admin_up: true,
            spray_avoid: false,
            fault: None,
            txing: false,
            current: None,
            inflight: 0,
            queues: Default::default(),
            occupied: 0,
            queued_bytes: 0,
            paused: [false; NPRIO],
            paused_since: [SimTime::ZERO; NPRIO],
            txed_pkts: 0,
            txed_bytes: 0,
            delivered_pkts: 0,
        }
    }

    /// Packets waiting in all priority queues.
    pub fn queued_pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// The telemetry view of this egress.
    pub(crate) fn sample(&self) -> LinkSample {
        let mut paused_mask = 0u8;
        for (p, &paused) in self.paused.iter().enumerate() {
            if paused {
                paused_mask |= 1 << p;
            }
        }
        LinkSample {
            queued_bytes: self.queued_bytes,
            queued_pkts: self.queued_pkts() as u32,
            inflight_pkts: self.inflight,
            txed_bytes: self.txed_bytes,
            paused_mask,
        }
    }

    #[inline]
    fn check_mask(&self) {
        debug_assert!(
            (0..NPRIO).all(|q| (self.occupied >> q & 1 == 1) != self.queues[q].is_empty()),
            "occupancy mask {:#05b} out of step with the queues",
            self.occupied
        );
    }

    /// True when a class-`q` packet handed to this egress would be the very
    /// next one on the wire: up, not serializing, class not paused, nothing
    /// queued in any class. (A host NIC can still be pre-empted by a fresh
    /// segment of a higher class; its owner checks that.)
    #[inline]
    pub(crate) fn uncontended(&self, q: usize) -> bool {
        self.admin_up && !self.txing && !self.paused[q] && self.occupied == 0
    }

    /// Charge `wire` bytes to the load signal (the packet is about to be
    /// queued or started); returns the new depth.
    #[inline]
    pub(crate) fn charge(&mut self, wire: u64) -> u64 {
        self.queued_bytes += wire;
        self.queued_bytes
    }

    /// Queued route: append to the packet's class.
    #[inline]
    pub(crate) fn push(&mut self, pkt: Packet) {
        let q = pkt.prio.idx();
        self.queues[q].push_back(pkt);
        self.occupied |= 1 << q;
        self.check_mask();
    }

    /// Head of class `q`, if any. `queued_bytes` stays charged: it covers
    /// the packet until [`Self::finish`].
    #[inline]
    pub(crate) fn pop(&mut self, q: usize) -> Option<Packet> {
        if self.occupied >> q & 1 == 0 {
            return None;
        }
        let pkt = self.queues[q].pop_front();
        if self.queues[q].is_empty() {
            self.occupied &= !(1 << q);
        }
        self.check_mask();
        pkt
    }

    /// Strict priority: the head of the first class that is not paused and
    /// has a packet queued — all a switch egress ever sends.
    #[inline]
    pub(crate) fn pop_unpaused(&mut self) -> Option<Packet> {
        if self.occupied == 0 {
            return None;
        }
        (0..NPRIO).find_map(|q| if self.paused[q] { None } else { self.pop(q) })
    }

    /// Put `pkt` on the wire (either route ends here).
    #[inline]
    pub(crate) fn start(&mut self, pkt: Packet) {
        debug_assert!(self.admin_up && !self.txing && self.current.is_none());
        self.txing = true;
        self.current = Some(pkt);
    }

    /// Serialization finished: release the transmitter and the packet's
    /// `wire` bytes, count it as transmitted, hand it back.
    #[inline]
    pub(crate) fn finish(&mut self) -> (Packet, u64) {
        let pkt = self.current.take().expect("TxDone without current packet");
        let wire = pkt.wire_size();
        self.txing = false;
        self.txed_pkts += 1;
        self.txed_bytes += wire;
        debug_assert!(self.queued_bytes >= wire, "in-flight accounting underflow");
        self.queued_bytes -= wire;
        (pkt, wire)
    }

    /// Admin-down drain: take the next queued packet in priority order and
    /// release its `wire` bytes. The packet being serialized is not queued
    /// and finishes normally.
    pub(crate) fn drain_next(&mut self) -> Option<(Packet, u64)> {
        if self.occupied == 0 {
            return None;
        }
        let pkt = self.pop(self.occupied.trailing_zeros() as usize)?;
        let wire = pkt.wire_size();
        self.queued_bytes -= wire;
        Some((pkt, wire))
    }

    /// A PFC frame for class `q` takes effect. Returns the length of the
    /// pause interval a resume just closed.
    pub(crate) fn set_paused(&mut self, q: usize, pause: bool, now: SimTime) -> Option<u64> {
        let was = self.paused[q];
        // Pause/resume frames strictly alternate per (link, priority): the
        // downstream switch's `pause_sent` bookkeeping sends a resume only
        // while a pause is outstanding and vice versa.
        debug_assert_ne!(was, pause, "unpaired PFC frame for class {q}");
        self.paused[q] = pause;
        if pause {
            self.paused_since[q] = now;
            None
        } else {
            was.then(|| now.as_ns().saturating_sub(self.paused_since[q].as_ns()))
        }
    }

    /// The packet being serialized, if any.
    pub(crate) fn current(&self) -> Option<&Packet> {
        self.current.as_ref()
    }

    /// The packets queued in class `q`, head first.
    pub(crate) fn queued(&self, q: usize) -> impl Iterator<Item = &Packet> {
        self.queues[q].iter()
    }

    /// Every packet this egress holds (serializing, then queued), for the
    /// memo fast-forward to rebase; the caller must not change a packet's
    /// class.
    pub(crate) fn packets_mut(&mut self) -> impl Iterator<Item = &mut Packet> {
        self.current
            .iter_mut()
            .chain(self.queues.iter_mut().flatten())
    }
}

/// PFC budget of one switch ingress port: buffered bytes per priority and
/// whether a PAUSE is outstanding for it.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub(crate) struct PortBudget {
    pub(crate) usage: [u64; NPRIO],
    pub(crate) pause_sent: [bool; NPRIO],
}

/// PFC ingress accounting for every switch port in the fabric. An ingress
/// port is the far end of exactly one directed link, so the table is keyed
/// by that link: charge and release go from a packet's `ingress` straight
/// to its budget, with no switch or port lookup in between. (Entries of
/// host-bound links stay zero — hosts do not send PAUSE.)
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct PfcIngress {
    ports: Vec<PortBudget>,
}

impl PfcIngress {
    pub(crate) fn new(n_links: usize) -> Self {
        PfcIngress {
            ports: vec![PortBudget::default(); n_links],
        }
    }

    /// The budget of the port `in_link` ends at.
    pub(crate) fn port(&self, in_link: LinkId) -> &PortBudget {
        &self.ports[in_link.idx()]
    }

    /// A packet that came in over `in_link` was buffered. True when that
    /// crossed XOFF: the caller sends a PAUSE upstream.
    #[inline]
    pub(crate) fn charge(&mut self, in_link: LinkId, q: usize, wire: u64, xoff: u64) -> bool {
        let p = &mut self.ports[in_link.idx()];
        p.usage[q] += wire;
        let pause = p.usage[q] >= xoff && !p.pause_sent[q];
        if pause {
            p.pause_sent[q] = true;
        }
        pause
    }

    /// The packet left the buffer (transmitted or dropped). True when a
    /// PAUSE was outstanding and usage fell to XON: the caller sends a
    /// RESUME upstream.
    #[inline]
    pub(crate) fn release(&mut self, in_link: LinkId, q: usize, wire: u64, xon: u64) -> bool {
        let p = &mut self.ports[in_link.idx()];
        debug_assert!(p.usage[q] >= wire, "pfc accounting underflow");
        p.usage[q] -= wire;
        let resume = p.pause_sent[q] && p.usage[q] <= xon;
        if resume {
            p.pause_sent[q] = false;
        }
        resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;
    use crate::packet::{PacketKind, Priority};

    fn pkt(seq: u32, prio: Priority) -> Packet {
        Packet {
            kind: PacketKind::Data { flow: 0, seq },
            src: HostId(0),
            dst: HostId(1),
            size: 1000 + seq,
            prio,
            tag: None,
            src_leaf: 0,
            ingress: None,
            ce: false,
        }
    }

    fn seq_of(p: &Packet) -> u32 {
        match p.kind {
            PacketKind::Data { seq, .. } => seq,
            PacketKind::Ack { .. } => unreachable!("tests queue data only"),
        }
    }

    /// Everything a later decision can read off an egress.
    fn observable(l: &LinkState) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {}",
            l.txing,
            l.current(),
            (0..NPRIO)
                .map(|q| l.queued(q).collect())
                .collect::<Vec<Vec<_>>>(),
            l.queued_bytes,
            l.sample(),
            l.queued_pkts()
        )
    }

    /// The queued route as `try_start_tx` walks it on a switch egress.
    fn queue_then_start(l: &mut LinkState, p: Packet) {
        l.charge(p.wire_size());
        l.push(p);
        if l.txing || !l.admin_up {
            return;
        }
        if let Some(head) = l.pop_unpaused() {
            l.start(head);
        }
    }

    #[test]
    fn direct_start_leaves_the_state_the_queued_route_leaves() {
        for prio in [Priority::CONTROL, Priority::MEASURED, Priority::BACKGROUND] {
            // Other classes paused: irrelevant to an empty egress.
            for other_paused in [false, true] {
                let mk = || {
                    let mut l = LinkState::new();
                    for q in 0..NPRIO {
                        if q != prio.idx() && other_paused {
                            l.set_paused(q, true, SimTime::from_ns(5));
                        }
                    }
                    l
                };
                let (mut fast, mut slow) = (mk(), mk());
                assert!(fast.uncontended(prio.idx()));
                let p = pkt(1, prio);
                fast.charge(p.wire_size());
                fast.start(p);
                queue_then_start(&mut slow, p);
                assert_eq!(observable(&fast), observable(&slow));
                assert_eq!((fast.queued_pkts(), slow.queued_pkts()), (0, 0));
                let (a, b) = (fast.finish(), slow.finish());
                assert_eq!((seq_of(&a.0), a.1), (seq_of(&b.0), b.1));
                assert_eq!(observable(&fast), observable(&slow));
                assert_eq!(fast.queued_bytes, 0);
            }
        }
    }

    #[test]
    fn anything_in_the_way_rules_the_direct_route_out() {
        let q = Priority::MEASURED.idx();
        let mut l = LinkState::new();
        assert!(l.uncontended(q));
        l.admin_up = false;
        assert!(!l.uncontended(q));
        l.admin_up = true;
        l.set_paused(q, true, SimTime::ZERO);
        assert!(!l.uncontended(q), "own class paused");
        assert!(l.uncontended(Priority::CONTROL.idx()), "other class is not");
        l.set_paused(q, false, SimTime::from_ns(9));
        // A lower class queued behind a pause still occupies the egress:
        // the walk would reach it first if it were a higher class, so any
        // occupancy sends the packet down the queued route.
        l.push(pkt(0, Priority::BACKGROUND));
        assert!(!l.uncontended(q));
        assert_eq!(
            l.pop(Priority::BACKGROUND.idx()).map(|p| seq_of(&p)),
            Some(0)
        );
        assert!(l.uncontended(q));
        l.start(pkt(1, Priority::MEASURED));
        assert!(!l.uncontended(q), "serializing");
    }

    #[test]
    fn mask_follows_the_queues_through_push_pop_and_drain() {
        let mut l = LinkState::new();
        let order = [
            Priority::BACKGROUND,
            Priority::CONTROL,
            Priority::BACKGROUND,
            Priority::MEASURED,
            Priority::CONTROL,
        ];
        for (i, &prio) in order.iter().enumerate() {
            let p = pkt(i as u32, prio);
            l.charge(p.wire_size());
            l.push(p);
        }
        assert_eq!(l.queued_pkts(), 5);
        assert_eq!(l.sample().queued_pkts, 5);
        assert_eq!(l.pop(Priority::MEASURED.idx()).map(|p| seq_of(&p)), Some(3));
        assert_eq!(l.pop(Priority::MEASURED.idx()).map(|p| seq_of(&p)), None);
        assert_ne!(l.queued_pkts(), 0);
        // Drain: strict priority, FIFO inside a class, bytes released.
        let drained: Vec<u32> = std::iter::from_fn(|| l.drain_next())
            .map(|(p, wire)| {
                assert_eq!(wire, p.wire_size());
                seq_of(&p)
            })
            .collect();
        assert_eq!(drained, vec![1, 4, 0, 2]);
        assert_eq!(l.queued_pkts(), 0);
        // The MEASURED packet popped above was never finished.
        assert_eq!(l.queued_bytes, pkt(3, Priority::MEASURED).wire_size());
        assert_eq!(l.drain_next().map(|(p, _)| seq_of(&p)), None);
    }

    #[test]
    fn pause_intervals_are_measured_from_the_pause_frame() {
        let mut l = LinkState::new();
        assert_eq!(l.set_paused(1, true, SimTime::from_ns(100)), None);
        assert_eq!(l.sample().paused_mask, 0b010);
        assert_eq!(l.set_paused(1, false, SimTime::from_ns(350)), Some(250));
        assert_eq!(l.sample().paused_mask, 0);
    }

    #[test]
    fn pfc_budget_pauses_at_xoff_and_resumes_at_xon_once_each() {
        let (xoff, xon) = (3_000, 1_000);
        let (a, b) = (LinkId(1), LinkId(0));
        let mut p = PfcIngress::new(2);
        assert!(!p.charge(a, 0, 1_500, xoff));
        assert!(p.charge(a, 0, 1_500, xoff), "crossed XOFF");
        assert!(!p.charge(a, 0, 1_500, xoff), "PAUSE already outstanding");
        assert!(!p.charge(b, 0, 1_500, xoff), "ports are independent");
        assert!(!p.charge(a, 1, 1_500, xoff), "and so are classes");
        assert_eq!(p.port(a).usage, [4_500, 1_500, 0]);
        assert_eq!(p.port(a).pause_sent, [true, false, false]);
        assert!(!p.release(a, 0, 1_500, xon));
        assert!(!p.release(a, 0, 1_500, xon), "1 500 B still above XON");
        assert!(p.release(a, 0, 1_500, xon), "empty: RESUME");
        assert!(!p.release(b, 0, 1_500, xon), "never paused, never resumed");
        assert!(!p.release(a, 1, 1_500, xon));
        assert_eq!(p, PfcIngress::new(2));
    }
}
