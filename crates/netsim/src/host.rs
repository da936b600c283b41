//! The host layer: each NIC's round robin over the flows it still has fresh
//! segments of, and the half of the transmitter only a host has.
//!
//! State and methods, like `crate::switch`: the simulator decides *when* a
//! host uplink looks for work; this module decides *which* packet leaves.
//! A switch egress sends only what is queued; a NIC also pulls never-sent
//! segments, class by class, round-robin over its flows. What a pull reads
//! and writes of the rest of the world comes in through a borrowed [`Nic`].

use crate::config::SimConfig;
use crate::egress::LinkState;
use crate::ids::{HostId, LinkId};
use crate::packet::{FlowId, Packet, NPRIO};
use crate::pipeline::Agenda;
use crate::stats::Stats;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::transport::FlowTable;
use std::collections::VecDeque;

/// Every host NIC's flows with fresh segments left.
pub(crate) struct Hosts {
    /// Per host, drained round-robin. A flow that ran out (or failed) stays
    /// until the next pull passes it — one that failed, even once the flow
    /// table has retired it.
    pub(crate) active: Vec<VecDeque<FlowId>>,
}

/// What a NIC reads and writes of the rest of the simulator.
pub(crate) struct Nic<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) cfg: &'a SimConfig,
    pub(crate) now: SimTime,
    pub(crate) links: &'a mut [LinkState],
    pub(crate) flows: &'a mut FlowTable,
    pub(crate) agenda: &'a mut Agenda,
    pub(crate) stats: &'a mut Stats,
    /// Test hook: arm a first-attempt timer for every segment, i.e. run
    /// the transport as it was before the per-flow head-of-line timer.
    #[cfg(test)]
    pub(crate) per_segment_rto: bool,
}

impl Hosts {
    pub(crate) fn new(n_hosts: usize) -> Hosts {
        Hosts {
            active: vec![VecDeque::new(); n_hosts],
        }
    }

    /// A flow was posted at host `h`: it joins the back of the round.
    pub(crate) fn post(&mut self, h: HostId, flow: FlowId) {
        self.active[h.idx()].push_back(flow);
    }

    /// True when no fresh segment at host `h` could go ahead of a class-`q`
    /// packet handed to its uplink: `q` is the top class, or no flow has
    /// fresh segments left.
    #[inline]
    pub(crate) fn nothing_fresh_above(&self, h: HostId, q: usize) -> bool {
        q == 0 || self.active[h.idx()].is_empty()
    }

    /// What host `h`'s uplink `link` sends next, by strict priority: in
    /// each class not paused, what is queued (ACKs, retransmits), then a
    /// fresh segment. A fresh segment bypasses the queue, so it is charged
    /// here to keep the in-flight accounting symmetric; `queued_bytes` is
    /// released at `TxDone` either way.
    #[inline]
    pub(crate) fn next_packet(
        &mut self,
        nic: &mut Nic<'_>,
        h: HostId,
        link: LinkId,
    ) -> Option<Packet> {
        for q in 0..NPRIO {
            let l = &mut nic.links[link.idx()];
            if l.paused[q] {
                continue;
            }
            if let Some(pkt) = l.pop(q) {
                return Some(pkt);
            }
            if let Some(pkt) = self.next_fresh(nic, h, q) {
                let wire = pkt.size as u64 + nic.cfg.wire_overhead as u64;
                nic.links[link.idx()].charge(wire);
                return Some(pkt);
            }
        }
        None
    }

    /// Pull the next fresh (never-sent) segment at priority class `q` from
    /// host `h`'s active flows, round-robin. Takes the segment's place in
    /// the timer order and arms it if the flow has no timer armed.
    #[inline]
    pub(crate) fn next_fresh(&mut self, nic: &mut Nic<'_>, h: HostId, q: usize) -> Option<Packet> {
        let active = &mut self.active[h.idx()];
        for _ in 0..active.len() {
            let fid = active.pop_front().expect("len checked");
            let Some(f) = nic.flows.get_mut(fid).filter(|f| f.has_fresh()) else {
                // Exhausted, failed or retired: drop from the active set.
                continue;
            };
            if f.prio.idx() != q {
                active.push_back(fid);
                continue;
            }
            let pkt = f.send_fresh(fid, nic.topo.leaf_of(h) as u16);
            if f.has_fresh() {
                active.push_back(fid);
            }
            nic.stats.data_pkts_sent += 1;
            // The segment names its flow until it is delivered or dropped.
            f.refs += 1;
            #[cfg(test)]
            if nic.per_segment_rto {
                f.refs += 1;
                let (flow, seq, attempt) = (fid, f.next_seq - 1, 0);
                let rto = crate::engine::EventKind::Rto { flow, seq, attempt };
                nic.agenda.after(nic.now, nic.cfg.rto, rto);
                return Some(pkt);
            }
            let slot = nic.agenda.reserve_after(nic.now, nic.cfg.rto);
            if let Some(rto) = f.log_sent(fid, slot) {
                f.refs += 1;
                nic.agenda.arm_reserved(slot, rto);
            }
            return Some(pkt);
        }
        None
    }

    /// Temporal-symmetry fast-forward: every queued flow id moves `dflow`
    /// on (exhausted flows awaiting lazy removal too).
    pub(crate) fn memo_shift(&mut self, dflow: u32) {
        self.active.iter_mut().flatten().for_each(|f| *f += dflow);
    }

    /// Every host's round, each flow id through `norm` (memo fingerprint).
    pub(crate) fn memo_norm(&self, mut norm: impl FnMut(FlowId) -> u32) -> Vec<Vec<u32>> {
        let round = |a: &VecDeque<FlowId>| a.iter().map(|&f| norm(f)).collect();
        self.active.iter().map(round).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_posted_flow_joins_the_back_of_its_hosts_round() {
        let mut hosts = Hosts::new(3);
        for (h, flow) in [(1, 7), (0, 2), (1, 4), (1, 9)] {
            hosts.post(HostId(h), flow);
        }
        let rounds: Vec<Vec<FlowId>> = hosts
            .active
            .iter()
            .map(|a| a.iter().copied().collect())
            .collect();
        assert_eq!(rounds, vec![vec![2], vec![7, 4, 9], vec![]]);
    }

    #[test]
    fn nothing_fresh_above_the_top_class_or_an_idle_host() {
        let mut hosts = Hosts::new(2);
        hosts.post(HostId(0), 3);
        // The top class goes first whatever is waiting.
        assert!(hosts.nothing_fresh_above(HostId(0), 0));
        // A lower class waits behind a host with fresh segments left...
        assert!(!hosts.nothing_fresh_above(HostId(0), 1));
        assert!(!hosts.nothing_fresh_above(HostId(0), NPRIO - 1));
        // ...but not behind an idle one.
        assert!(hosts.nothing_fresh_above(HostId(1), NPRIO - 1));
    }

    #[test]
    fn memo_shift_and_norm_cover_every_queued_flow() {
        let mut hosts = Hosts::new(3);
        for (h, flow) in [(0, 10), (2, 11), (0, 12)] {
            hosts.post(HostId(h), flow);
        }
        hosts.memo_shift(100);
        let norm = hosts.memo_norm(|f| f - 100);
        assert_eq!(norm, vec![vec![10, 12], vec![], vec![11]]);
        let raw = hosts.memo_norm(|f| f);
        assert_eq!(raw, vec![vec![110, 112], vec![], vec![111]]);
    }
}
