//! REPS: recycled entropy packet spraying, with an optional failover mode.
//!
//! REPS (Bonato et al.) observes that a packet's path entropy is a probe:
//! if the packet came back ACKed and unmarked, the path it hashed to is
//! currently good. The sender therefore *recycles* entropies of cleanly
//! ACKed packets and prefers them for new packets; entropies whose
//! packets were CE-marked or timed out are evicted. Under a silent fault
//! the faulty path's entropies never come back clean, so the pool
//! self-purges — load drains away from the broken cable without any
//! control-plane action.
//!
//! In this fabric an entropy pins exactly one uplink slot (one path per
//! slot in the two-level Clos, one next-hop choice per stage in the
//! three-level), so the implementation keeps the recycled pool *per
//! slot*: a rotation cursor visits candidate slots round-robin and each
//! visit either reuses a proven entropy from that slot's bucket or mints
//! a fresh one. The rotation keeps the healthy-state load stratified —
//! per-iteration port counts stay flat enough for the 1% temporal-
//! symmetry detector, where a flat FIFO over random entropies would
//! freeze its initial sampling skew into a permanent imbalance.
//!
//! Self-purge emerges from the bucket policy: a slot whose packets time
//! out accumulates *suspicion* and its bucket stays empty, so rotation
//! visits probe it freshly only on an exponential backoff schedule
//! (1-in-2^suspicion visits). A clean ACK resets the slot. The failover
//! mode sharpens this into a hard quarantine: once a slot crosses the
//! suspicion threshold it is skipped outright and its remaining cached
//! entropies are purged.
//!
//! All state is per-leaf and fed by the deterministic echo stream, so the
//! backend is byte-deterministic. The pool is fed by ACK arrival order,
//! though, so the backend refuses the temporal-symmetry memo
//! ([`Sprayer::memo_residual`]).

use super::{SprayCtx, SprayEcho, Sprayer};
use crate::packet::FlowId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};

/// Proven-entropy bucket capacity per uplink slot.
const BUCKET_CAP: usize = 256;
/// In-flight table safety cap: entries for packets that never produce an
/// echo (e.g. flows that fail outright) would otherwise accumulate.
/// Clearing wholesale is deterministic and only forgets recycling hints.
const INFLIGHT_CAP: usize = 1 << 16;
/// Consecutive timeouts on one slot before failover quarantines it.
const QUARANTINE_AFTER: u32 = 3;
/// Cap on the probe-backoff exponent: a suspect slot is probed at worst
/// once per `2^PROBE_BACKOFF_CAP` rotation visits.
const PROBE_BACKOFF_CAP: u32 = 6;

/// Recycled-entropy backend. See the module docs.
#[derive(Clone, Debug)]
pub struct RepsSprayer {
    failover: bool,
    /// Per-slot FIFOs of entropies whose packets were ACKed clean.
    buckets: Vec<VecDeque<u64>>,
    /// Entropy + uplink slot of each data packet awaiting its echo.
    /// Lookup/remove only — iteration order is never observed.
    inflight: HashMap<(FlowId, u32), (u64, u32)>,
    /// Per-uplink-slot suspicion score: consecutive timeouts, reset by a
    /// clean ACK.
    suspicion: Vec<u32>,
    /// Rotation visits skipped per slot since its last fresh probe.
    skipped: Vec<u32>,
    /// Data-path rotation cursor.
    cursor: u64,
    /// Reverse-path (ACK) rotation cursor, separate so ACK bursts do not
    /// skew the data stratification.
    ack_cursor: u64,
    /// Data picks served by a fresh draw.
    pub fresh: u64,
    /// Entropies evicted (ECN/timeout echoes + quarantine purges).
    pub evicted: u64,
}

impl RepsSprayer {
    /// Build the backend for a switch with `n_slots` uplink slots;
    /// `failover` enables the hard-quarantine layer.
    pub fn new(n_slots: usize, failover: bool) -> Self {
        RepsSprayer {
            failover,
            buckets: vec![VecDeque::new(); n_slots],
            inflight: HashMap::new(),
            suspicion: vec![0; n_slots],
            skipped: vec![0; n_slots],
            cursor: 0,
            ack_cursor: 0,
            fresh: 0,
            evicted: 0,
        }
    }

    /// True when `slot` has crossed the suspicion threshold.
    fn suspect(&self, slot: u32) -> bool {
        self.suspicion
            .get(slot as usize)
            .is_some_and(|&s| s >= QUARANTINE_AFTER)
    }

    /// True when failover mode has quarantined `slot`.
    pub fn quarantined(&self, slot: u32) -> bool {
        self.failover && self.suspect(slot)
    }

    /// The stable slot of candidate `idx` (identity fallback when the
    /// caller did not provide slots, e.g. unit tests).
    fn slot_of(ctx: &SprayCtx<'_>, idx: usize) -> u32 {
        ctx.slots.get(idx).copied().unwrap_or(idx as u32)
    }
}

impl Sprayer for RepsSprayer {
    fn pick(&mut self, ctx: &SprayCtx<'_>, _cursor: &mut u64, rng: &mut SmallRng) -> usize {
        let n = ctx.cands.len();
        if !ctx.data {
            // ACKs carry no echo identity, so they cannot feed the pool;
            // rotate them across slots, skipping suspects (a lost ACK
            // costs the *peer* an RTO on a path it cannot see).
            for _ in 0..n {
                let idx = (self.ack_cursor % n as u64) as usize;
                self.ack_cursor += 1;
                if !self.suspect(Self::slot_of(ctx, idx)) {
                    return idx;
                }
            }
            let idx = (self.ack_cursor % n as u64) as usize;
            self.ack_cursor += 1;
            return idx;
        }

        let mut chosen = None;
        for _ in 0..n {
            let idx = (self.cursor % n as u64) as usize;
            self.cursor += 1;
            let slot = Self::slot_of(ctx, idx) as usize;
            if self.quarantined(slot as u32) {
                // Hard quarantine: purge whatever the slot still caches.
                if let Some(b) = self.buckets.get_mut(slot) {
                    self.evicted += b.len() as u64;
                    b.clear();
                }
                continue;
            }
            if let Some(e) = self.buckets.get_mut(slot).and_then(|b| b.pop_front()) {
                chosen = Some((e, idx, slot as u32));
                break;
            }
            let s = self.suspicion.get(slot).copied().unwrap_or(0);
            if s > 0 {
                // Unproven *and* suspect: probe on exponential backoff.
                let skip = &mut self.skipped[slot];
                *skip += 1;
                if *skip < (1u32 << s.min(PROBE_BACKOFF_CAP)) {
                    continue;
                }
                *skip = 0;
            }
            self.fresh += 1;
            chosen = Some((rng.gen::<u64>(), idx, slot as u32));
            break;
        }
        let (e, idx, slot) = chosen.unwrap_or_else(|| {
            // Every slot quarantined or throttled — the pick must stay
            // total, so the rotation proceeds regardless.
            let idx = (self.cursor % n as u64) as usize;
            self.cursor += 1;
            self.fresh += 1;
            (rng.gen::<u64>(), idx, Self::slot_of(ctx, idx))
        });
        if self.inflight.len() >= INFLIGHT_CAP {
            self.inflight.clear();
        }
        self.inflight.insert((ctx.flow, ctx.seq), (e, slot));
        idx
    }

    fn on_feedback(&mut self, flow: FlowId, _pair: (u32, u32), seq: u32, echo: SprayEcho) {
        let Some((entropy, slot)) = self.inflight.remove(&(flow, seq)) else {
            return; // single-candidate pick, cap purge, or stale echo
        };
        let slot = slot as usize;
        match echo {
            SprayEcho::Ack => {
                if let Some(s) = self.suspicion.get_mut(slot) {
                    *s = 0;
                }
                if let Some(k) = self.skipped.get_mut(slot) {
                    *k = 0;
                }
                if let Some(b) = self.buckets.get_mut(slot) {
                    if b.len() < BUCKET_CAP {
                        b.push_back(entropy);
                    }
                }
            }
            SprayEcho::Ecn => {
                // Congested path: drop the entropy but keep the slot in
                // good standing (congestion is not failure).
                self.evicted += 1;
            }
            SprayEcho::Timeout => {
                self.evicted += 1;
                if let Some(s) = self.suspicion.get_mut(slot) {
                    *s = s.saturating_add(1);
                }
            }
        }
    }

    fn memo_residual(&self) -> Result<u64, &'static str> {
        Err("reps-entropy-cache")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use rand::SeedableRng;

    /// Cached (recyclable) entropies across all slots.
    fn cache_len(s: &RepsSprayer) -> usize {
        s.buckets.iter().map(|b| b.len()).sum()
    }

    fn ctx<'a>(flow: u32, seq: u32, cands: &'a [LinkId], slots: &'a [u32]) -> SprayCtx<'a> {
        SprayCtx {
            flow,
            src: 0,
            dst: 1,
            seq,
            data: true,
            cands,
            loads: &[],
            slots,
        }
    }

    fn cands(n: u32) -> (Vec<LinkId>, Vec<u32>) {
        ((0..n).map(LinkId).collect(), (0..n).collect())
    }

    #[test]
    fn ack_recycles_the_entropy() {
        let (c, sl) = cands(1);
        let mut s = RepsSprayer::new(1, false);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cur = 0;
        let idx = s.pick(&ctx(1, 0, &c, &sl), &mut cur, &mut rng);
        assert_eq!(s.inflight.len(), 1);
        assert_eq!(s.fresh, 1);
        s.on_feedback(1, (0, 0), 0, SprayEcho::Ack);
        assert_eq!(cache_len(&s), 1, "clean ACK must recycle the entropy");
        assert_eq!(s.inflight.len(), 0);
        // The recycled entropy reproduces the same pick.
        let idx2 = s.pick(&ctx(1, 1, &c, &sl), &mut cur, &mut rng);
        assert_eq!(idx, idx2, "recycled entropy must replay the proven path");
        assert_eq!(s.fresh, 1, "served from the cache, not a fresh draw");
        assert_eq!(cache_len(&s), 0);
    }

    #[test]
    fn fresh_picks_are_stratified_round_robin() {
        let (c, sl) = cands(4);
        let mut s = RepsSprayer::new(4, false);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut cur = 0;
        let mut counts = [0u32; 4];
        for seq in 0..32u32 {
            counts[s.pick(&ctx(1, seq, &c, &sl), &mut cur, &mut rng)] += 1;
        }
        assert_eq!(
            counts,
            [8, 8, 8, 8],
            "healthy-state picks must stay stratified (the 1% detector \
             depends on it)"
        );
    }

    #[test]
    fn ecn_evicts_instead_of_recycling() {
        let (c, sl) = cands(4);
        let mut s = RepsSprayer::new(4, false);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cur = 0;
        s.pick(&ctx(1, 0, &c, &sl), &mut cur, &mut rng);
        s.on_feedback(1, (0, 0), 0, SprayEcho::Ecn);
        assert_eq!(cache_len(&s), 0, "CE-marked entropy must not be recycled");
        assert_eq!(s.evicted, 1);
        assert_eq!(s.inflight.len(), 0);
    }

    #[test]
    fn timeout_evicts_and_scores_suspicion() {
        let (c, sl) = cands(4);
        let mut s = RepsSprayer::new(4, true);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cur = 0;
        // Drive timeouts until some slot crosses the quarantine threshold.
        let mut quarantined = None;
        for seq in 0..64u32 {
            let idx = s.pick(&ctx(1, seq, &c, &sl), &mut cur, &mut rng);
            s.on_feedback(1, (0, 0), seq, SprayEcho::Timeout);
            if s.quarantined(idx as u32) {
                quarantined = Some(idx as u32);
                break;
            }
        }
        let bad = quarantined.expect("repeated timeouts must quarantine a slot");
        assert!(s.evicted > 0);
        // Quarantined slots are avoided by subsequent picks.
        for seq in 100..200u32 {
            let idx = s.pick(&ctx(2, seq, &c, &sl), &mut cur, &mut rng);
            assert_ne!(idx as u32, bad, "failover must steer off the bad slot");
            s.on_feedback(2, (0, 0), seq, SprayEcho::Ack);
        }
        // A clean ACK on the slot resets its suspicion. Build one by
        // hand: feed the echo directly through an inflight entry.
        s.inflight.insert((9, 0), (42, bad));
        s.on_feedback(9, (0, 0), 0, SprayEcho::Ack);
        assert!(!s.quarantined(bad), "ACK must lift the quarantine");
    }

    #[test]
    fn quarantined_cached_entropies_are_purged_not_recycled() {
        let (c, sl) = cands(2);
        let mut s = RepsSprayer::new(2, true);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut cur = 0;
        // Recycle a batch of entropies landing on both slots.
        for seq in 0..32u32 {
            s.pick(&ctx(1, seq, &c, &sl), &mut cur, &mut rng);
            s.on_feedback(1, (0, 0), seq, SprayEcho::Ack);
        }
        assert!(cache_len(&s) > 0);
        // Quarantine slot 0 by force.
        s.suspicion[0] = QUARANTINE_AFTER;
        let evicted_before = s.evicted;
        for seq in 32..96u32 {
            let idx = s.pick(&ctx(1, seq, &c, &sl), &mut cur, &mut rng);
            assert_eq!(
                idx, 1,
                "recycled entropies crossing slot 0 must not be used"
            );
            s.on_feedback(1, (0, 0), seq, SprayEcho::Ack);
        }
        assert!(
            s.evicted > evicted_before,
            "slot-0 entropies must have been purged"
        );
        assert!(s.buckets[0].is_empty());
    }

    #[test]
    fn suspect_slot_probes_back_off_exponentially() {
        let (c, sl) = cands(2);
        // Plain mode: no hard quarantine, only probe throttling.
        let mut s = RepsSprayer::new(2, false);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut cur = 0;
        let mut seq = 0u32;
        let mut pick = |s: &mut RepsSprayer, rng: &mut SmallRng| {
            let idx = s.pick(&ctx(1, seq, &c, &sl), &mut cur, rng);
            let echo = if idx == 0 {
                SprayEcho::Timeout // slot 0 is black-holed
            } else {
                SprayEcho::Ack
            };
            s.on_feedback(1, (0, 1), seq, echo);
            seq += 1;
            idx
        };
        for _ in 0..64 {
            pick(&mut s, &mut rng);
        }
        // Once suspicion has built up, the dead slot's share collapses
        // far below its 50% rotation parity.
        let bad_share = (0..200).filter(|_| pick(&mut s, &mut rng) == 0).count();
        assert!(
            bad_share < 20,
            "self-purge failed: {bad_share}/200 picks still hit the dead slot"
        );
        assert!(!s.quarantined(0), "plain mode never hard-quarantines");
    }

    #[test]
    fn ack_picks_rotate_and_skip_suspect_slots() {
        let (c, sl) = cands(4);
        let mut s = RepsSprayer::new(4, false);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut cur = 0;
        let ack_ctx = |seq: u32| SprayCtx {
            flow: 1,
            src: 0,
            dst: 1,
            seq,
            data: false,
            cands: &c,
            loads: &[],
            slots: &sl,
        };
        let mut counts = [0u32; 4];
        for seq in 0..8u32 {
            counts[s.pick(&ack_ctx(seq), &mut cur, &mut rng)] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2], "reverse path must rotate too");
        assert_eq!(s.inflight.len(), 0, "ACK picks must not enter the pool");
        s.suspicion[2] = QUARANTINE_AFTER;
        for seq in 8..32u32 {
            assert_ne!(
                s.pick(&ack_ctx(seq), &mut cur, &mut rng),
                2,
                "ACKs must avoid suspect slots"
            );
        }
    }

    #[test]
    fn cache_and_inflight_stay_bounded() {
        let (c, sl) = cands(4);
        let mut s = RepsSprayer::new(4, false);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut cur = 0;
        for seq in 0..(BUCKET_CAP as u32 * 8) {
            s.pick(&ctx(1, seq, &c, &sl), &mut cur, &mut rng);
            s.on_feedback(1, (0, 0), seq, SprayEcho::Ack);
            // Immediately re-pick so the pool refills.
            s.pick(&ctx(2, seq, &c, &sl), &mut cur, &mut rng);
        }
        assert!(cache_len(&s) <= 4 * BUCKET_CAP);
        assert!(s.buckets.iter().all(|b| b.len() <= BUCKET_CAP));
        assert!(s.inflight.len() <= INFLIGHT_CAP);
    }

    #[test]
    fn memo_residual_refuses() {
        let s = RepsSprayer::new(4, false);
        assert_eq!(s.memo_residual(), Err("reps-entropy-cache"));
    }
}
