//! PRIME-style multi-part pseudo-random entropy spraying.
//!
//! PRIME (Sobhani et al.) composes a packet's path entropy from multiple
//! parts: a *deterministic per-flow base* (so a flow's packets stay
//! spread over a stable, reproducible port set) and a *pseudo-random
//! per-packet part* (so consecutive packets of one flow still spray).
//! When a flow observes a congestion signal, the whole entropy is
//! recomputed — modelled here as an `epoch` counter mixed into both
//! parts and bumped on every ECN echo or timeout, which re-randomizes
//! the path mapping away from the congested region.
//!
//! The flow identity is the `(src, dst)` host pair, not the trial-global
//! flow id: collective workloads repeat the same pair transfers every
//! iteration while flow ids only grow, so pair-keyed hashing makes the
//! healthy-state port volumes identical iteration over iteration —
//! temporal symmetry by construction. Epochs are likewise per pair, so a
//! congestion-triggered remap persists across the pair's future flows.
//!
//! Both parts are pure hashes of `(src, dst, seq, epoch)`, so with no
//! congestion signal the backend is a deterministic function of the
//! packet alone: no RNG draws, no cursor movement, and a clean memo
//! residual. Once an epoch has been bumped the sprayer carries
//! feedback-fed state; [`super::Sprayer::memo_residual`] then refuses
//! with an explicit reason so the temporal-symmetry memo falls back to
//! live simulation instead of fingerprinting unsoundly.

use super::{SprayCtx, SprayEcho};
use crate::rng::splitmix64;
use std::collections::HashMap;

/// Per-pair base-entropy salt.
const PRIME_FLOW_SALT: u64 = 0x5052_494d_4500_0001;
/// Per-packet part salt.
const PRIME_PKT_SALT: u64 = 0x5052_494d_4500_0002;

/// Pack a `(src, dst)` host pair into the hash key.
fn pair_key(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// Multi-part entropy backend. See the module docs.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PrimeSprayer {
    /// Per-pair entropy epoch, present only for pairs that saw a
    /// congestion signal. Lookup-only on the pick path (iteration order
    /// never observed), so the std `HashMap`'s randomized ordering cannot
    /// leak into results.
    epochs: HashMap<u64, u32>,
}

impl PrimeSprayer {
    pub(super) fn pick(&self, ctx: &SprayCtx<'_>) -> usize {
        let pair = pair_key(ctx.src, ctx.dst);
        let epoch = self.epochs.get(&pair).copied().unwrap_or(0) as u64;
        // Base part: stable per (pair, epoch).
        let base = splitmix64(splitmix64(pair ^ PRIME_FLOW_SALT) ^ epoch);
        // Per-packet part: varies with the segment index.
        let pkt = splitmix64(base ^ ctx.seq as u64 ^ PRIME_PKT_SALT);
        // Integrated multi-part entropy → candidate index.
        ((base ^ pkt.rotate_left(17)) % ctx.cands.len() as u64) as usize
    }

    pub(super) fn on_feedback(&mut self, pair: (u32, u32), echo: SprayEcho) {
        // Congestion signal ⇒ recompute the pair's entropy (bump epoch).
        if matches!(echo, SprayEcho::Ecn | SprayEcho::Timeout) {
            *self.epochs.entry(pair_key(pair.0, pair.1)).or_insert(0) += 1;
        }
    }

    /// Some pair saw a congestion signal: the feedback-fed epochs no
    /// fingerprint covers.
    pub(super) fn congested(&self) -> bool {
        !self.epochs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;
    use crate::spray::Sprayer;

    fn ctx(src: u32, dst: u32, seq: u32, cands: &[LinkId]) -> SprayCtx<'_> {
        SprayCtx {
            flow: 1,
            src,
            dst,
            seq,
            data: true,
            cands,
            loads: &[],
            slots: &[],
        }
    }

    /// Current entropy epoch of the `(src, dst)` pair (0 until a
    /// congestion signal).
    fn epoch(s: &PrimeSprayer, src: u32, dst: u32) -> u32 {
        s.epochs.get(&pair_key(src, dst)).copied().unwrap_or(0)
    }

    #[test]
    fn per_packet_part_sprays_within_a_flow() {
        let cands: Vec<LinkId> = (0..8).map(LinkId).collect();
        let s = PrimeSprayer::default();
        let mut seen = [false; 8];
        for seq in 0..256 {
            seen[s.pick(&ctx(0, 3, seq, &cands))] = true;
        }
        assert!(seen.iter().all(|&x| x), "one flow must still spray");
    }

    #[test]
    fn picks_are_a_pure_function_of_pair_seq_epoch() {
        let cands: Vec<LinkId> = (0..4).map(LinkId).collect();
        let (a, b) = (PrimeSprayer::default(), PrimeSprayer::default());
        for seq in 0..64 {
            assert_eq!(
                a.pick(&ctx(2, 5, seq, &cands)),
                b.pick(&ctx(2, 5, seq, &cands))
            );
        }
    }

    #[test]
    fn picks_ignore_the_growing_flow_id() {
        // Iteration-stability hinge: the same host pair maps identically
        // no matter which trial-global flow carries the transfer.
        let cands: Vec<LinkId> = (0..4).map(LinkId).collect();
        let s = PrimeSprayer::default();
        let mut a = ctx(2, 5, 7, &cands);
        let first = s.pick(&a);
        for flow in 1..32 {
            a.flow = flow * 1000;
            assert_eq!(s.pick(&a), first);
        }
    }

    #[test]
    fn congestion_signal_recomputes_the_mapping() {
        let cands: Vec<LinkId> = (0..8).map(LinkId).collect();
        let mut s = PrimeSprayer::default();
        let before: Vec<usize> = (0..32).map(|seq| s.pick(&ctx(0, 1, seq, &cands))).collect();
        assert!(!s.congested());
        s.on_feedback((0, 1), SprayEcho::Ecn);
        assert_eq!(epoch(&s, 0, 1), 1);
        let after: Vec<usize> = (0..32).map(|seq| s.pick(&ctx(0, 1, seq, &cands))).collect();
        assert_ne!(before, after, "epoch bump must re-randomize the path set");
        // Other pairs are untouched.
        assert_eq!(epoch(&s, 0, 2), 0);
        // Feedback-fed state refuses the memo fingerprint with a reason.
        let s = Sprayer::Prime(s);
        assert_eq!(s.memo_residual(), Err("prime-congestion-epochs"));
    }

    #[test]
    fn clean_acks_do_not_bump_epochs() {
        let mut s = PrimeSprayer::default();
        s.on_feedback((0, 1), SprayEcho::Ack);
        assert_eq!(epoch(&s, 0, 1), 0);
        assert!(!s.congested());
        s.on_feedback((0, 1), SprayEcho::Timeout);
        assert_eq!(epoch(&s, 0, 1), 1);
    }
}
