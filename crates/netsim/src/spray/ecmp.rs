//! ECMP: static flow hashing (the no-spray baseline).
//!
//! Every packet between one `(src, dst)` host pair hashes to the same
//! candidate index, so a pair pins one path — the classic equal-cost
//! multi-path behaviour APS designs measure against. Real ECMP hashes
//! the 5-tuple; our collective workloads run one transfer at a time
//! between any two hosts, so the pair *is* the 5-tuple, and — unlike the
//! trial-global flow id, which only grows — it recurs identically every
//! iteration. That keeps per-port volumes temporally symmetric on a
//! healthy fabric, which is what lets FlowPulse's detector run over an
//! ECMP fabric at all.
//!
//! Stateless and purely functional in `(src, dst, n_candidates)`; it
//! never touches the RNG or the rotation cursor, so it is trivially
//! byte-identical across thread counts, and its memo residual is always
//! clean.

use super::SprayCtx;
use crate::rng::splitmix64;

/// Pair-hash salt (arbitrary constant; fixed so picks are reproducible).
const ECMP_SALT: u64 = 0x4543_4d50_0000_0001;

/// The candidate the packet's host pair hashes to. See the module docs.
pub(super) fn pick(ctx: &SprayCtx<'_>) -> usize {
    let pair = (ctx.src as u64) << 32 | ctx.dst as u64;
    (splitmix64(pair ^ ECMP_SALT) % ctx.cands.len() as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LinkId;

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

    #[test]
    fn same_pair_always_same_port() {
        let cands: Vec<LinkId> = (0..8).map(LinkId).collect();
        let first = pick(&ctx(7, 3, 0, &cands));
        for seq in 1..100 {
            assert_eq!(pick(&ctx(7, 3, seq, &cands)), first);
        }
    }

    #[test]
    fn pick_ignores_the_growing_flow_id() {
        // Iteration-stability hinge: the same host pair maps identically
        // no matter which trial-global flow carries the transfer.
        let cands: Vec<LinkId> = (0..8).map(LinkId).collect();
        let mut c = ctx(2, 5, 0, &cands);
        let first = pick(&c);
        for flow in 1..64 {
            c.flow = flow * 1000;
            assert_eq!(pick(&c), first);
        }
    }

    #[test]
    fn different_pairs_spread_over_ports() {
        let cands: Vec<LinkId> = (0..8).map(LinkId).collect();
        let mut seen = [false; 8];
        for src in 0..16 {
            for dst in 0..16 {
                seen[pick(&ctx(src, dst, 0, &cands))] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "256 pairs must cover 8 ports");
    }

    #[test]
    fn pick_is_valid_for_any_candidate_count() {
        for n in 1..=16usize {
            let cands: Vec<LinkId> = (0..n as u32).map(LinkId).collect();
            for src in 0..64 {
                assert!(pick(&ctx(src, src + 1, 0, &cands)) < n);
            }
        }
    }
}
