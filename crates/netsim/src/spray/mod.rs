//! Pluggable per-packet spray engine (APS policies and beyond).
//!
//! In an APS fabric the leaf switch picks an uplink *per packet* among all
//! uplinks that can reach the destination leaf (paper §2). Historically
//! this module was a closed enum of stateless policies; it is now a
//! pluggable subsystem: every switch that sprays carries a boxed
//! [`Sprayer`] instance built by [`make_sprayer`], and the simulator's
//! uplink choice is `sprayer.pick(ctx, cursor, rng)` with an explicit
//! per-packet feedback channel ([`Sprayer::on_feedback`]) threading
//! ACK/ECN/timeout echoes from the transport back to the sprayer that
//! placed the packet.
//!
//! Classic policies (the paper's repertoire, all decided by [`choose`]):
//!
//! * [`SprayPolicy::Random`] — uniform random port (Dixit et al.).
//! * [`SprayPolicy::RoundRobin`] — cyclic, perfectly smooth.
//! * [`SprayPolicy::Adaptive`] — utilization-aware least-loaded (default).
//! * [`SprayPolicy::LeastLoaded`] — queue-depth-only, rotating tie-break.
//!
//! The engine sends Random and RoundRobin through `ClassicSprayer`, with
//! no load signal. Adaptive and
//! LeastLoaded, the rotating least-loaded pair, it picks in one fused pass
//! over its own tables (`crate::switch`), with [`choose`] as that pass's
//! test oracle; [`make_sprayer`] still builds a `ClassicSprayer` for them,
//! for callers outside the engine.
//!
//! Literature backends (the mitigation-zoo extension):
//!
//! * [`SprayPolicy::Ecmp`] — static per-flow hash ([`ecmp`]): the
//!   no-spraying baseline every APS design measures against.
//! * [`SprayPolicy::Prime`] — multi-part pseudo-random entropy
//!   ([`prime`]): a deterministic per-flow base entropy combined with a
//!   per-packet part, recomputed when the flow sees a congestion signal.
//! * [`SprayPolicy::Reps`] — recycled entropy spraying ([`reps`]): cache
//!   the entropy of ACKed packets, re-use it, evict on ECN or timeout.
//! * [`SprayPolicy::RepsFailover`] — REPS plus per-uplink suspicion
//!   scores that quarantine a path after repeated timeouts, so entropies
//!   crossing a faulty cable stop being recycled — a mitigation in its
//!   own right.
//!
//! The policy strongly affects FlowPulse's signal-to-noise ratio: adaptive
//! spraying yields near-deterministic per-port volumes, while random or
//! hash-based spraying adds noise that only large collectives average out —
//! exactly the Fig. 5(c) trade-off.

use crate::ids::LinkId;
use crate::packet::FlowId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

pub mod ecmp;
pub mod prime;
pub mod reps;

pub use ecmp::EcmpSprayer;
pub use prime::PrimeSprayer;
pub use reps::RepsSprayer;

/// Which uplink-selection policy spraying switches use.
#[derive(Copy, Clone, PartialEq, Eq, Serialize, Deserialize, Debug, Default)]
pub enum SprayPolicy {
    /// Uniform random choice among valid uplinks.
    Random,
    /// Cyclic choice (per-leaf cursor over valid uplinks).
    RoundRobin,
    /// Utilization-aware adaptive routing (the default, modelling
    /// Spectrum-X-class "least congested port" selection): the load signal
    /// is queued bytes **plus a decaying per-uplink byte counter**, so a
    /// port that recently carried fewer bytes is preferred until it catches
    /// up. This self-correction is what makes per-port volumes nearly
    /// deterministic per iteration — tight temporal symmetry — even when
    /// ACKs and jitter perturb packet interleaving.
    #[default]
    Adaptive,
    /// Queue-depth-only adaptive (DRILL-style): least queued bytes,
    /// rotating-cursor tie-break. In an underloaded fabric queues are
    /// mostly empty, so this degenerates toward round-robin with
    /// phase noise from ACK interleaving.
    LeastLoaded,
    /// Static flow hashing (no spraying): every packet between one host
    /// pair takes the same uplink — the 5-tuple hash of classic ECMP,
    /// which our collective workloads make a pure `(src, dst)` function.
    /// The baseline APS designs measure against; stateless and trivially
    /// deterministic.
    Ecmp,
    /// PRIME-style multi-part entropy: a deterministic per-flow base part
    /// combined with a pseudo-random per-packet part, both pure hashes of
    /// `(src, dst, seq)` plus a per-pair epoch that is bumped when the
    /// flow sees a congestion signal (ECN echo or timeout) —
    /// re-randomizing the pair's path set away from the congested region.
    Prime,
    /// REPS-style recycled entropy: entropies whose packets were ACKed
    /// clean are cached per leaf and re-used (they proved out a good
    /// path); ECN-marked or timed-out entropies are evicted.
    Reps,
    /// REPS with failover: additionally tracks per-uplink-slot suspicion
    /// (timeouts score, ACKs clear) and quarantines repeatedly-suspect
    /// slots, refusing to recycle — or freshly draw — entropies that cross
    /// them.
    RepsFailover,
}

impl SprayPolicy {
    /// True for the original closed-enum policies whose decisions flow
    /// through [`choose`] (and whose RNG/cursor usage is pinned by the
    /// byte-identity contract).
    fn is_classic(self) -> bool {
        matches!(
            self,
            SprayPolicy::Random
                | SprayPolicy::RoundRobin
                | SprayPolicy::Adaptive
                | SprayPolicy::LeastLoaded
        )
    }

    /// True when the backend consumes transport echoes
    /// ([`Sprayer::on_feedback`]). The simulator only pays for feedback
    /// plumbing (CE marking, ACK echo collection) when this is set, so
    /// classic policies keep their exact pre-feedback byte behaviour.
    pub fn wants_feedback(self) -> bool {
        matches!(
            self,
            SprayPolicy::Prime | SprayPolicy::Reps | SprayPolicy::RepsFailover
        )
    }

    /// Parse a policy name as used by the `FP_SPRAY` environment knob.
    pub fn parse(name: &str) -> Option<SprayPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "random" => Some(SprayPolicy::Random),
            "rr" | "round_robin" | "roundrobin" => Some(SprayPolicy::RoundRobin),
            "adaptive" => Some(SprayPolicy::Adaptive),
            "least_loaded" | "leastloaded" => Some(SprayPolicy::LeastLoaded),
            "ecmp" => Some(SprayPolicy::Ecmp),
            "prime" => Some(SprayPolicy::Prime),
            "reps" => Some(SprayPolicy::Reps),
            "reps_failover" | "repsfailover" => Some(SprayPolicy::RepsFailover),
            _ => None,
        }
    }
}

/// Transport echo delivered to the sprayer that placed a packet
/// ([`Sprayer::on_feedback`]). Echoes arrive at the *source* leaf — the
/// switch that made the spray decision — when the sender learns the
/// packet's fate.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SprayEcho {
    /// The packet was acknowledged without a congestion mark: its path
    /// proved out clean.
    Ack,
    /// The packet was acknowledged but CE-marked (it crossed a congested
    /// queue).
    Ecn,
    /// The packet's retransmission timer fired (lost, or stuck behind a
    /// fault).
    Timeout,
}

/// Per-packet context for one spray decision. Candidates are the
/// routing-valid uplinks for the packet's destination; `loads` carries the
/// load-reading policies' signal (queued bytes, plus the decayed byte
/// deficit under [`SprayPolicy::Adaptive`]) and is empty for backends that
/// do not consume it; `slots` gives each candidate's stable uplink slot
/// (virtual-spine index on leaves, core slot on 3-level aggs).
#[derive(Debug)]
pub struct SprayCtx<'a> {
    /// Flow the packet belongs to (trial-global id).
    pub flow: FlowId,
    /// Source host of the packet. Together with `dst` this is the
    /// iteration-stable flow identity: collective workloads repeat the
    /// same host pairs every iteration while trial-global flow ids only
    /// grow, so hash backends key on the pair (the 5-tuple stand-in) to
    /// keep per-port volumes temporally symmetric.
    pub src: u32,
    /// Destination host of the packet.
    pub dst: u32,
    /// Segment index for data packets; 0 for ACKs.
    pub seq: u32,
    /// True for data packets (the only ones transport echoes come back
    /// for — ACK packets are not themselves acknowledged).
    pub data: bool,
    /// Candidate uplinks (non-empty; the pick indexes into this).
    pub cands: &'a [LinkId],
    /// Load signal per candidate (load-reading policies only, else
    /// empty).
    pub loads: &'a [u64],
    /// Stable uplink slot per candidate.
    pub slots: &'a [u32],
}

/// A pluggable uplink-selection engine with per-switch state.
///
/// Determinism contract: `pick` may consult only its own state, the
/// context, the shared rotation `cursor` and the purpose-split spray RNG —
/// never ambient randomness or map iteration order — so a trial replays
/// byte-identically at any `FP_THREADS` setting and on either scheduler
/// backend. Backends whose state is fed by transport echoes
/// ([`Sprayer::on_feedback`]) are still deterministic but refuse the memo
/// fast path (see
/// [`Sprayer::memo_residual`] and the harness eligibility gate).
pub trait Sprayer: std::fmt::Debug + Send {
    /// Choose a candidate index for the packet described by `ctx`.
    /// `cursor` is the switch's rotation state (shared with the classic
    /// policies); `rng` is the purpose-split spray stream.
    fn pick(&mut self, ctx: &SprayCtx<'_>, cursor: &mut u64, rng: &mut SmallRng) -> usize;

    /// Deliver a transport echo for a previously-picked data packet.
    /// `pair` is the packet's `(src, dst)` host pair — the same stable
    /// identity [`SprayCtx`] carried at pick time. Default: ignore
    /// (stateless backends).
    fn on_feedback(&mut self, _flow: FlowId, _pair: (u32, u32), _seq: u32, _echo: SprayEcho) {}

    /// Canonical residual state for the temporal-symmetry memo
    /// fingerprint: `Ok(token)` when the backend's state is captured by
    /// `token` (0 = stateless/empty), `Err(reason)` when it holds
    /// feedback-fed state no fingerprint can soundly cover.
    fn memo_residual(&self) -> Result<u64, &'static str> {
        Ok(0)
    }
}

/// The classic closed-enum policies behind the [`Sprayer`] trait.
/// Delegates to [`choose`], so RNG draws, cursor updates and therefore
/// output bytes are identical to the pre-trait implementation. Holds only
/// policies for which [`SprayPolicy::is_classic`] is true. Random and
/// RoundRobin count the candidates and never read [`SprayCtx::loads`], so
/// the engine leaves it empty for them.
#[derive(Copy, Clone, Debug)]
struct ClassicSprayer {
    policy: SprayPolicy,
}

impl Sprayer for ClassicSprayer {
    fn pick(&mut self, ctx: &SprayCtx<'_>, cursor: &mut u64, rng: &mut SmallRng) -> usize {
        match self.policy {
            SprayPolicy::Random | SprayPolicy::RoundRobin => {
                choose_blind(self.policy, ctx.cands.len(), cursor, rng)
            }
            policy => choose(policy, ctx.loads, cursor, rng),
        }
    }
}

/// Build the per-switch sprayer instance for `policy`. `n_slots` is the
/// switch's uplink-slot count (virtual spines on a leaf, core slots on a
/// 3-level agg); feedback-driven backends size their per-slot state from
/// it.
pub fn make_sprayer(policy: SprayPolicy, n_slots: usize) -> Box<dyn Sprayer> {
    match policy {
        policy if policy.is_classic() => Box::new(ClassicSprayer { policy }),
        SprayPolicy::Ecmp => Box::new(EcmpSprayer::new()),
        SprayPolicy::Prime => Box::new(PrimeSprayer::new()),
        SprayPolicy::Reps => Box::new(RepsSprayer::new(n_slots, false)),
        SprayPolicy::RepsFailover => Box::new(RepsSprayer::new(n_slots, true)),
        _ => unreachable!("policy {policy:?} not mapped to a backend"),
    }
}

/// Pick an index into `loads` (queued bytes per candidate) according to the
/// policy. `cursor` is the per-switch rotation state. `loads` must be
/// non-empty. Classic policies only — the pluggable backends implement
/// [`Sprayer`] directly.
pub fn choose(policy: SprayPolicy, loads: &[u64], cursor: &mut u64, rng: &mut SmallRng) -> usize {
    debug_assert!(!loads.is_empty(), "spray over zero candidates");
    let n = loads.len();
    match policy {
        SprayPolicy::Random | SprayPolicy::RoundRobin => choose_blind(policy, n, cursor, rng),
        SprayPolicy::Adaptive | SprayPolicy::LeastLoaded => {
            // Scan starting at the cursor so equal-load ports are taken in
            // rotation; advance the cursor past the chosen port. The scan
            // order is `(start + k) % n` for `k` in `0..n`, walked as two
            // slices so the per-candidate step has no division; the cursor
            // this arm writes is at most `n`, so the reduction below
            // rarely divides either.
            let c = *cursor as usize;
            let start = if c < n { c } else { c % n };
            let (wrapped, first) = loads.split_at(start);
            let mut best = start;
            let mut best_load = first[0];
            for (k, &l) in first.iter().enumerate().skip(1) {
                if l < best_load {
                    best = start + k;
                    best_load = l;
                }
            }
            for (i, &l) in wrapped.iter().enumerate() {
                if l < best_load {
                    best = i;
                    best_load = l;
                }
            }
            *cursor = (best as u64) + 1;
            best
        }
        _ => unreachable!("choose() is classic-only; {policy:?} has its own backend"),
    }
}

/// The picks that read no load: a uniform draw or the next cursor
/// position among `n` candidates.
fn choose_blind(policy: SprayPolicy, n: usize, cursor: &mut u64, rng: &mut SmallRng) -> usize {
    match policy {
        SprayPolicy::Random => rng.gen_range(0..n),
        SprayPolicy::RoundRobin => {
            let i = (*cursor as usize) % n;
            *cursor = cursor.wrapping_add(1);
            i
        }
        _ => unreachable!("{policy:?} reads loads"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The rotating least-loaded scan as originally written: one modulo
    /// per candidate.
    fn choose_modulo(loads: &[u64], cursor: &mut u64) -> usize {
        let n = loads.len();
        let start = (*cursor as usize) % n;
        let mut best = start;
        for k in 1..n {
            let i = (start + k) % n;
            if loads[i] < loads[best] {
                best = i;
            }
        }
        *cursor = (best as u64) + 1;
        best
    }

    proptest! {
        /// The division-free scan returns the same `(index, cursor)` as
        /// the modulo formulation for any loads (ties included), any
        /// cursor (in range, at `n`, or far past it) and any `n`.
        #[test]
        fn rotating_scan_matches_modulo_formulation(
            raw in proptest::collection::vec(0u64..u64::MAX, 1..40),
            cursor in 0u64..u64::MAX,
            spread in 1u64..6,
            near in 0u8..2,
        ) {
            // A narrow value range makes ties the common case.
            let loads: Vec<u64> = raw.iter().map(|r| r % spread).collect();
            let cursor = if near == 1 { cursor % (loads.len() as u64 + 2) } else { cursor };
            let mut rng = SmallRng::seed_from_u64(0);
            for policy in [SprayPolicy::Adaptive, SprayPolicy::LeastLoaded] {
                let (mut c_new, mut c_old) = (cursor, cursor);
                // A few picks in a row, so cursors written by the scan
                // itself (`best + 1`, up to `n`) are exercised too.
                for _ in 0..4 {
                    let got = choose(policy, &loads, &mut c_new, &mut rng);
                    let want = choose_modulo(&loads, &mut c_old);
                    prop_assert_eq!((got, c_new), (want, c_old));
                }
            }
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cursor = 0;
        let loads = [0u64; 4];
        let picks: Vec<usize> = (0..8)
            .map(|_| choose(SprayPolicy::RoundRobin, &loads, &mut cursor, &mut rng))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cursor = 0;
        let loads = [50, 10, 30, 99];
        for _ in 0..16 {
            assert_eq!(
                choose(SprayPolicy::LeastLoaded, &loads, &mut cursor, &mut rng),
                1
            );
        }
    }

    #[test]
    fn least_loaded_rotates_on_ties() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut cursor = 0;
        let loads = [0u64; 4];
        let picks: Vec<usize> = (0..8)
            .map(|_| choose(SprayPolicy::LeastLoaded, &loads, &mut cursor, &mut rng))
            .collect();
        // Rotating tie-break = round-robin when all loads are equal.
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn least_loaded_is_deterministic() {
        let run = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cursor = 0;
            let loads = [5u64, 5, 0, 5];
            (0..16)
                .map(|_| choose(SprayPolicy::LeastLoaded, &loads, &mut cursor, &mut rng))
                .collect::<Vec<_>>()
        };
        // Independent of the RNG seed entirely.
        assert_eq!(run(1), run(999));
    }

    #[test]
    fn random_covers_all_ports() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut cursor = 0;
        let loads = [0u64; 8];
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[choose(SprayPolicy::Random, &loads, &mut cursor, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_candidate_is_always_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cursor = 5;
        for p in [
            SprayPolicy::Random,
            SprayPolicy::RoundRobin,
            SprayPolicy::LeastLoaded,
        ] {
            assert_eq!(choose(p, &[42], &mut cursor, &mut rng), 0);
        }
    }

    #[test]
    fn classic_sprayer_matches_choose_exactly() {
        // The trait wrapper must replay the exact pick sequence (and RNG
        // consumption) of the bare function — the byte-identity hinge of
        // the refactor. Random and RoundRobin get no loads, as from the
        // engine, and must still match `choose` over the full ones.
        for policy in [
            SprayPolicy::Random,
            SprayPolicy::RoundRobin,
            SprayPolicy::Adaptive,
            SprayPolicy::LeastLoaded,
        ] {
            let loads_seq: Vec<Vec<u64>> = (0..32u64)
                .map(|i| (0..4).map(|j| (i * 7 + j * 13) % 5).collect())
                .collect();
            let cands = [LinkId(0), LinkId(1), LinkId(2), LinkId(3)];
            let mut rng_a = SmallRng::seed_from_u64(11);
            let mut rng_b = SmallRng::seed_from_u64(11);
            let mut cur_a = 0u64;
            let mut cur_b = 0u64;
            let mut s = ClassicSprayer { policy };
            let blind = matches!(policy, SprayPolicy::Random | SprayPolicy::RoundRobin);
            for loads in &loads_seq {
                let direct = choose(policy, loads, &mut cur_a, &mut rng_a);
                let ctx = SprayCtx {
                    flow: 1,
                    src: 0,
                    dst: 1,
                    seq: 0,
                    data: true,
                    cands: &cands,
                    loads: if blind { &[] } else { loads },
                    slots: &[],
                };
                let via_trait = s.pick(&ctx, &mut cur_b, &mut rng_b);
                assert_eq!(direct, via_trait, "{policy:?} diverged");
            }
            assert_eq!(cur_a, cur_b);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG desynced");
        }
    }

    #[test]
    fn policy_parse_round_trips_env_names() {
        for (name, policy) in [
            ("ecmp", SprayPolicy::Ecmp),
            ("prime", SprayPolicy::Prime),
            ("reps", SprayPolicy::Reps),
            ("reps_failover", SprayPolicy::RepsFailover),
            ("adaptive", SprayPolicy::Adaptive),
            ("least_loaded", SprayPolicy::LeastLoaded),
            ("rr", SprayPolicy::RoundRobin),
            ("random", SprayPolicy::Random),
        ] {
            assert_eq!(SprayPolicy::parse(name), Some(policy));
        }
        assert_eq!(SprayPolicy::parse("ECMP"), Some(SprayPolicy::Ecmp));
        assert_eq!(SprayPolicy::parse("bogus"), None);
    }

    #[test]
    fn feedback_flag_matches_backend_statefulness() {
        for p in [
            SprayPolicy::Prime,
            SprayPolicy::Reps,
            SprayPolicy::RepsFailover,
        ] {
            assert!(p.wants_feedback());
            assert!(!p.is_classic());
        }
        assert!(!SprayPolicy::Ecmp.wants_feedback());
        for p in [
            SprayPolicy::Adaptive,
            SprayPolicy::LeastLoaded,
            SprayPolicy::RoundRobin,
            SprayPolicy::Random,
        ] {
            assert!(p.is_classic());
            assert!(!p.wants_feedback());
        }
    }

    #[test]
    fn factory_builds_every_backend() {
        for p in [
            SprayPolicy::Adaptive,
            SprayPolicy::Ecmp,
            SprayPolicy::Prime,
            SprayPolicy::Reps,
            SprayPolicy::RepsFailover,
        ] {
            let s = make_sprayer(p, 4);
            // Stateless/empty backends report a clean memo residual; REPS
            // refuses outright.
            match p {
                SprayPolicy::Reps | SprayPolicy::RepsFailover => {
                    assert!(s.memo_residual().is_err())
                }
                _ => assert_eq!(s.memo_residual(), Ok(0)),
            }
        }
    }
}
