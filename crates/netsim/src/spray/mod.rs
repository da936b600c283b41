//! Per-packet uplink choice (APS policies and beyond).
//!
//! In an APS fabric the leaf switch picks an uplink *per packet* among all
//! uplinks that can reach the destination leaf (paper §2). Every switch
//! that sprays holds one [`Sprayer`], built by [`make_sprayer`]: an enum
//! with one arm per policy state, plain data that clones with the switch.
//! The uplink choice is `sprayer.pick(ctx, cursor, rng)`, and
//! [`Sprayer::on_feedback`] threads ACK/ECN/timeout echoes from the
//! transport back to the sprayer that placed the packet.
//!
//! The paper's repertoire:
//!
//! * [`SprayPolicy::Random`] — uniform random port (Dixit et al.).
//! * [`SprayPolicy::RoundRobin`] — cyclic, perfectly smooth.
//! * [`SprayPolicy::Adaptive`] — utilization-aware least-loaded (default).
//! * [`SprayPolicy::LeastLoaded`] — queue-depth-only, rotating tie-break.
//!
//! The engine sends Random and RoundRobin through [`Sprayer::pick`] with
//! no load signal. Adaptive and LeastLoaded, the rotating least-loaded
//! pair, it picks in one fused pass over its own tables
//! (`crate::switch`), reading the Adaptive arm's decaying `Deficits` in
//! place; [`choose`] is that pass's test oracle, and `pick` runs the
//! same scan over [`SprayCtx::loads`] for callers outside the engine.
//!
//! Literature backends (the mitigation-zoo extension):
//!
//! * [`SprayPolicy::Ecmp`] — static per-flow hash (`ecmp`): the
//!   no-spraying baseline every APS design measures against.
//! * [`SprayPolicy::Prime`] — multi-part pseudo-random entropy (`prime`):
//!   a deterministic per-flow base entropy combined with a per-packet
//!   part, recomputed when the flow sees a congestion signal.
//! * [`SprayPolicy::Reps`] — recycled entropy spraying (`reps`): cache the
//!   entropy of ACKed packets, re-use it, evict on ECN or timeout.
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

mod adaptive;
mod ecmp;
mod prime;
mod reps;

pub(crate) use adaptive::Deficits;
use prime::PrimeSprayer;
use reps::RepsSprayer;

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
    /// True when the backend consumes transport echoes
    /// ([`Sprayer::on_feedback`]). The simulator only pays for feedback
    /// plumbing (CE marking, ACK echo collection) when this is set, so
    /// the other policies keep their exact pre-feedback byte behaviour.
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
/// load-reading policies' signal for callers outside the engine (queued
/// bytes, plus the decayed byte deficit under [`SprayPolicy::Adaptive`])
/// and is empty for arms that do not read it; `slots` gives each
/// candidate's stable uplink slot (virtual-spine index on leaves, core
/// slot on 3-level aggs).
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

/// One switch's uplink-selection state: one arm per policy, plain data
/// that clones with the switch.
///
/// Determinism contract: `pick` may consult only the arm's state, the
/// context, the shared rotation `cursor` and the purpose-split spray RNG —
/// never ambient randomness or map iteration order — so a trial replays
/// byte-identically at any `FP_THREADS` setting. Arms whose state is fed
/// by transport echoes ([`Sprayer::on_feedback`]) are still deterministic
/// but refuse the memo fast path (see [`Sprayer::memo_residual`] and the
/// harness eligibility gate).
#[derive(Clone, PartialEq, Debug)]
pub enum Sprayer {
    /// [`SprayPolicy::Random`].
    Random,
    /// [`SprayPolicy::RoundRobin`].
    RoundRobin,
    /// [`SprayPolicy::LeastLoaded`].
    LeastLoaded,
    /// [`SprayPolicy::Adaptive`], with the decaying per-slot byte
    /// deficits the engine's fused pass reads and charges.
    Adaptive(Deficits),
    /// [`SprayPolicy::Ecmp`]: a pure hash of the host pair.
    Ecmp,
    /// [`SprayPolicy::Prime`].
    Prime(PrimeSprayer),
    /// [`SprayPolicy::Reps`] and [`SprayPolicy::RepsFailover`].
    Reps(RepsSprayer),
}

impl Sprayer {
    /// Choose a candidate index for the packet described by `ctx`.
    /// `cursor` is the switch's rotation state (shared by RoundRobin and
    /// the rotating least-loaded pair); `rng` is the purpose-split spray
    /// stream. Random and RoundRobin count the candidates and never read
    /// [`SprayCtx::loads`]; Adaptive and LeastLoaded pick by [`choose`]
    /// over it.
    pub fn pick(&mut self, ctx: &SprayCtx<'_>, cursor: &mut u64, rng: &mut SmallRng) -> usize {
        match self {
            Sprayer::Random => rng.gen_range(0..ctx.cands.len()),
            Sprayer::RoundRobin => rotate(ctx.cands.len(), cursor),
            Sprayer::LeastLoaded | Sprayer::Adaptive(_) => least_loaded(ctx.loads, cursor),
            Sprayer::Ecmp => ecmp::pick(ctx),
            Sprayer::Prime(p) => p.pick(ctx),
            Sprayer::Reps(r) => r.pick(ctx, rng),
        }
    }

    /// Deliver a transport echo for a previously-picked data packet.
    /// `pair` is the packet's `(src, dst)` host pair — the same stable
    /// identity [`SprayCtx`] carried at pick time. Only the PRIME and REPS
    /// arms listen.
    pub fn on_feedback(&mut self, flow: FlowId, pair: (u32, u32), seq: u32, echo: SprayEcho) {
        match self {
            Sprayer::Prime(p) => p.on_feedback(pair, echo),
            Sprayer::Reps(r) => r.on_feedback(flow, seq, echo),
            _ => {}
        }
    }

    /// Canonical residual state for the temporal-symmetry memo
    /// fingerprint: `Ok(token)` when the arm's state is captured by
    /// `token` (0 = stateless/empty), `Err(reason)` when it holds state no
    /// fingerprint can soundly cover.
    pub fn memo_residual(&self) -> Result<u64, &'static str> {
        match self {
            // A charged deficit decays on an absolute `spray_tau` grid,
            // which no boundary-relative fingerprint captures (DESIGN.md
            // §11).
            Sprayer::Adaptive(d) if d.charged() => Err("adaptive-spray-deficit"),
            Sprayer::Prime(p) if p.congested() => Err("prime-congestion-epochs"),
            Sprayer::Reps(_) => Err("reps-entropy-cache"),
            _ => Ok(0),
        }
    }
}

/// Build the per-switch sprayer for `policy`. `n_slots` is the switch's
/// uplink-slot count (virtual spines on a leaf, core slots on a 3-level
/// agg); the Adaptive and REPS arms size their per-slot state from it.
pub fn make_sprayer(policy: SprayPolicy, n_slots: usize) -> Sprayer {
    match policy {
        SprayPolicy::Random => Sprayer::Random,
        SprayPolicy::RoundRobin => Sprayer::RoundRobin,
        SprayPolicy::Adaptive => Sprayer::Adaptive(Deficits::new(n_slots)),
        SprayPolicy::LeastLoaded => Sprayer::LeastLoaded,
        SprayPolicy::Ecmp => Sprayer::Ecmp,
        SprayPolicy::Prime => Sprayer::Prime(PrimeSprayer::default()),
        SprayPolicy::Reps => Sprayer::Reps(RepsSprayer::new(n_slots, false)),
        SprayPolicy::RepsFailover => Sprayer::Reps(RepsSprayer::new(n_slots, true)),
    }
}

/// Pick an index into `loads` (queued bytes per candidate) according to the
/// policy. `cursor` is the per-switch rotation state. `loads` must be
/// non-empty. The paper's four policies only — the literature backends
/// pick through their [`Sprayer`] arm.
pub fn choose(policy: SprayPolicy, loads: &[u64], cursor: &mut u64, rng: &mut SmallRng) -> usize {
    debug_assert!(!loads.is_empty(), "spray over zero candidates");
    match policy {
        SprayPolicy::Random => rng.gen_range(0..loads.len()),
        SprayPolicy::RoundRobin => rotate(loads.len(), cursor),
        SprayPolicy::Adaptive | SprayPolicy::LeastLoaded => least_loaded(loads, cursor),
        _ => unreachable!("choose() is for the paper's policies; {policy:?} has its own arm"),
    }
}

/// The next cursor position among `n` candidates.
fn rotate(n: usize, cursor: &mut u64) -> usize {
    let i = (*cursor as usize) % n;
    *cursor = cursor.wrapping_add(1);
    i
}

/// The rotating least-loaded scan: start at the cursor so equal-load ports
/// are taken in rotation, and advance the cursor past the chosen port.
fn least_loaded(loads: &[u64], cursor: &mut u64) -> usize {
    // The scan order is `(start + k) % n` for `k` in `0..n`, walked as two
    // slices so the per-candidate step has no division; the cursor this
    // writes is at most `n`, so the reduction below rarely divides either.
    let n = loads.len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    const ALL: [SprayPolicy; 8] = [
        SprayPolicy::Random,
        SprayPolicy::RoundRobin,
        SprayPolicy::Adaptive,
        SprayPolicy::LeastLoaded,
        SprayPolicy::Ecmp,
        SprayPolicy::Prime,
        SprayPolicy::Reps,
        SprayPolicy::RepsFailover,
    ];

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
    fn paper_arms_match_choose_exactly() {
        // Each arm of the paper's four policies replays the exact pick
        // sequence (and RNG consumption) of the bare function — the
        // byte-identity hinge of the engine. Random and RoundRobin get no
        // loads, as from the engine, and must still match `choose` over
        // the full ones.
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
            let mut s = make_sprayer(policy, 4);
            let blind = matches!(policy, SprayPolicy::Random | SprayPolicy::RoundRobin);
            for loads in &loads_seq {
                let direct = choose(policy, loads, &mut cur_a, &mut rng_a);
                let ctx = SprayCtx {
                    loads: if blind { &[] } else { loads },
                    ..ctx(&cands, &[], 0)
                };
                let via_arm = s.pick(&ctx, &mut cur_b, &mut rng_b);
                assert_eq!(direct, via_arm, "{policy:?} diverged");
            }
            assert_eq!(cur_a, cur_b);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG desynced");
        }
    }

    /// A data-packet context over `cands` (slots `slots`) for segment `seq`.
    fn ctx<'a>(cands: &'a [LinkId], slots: &'a [u32], seq: u32) -> SprayCtx<'a> {
        SprayCtx {
            flow: 1,
            src: 0,
            dst: 1,
            seq,
            data: true,
            cands,
            loads: &[],
            slots,
        }
    }

    #[test]
    fn a_cloned_sprayer_picks_in_lockstep() {
        // Forking a trial copies each switch's sprayer with its cursor and
        // RNG: after any pick and feedback history, the copy must make the
        // same next picks and leave cursor and RNG where the original does.
        let cands: Vec<LinkId> = (0..4).map(LinkId).collect();
        let slots: Vec<u32> = (0..4).collect();
        let loads = [3u64, 1, 1, 2];
        for policy in ALL {
            let mut s = make_sprayer(policy, 4);
            let (mut cursor, mut rng) = (0u64, SmallRng::seed_from_u64(3));
            for seq in 0..48u32 {
                let ctx = SprayCtx {
                    loads: &loads,
                    ..ctx(&cands, &slots, seq)
                };
                s.pick(&ctx, &mut cursor, &mut rng);
                let echo = match seq % 7 {
                    0 | 3 => SprayEcho::Timeout,
                    5 => SprayEcho::Ecn,
                    _ => SprayEcho::Ack,
                };
                s.on_feedback(1, (0, 1), seq, echo);
            }
            let (mut t, mut cursor_t, mut rng_t) = (s.clone(), cursor, rng.clone());
            assert_eq!(t, s, "{policy:?}: the copy differs");
            for seq in 48..96u32 {
                let ctx = SprayCtx {
                    loads: &loads,
                    ..ctx(&cands, &slots, seq)
                };
                let a = s.pick(&ctx, &mut cursor, &mut rng);
                let b = t.pick(&ctx, &mut cursor_t, &mut rng_t);
                assert_eq!((a, cursor, &rng), (b, cursor_t, &rng_t), "{policy:?} {seq}");
            }
            assert_eq!(t, s, "{policy:?}: the states diverged");
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
        // The simulator wires echoes only where they can change a sprayer.
        let cands: Vec<LinkId> = (0..4).map(LinkId).collect();
        for p in ALL {
            let mut s = make_sprayer(p, 4);
            let ctx = SprayCtx {
                loads: &[0; 4],
                ..ctx(&cands, &[], 0)
            };
            s.pick(&ctx, &mut 0, &mut SmallRng::seed_from_u64(0));
            let before = s.clone();
            s.on_feedback(1, (0, 1), 0, SprayEcho::Timeout);
            assert_eq!(s != before, p.wants_feedback(), "{p:?}");
        }
    }

    #[test]
    fn factory_builds_every_backend() {
        for p in ALL {
            let s = make_sprayer(p, 4);
            // Stateless/empty arms report a clean memo residual; REPS
            // refuses outright.
            match p {
                SprayPolicy::Reps | SprayPolicy::RepsFailover => {
                    assert_eq!(s.memo_residual(), Err("reps-entropy-cache"))
                }
                _ => assert_eq!(s.memo_residual(), Ok(0), "{p:?}"),
            }
        }
    }
}
