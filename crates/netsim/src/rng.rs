//! Deterministic random-number streams.
//!
//! All randomness in a run derives from one master seed, but different
//! *purposes* (spraying decisions, fault sampling, workload jitter) get
//! independent streams. This means, e.g., that enabling jitter does not
//! perturb the sequence of spray choices — runs stay comparable across
//! configurations, which the evaluation harness relies on when pairing
//! fault/no-fault trials.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Independent RNG streams derived from a master seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RngStreams {
    /// APS spray choices (random policy, tie-breaking for least-loaded).
    pub(crate) spray: SmallRng,
    /// Silent-fault drop sampling.
    pub(crate) fault: SmallRng,
    /// Workload jitter and application-level randomness.
    pub(crate) app: SmallRng,
    /// Background-traffic generation.
    pub(crate) background: SmallRng,
}

impl RngStreams {
    /// Derive the four streams from `seed` using SplitMix64 on
    /// purpose-specific keys.
    pub(crate) fn new(seed: u64) -> Self {
        RngStreams {
            spray: SmallRng::seed_from_u64(splitmix64(seed ^ 0x5350_5241_5900_0001)),
            fault: SmallRng::seed_from_u64(splitmix64(seed ^ 0x4641_554c_5400_0002)),
            app: SmallRng::seed_from_u64(splitmix64(seed ^ 0x4150_5000_0000_0003)),
            background: SmallRng::seed_from_u64(splitmix64(seed ^ 0x4247_4e44_0000_0004)),
        }
    }
}

/// SplitMix64 finalizer — cheap, well-distributed seed derivation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sample a Bernoulli event with probability `p` from `rng`.
pub(crate) fn coin(rng: &mut SmallRng, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = RngStreams::new(42);
        let mut b = RngStreams::new(42);
        for _ in 0..100 {
            assert_eq!(a.spray.gen::<u64>(), b.spray.gen::<u64>());
            assert_eq!(a.fault.gen::<u64>(), b.fault.gen::<u64>());
        }
    }

    #[test]
    fn streams_are_independent_across_purposes() {
        let mut s = RngStreams::new(7);
        let spray: Vec<u64> = (0..8).map(|_| s.spray.gen()).collect();
        let fault: Vec<u64> = (0..8).map(|_| s.fault.gen()).collect();
        assert_ne!(spray, fault);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStreams::new(1);
        let mut b = RngStreams::new(2);
        assert_ne!(a.spray.gen::<u64>(), b.spray.gen::<u64>());
    }

    #[test]
    fn coin_extremes() {
        let mut r = SmallRng::seed_from_u64(0);
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
        // p=0.5 over many trials lands near half
        let hits = (0..10_000).filter(|_| coin(&mut r, 0.5)).count();
        assert!((4_000..6_000).contains(&hits), "hits={hits}");
    }
}
