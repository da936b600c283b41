//! Straggler / jitter models (paper §4, §5.1).
//!
//! "Prior to each collective, some nodes may experience longer computation
//! times, resulting in straggler nodes that begin the collective after other
//! nodes. Different nodes may become stragglers during different
//! iterations." The runner samples a fresh per-node delay at each iteration
//! start from one of these models.

use fp_netsim::time::SimDuration;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-node iteration-start delay distribution.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug, Default)]
pub enum JitterModel {
    /// All nodes start simultaneously.
    #[default]
    None,
    /// Delay uniform in `[0, max]`.
    Uniform {
        /// Upper bound.
        max: SimDuration,
    },
}

impl JitterModel {
    /// Sample per-node delays for one iteration over `n` nodes.
    pub fn sample(&self, n: usize, rng: &mut SmallRng) -> Vec<SimDuration> {
        match *self {
            JitterModel::None => vec![SimDuration::ZERO; n],
            JitterModel::Uniform { max } => (0..n)
                .map(|_| SimDuration::from_ns(rng.gen_range(0..=max.as_ns())))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_is_zero() {
        let mut rng = SmallRng::seed_from_u64(0);
        let v = JitterModel::None.sample(5, &mut rng);
        assert!(v.iter().all(|d| *d == SimDuration::ZERO));
    }

    #[test]
    fn uniform_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(1);
        let max = SimDuration::from_us(3);
        for _ in 0..100 {
            for d in (JitterModel::Uniform { max }).sample(8, &mut rng) {
                assert!(d <= max);
            }
        }
    }
}
