//! Adaptive spray's utilization signal, the state of the
//! [`super::Sprayer::Adaptive`] arm. The engine's fused least-loaded pass
//! (`crate::switch`) decays the candidates' slots, scans `queued_bytes +
//! deficit`, and charges the chosen slot with the packet's wire bytes.

/// One byte counter per uplink slot, halved every `spray_tau` since its
/// timestamp base, lazily on the next read. Sized `n_vspines` on leaves,
/// `cores_per_group` on 3-level aggs.
#[derive(Clone, PartialEq, Debug)]
pub struct Deficits {
    /// Bytes charged per slot, as of its timestamp base.
    bytes: Vec<u64>,
    /// Timestamp base for each slot's lazy exponential decay.
    at: Vec<u64>,
    /// A lower bound on `min(at) + tau`: before it no slot can halve, so a
    /// pick skips the per-slot decay. It stays a bound because `at` only
    /// moves forward, and 0 is always one.
    gate: u64,
}

/// Lazy exponential decay of one deficit slot up to `now`: the counter
/// halves every `tau` nanoseconds since its timestamp base `at`, which
/// advances by the whole halvings applied.
fn decay(deficit: &mut u64, at: &mut u64, now: u64, tau: u64) -> u64 {
    let elapsed = now.saturating_sub(*at);
    if elapsed < tau {
        // Zero halvings: skip the division (nearly every read).
        return *deficit;
    }
    let halvings = elapsed.checked_div(tau).unwrap_or(0);
    if halvings > 0 {
        *deficit >>= halvings.min(63);
        *at += halvings * tau;
    }
    *deficit
}

/// The earliest time any slot with timestamp base in `at` can halve.
fn decay_floor(at: &[u64], tau: u64) -> u64 {
    at.iter().min().map_or(0, |&at| at + tau)
}

impl Deficits {
    pub(super) fn new(n_slots: usize) -> Self {
        Deficits {
            bytes: vec![0; n_slots],
            at: vec![0; n_slots],
            gate: 0,
        }
    }

    /// Bring the deficits of `slots` up to `now`; nothing to do while no
    /// slot can halve yet.
    #[inline]
    pub(crate) fn decay(&mut self, slots: &[u32], now: u64, tau: u64) {
        debug_assert!(self.gate <= decay_floor(&self.at, tau));
        if now >= self.gate {
            for &v in slots {
                let v = v as usize;
                decay(&mut self.bytes[v], &mut self.at[v], now, tau);
            }
            self.gate = decay_floor(&self.at, tau);
        }
    }

    /// The deficit of `slot` as of its last decay.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> u64 {
        self.bytes[slot as usize]
    }

    /// Charge `wire` bytes to `slot`.
    #[inline]
    pub(crate) fn charge(&mut self, slot: u32, wire: u64) {
        self.bytes[slot as usize] += wire;
    }

    /// Some slot was charged, now or before: a charge leaves the counter
    /// non-zero until a decay moves its timestamp base off the initial
    /// zero.
    pub(super) fn charged(&self) -> bool {
        let mut slots = self.bytes.iter().zip(&self.at);
        slots.any(|(&d, &at)| d != 0 || at != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spray::Sprayer;

    /// What the fused pass's oracle (`crate::switch`'s tests) reads.
    impl Deficits {
        /// Read the deficit of `slot`, applying its lazy decay alone (no
        /// gate): the two-stage oracle of the fused pass.
        pub(crate) fn decayed(&mut self, slot: u32, now: u64, tau: u64) -> u64 {
            let v = slot as usize;
            decay(&mut self.bytes[v], &mut self.at[v], now, tau)
        }

        /// Each slot's bytes and timestamp base: everything but the gate,
        /// which only the fused pass keeps.
        pub(crate) fn slots(&self) -> (&[u64], &[u64]) {
            (&self.bytes, &self.at)
        }

        /// The decay gate is still a lower bound on the earliest halving.
        pub(crate) fn gate_holds(&self, tau: u64) -> bool {
            self.gate <= decay_floor(&self.at, tau)
        }
    }

    #[test]
    fn decayed_deficit_matches_the_always_divide_formulation() {
        // The read path returns early when less than one tau has passed;
        // that must be invisible: same value, same timestamp base, across
        // grid crossings, multi-tau gaps, > 63 halvings and tau = 0.
        fn reference(deficit: &mut u64, at: &mut u64, now: u64, tau: u64) -> u64 {
            let elapsed = now.saturating_sub(*at);
            let halvings = elapsed.checked_div(tau).unwrap_or(0);
            if halvings > 0 {
                *deficit >>= halvings.min(63);
                *at += halvings * tau;
            }
            *deficit
        }
        for tau in [0u64, 1, 100, 100_000] {
            let mut d = Deficits::new(2);
            let (mut want, mut want_at, mut now) = (0u64, 0u64, 0u64);
            let steps = [0, 1, tau / 2, tau.saturating_sub(1), 1, tau, tau + 1];
            let gaps = [3 * tau + 7, 5, 70 * tau, 2 * tau, 0];
            for step in steps.into_iter().chain(gaps) {
                now += step;
                want += 4160;
                d.charge(1, 4160);
                let got = d.decayed(1, now, tau);
                assert_eq!(got, reference(&mut want, &mut want_at, now, tau));
                assert_eq!(d.at[1], want_at, "tau={tau}");
            }
        }
    }

    #[test]
    fn a_charged_deficit_refuses_the_memo_even_decayed_to_zero() {
        // Decay can bring the bytes back to zero, but not the timestamp
        // base: the residual stays refused.
        let mut s = Sprayer::Adaptive(Deficits::new(2));
        assert_eq!(s.memo_residual(), Ok(0));
        let Sprayer::Adaptive(d) = &mut s else {
            unreachable!()
        };
        d.charge(0, 4160);
        d.decay(&[0, 1], 100 * 1_000, 1_000);
        assert_eq!(d.get(0), 0);
        assert_eq!(s.memo_residual(), Err("adaptive-spray-deficit"));
    }
}
