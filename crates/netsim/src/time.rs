//! Integer-nanosecond simulated time.
//!
//! All timestamps in the simulator are [`SimTime`] values: nanoseconds since
//! the start of the simulation, stored as `u64`. Durations are [`SimDuration`]
//! values. Integer time makes event ordering exact and runs reproducible —
//! there is no floating-point drift in serialization or latency arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated timestamp, in nanoseconds since simulation start.
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant (used as an "infinite" horizon).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// The raw nanosecond value.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Digit `level` of the timestamp in base `2^bits_per_level`.
    ///
    /// The timing-wheel scheduler views a timestamp as a little-endian
    /// sequence of radix digits; digit `l` selects the slot index at wheel
    /// level `l`. Levels beyond the top of the `u64` yield zero.
    pub const fn radix_digit(self, bits_per_level: u32, level: u32) -> usize {
        let shift = bits_per_level * level;
        if shift >= u64::BITS {
            0
        } else {
            ((self.0 >> shift) & ((1u64 << bits_per_level) - 1)) as usize
        }
    }

    /// Index of the most significant base-`2^bits_per_level` digit in which
    /// `self` and `other` differ, or 0 when they are equal.
    ///
    /// This is the wheel level an event at `self` files into when the
    /// cursor sits at `other`: all digits above the returned level agree,
    /// so the event becomes due only after the cursor sweeps up to that
    /// digit boundary.
    pub const fn radix_level(self, other: SimTime, bits_per_level: u32) -> u32 {
        let diff = self.0 ^ other.0;
        if diff == 0 {
            0
        } else {
            (u64::BITS - 1 - diff.leading_zeros()) / bits_per_level
        }
    }

    /// Truncate to the start of the enclosing `2^log2_ns`-nanosecond tick.
    pub const fn floor_ticks(self, log2_ns: u32) -> SimTime {
        if log2_ns >= u64::BITS {
            SimTime(0)
        } else {
            SimTime(self.0 >> log2_ns << log2_ns)
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// The raw nanosecond value.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The duration as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scale by a floating factor, rounding to the nearest nanosecond.
    /// Used for retransmission backoff; saturates on overflow.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative duration scale");
        let ns = (self.0 as f64 * k).round();
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// Durations cannot be negative, so subtraction saturates at zero.
    /// Underflow is a logic error upstream; debug builds assert on it
    /// instead of silently wrapping into a ~585-year duration.
    fn sub(self, other: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= other.0, "duration underflow: {self} - {other}");
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(1_000) + SimDuration::from_us(2);
        assert_eq!(t.as_ns(), 3_000);
        assert_eq!(t.since(SimTime::from_ns(500)).as_ns(), 2_500);
        // saturating: asking for time before an instant yields zero
        assert_eq!(SimTime::from_ns(5).since(SimTime::from_ns(9)).as_ns(), 0);
    }

    #[test]
    fn duration_sub_works_when_in_range() {
        let d = SimDuration::from_us(3) - SimDuration::from_us(1);
        assert_eq!(d.as_ns(), 2_000);
        assert_eq!(
            SimDuration::from_ns(7) - SimDuration::from_ns(7),
            SimDuration::ZERO
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics_in_debug() {
        let _ = SimDuration::from_ns(1) - SimDuration::from_ns(2);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn duration_sub_saturates_in_release() {
        let d = SimDuration::from_ns(1) - SimDuration::from_ns(2);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_us(1).as_ns(), 1_000);
        assert_eq!(SimDuration::from_ms(1).as_ns(), 1_000_000);
    }

    #[test]
    fn mul_f64_rounds_and_saturates() {
        assert_eq!(SimDuration::from_ns(10).mul_f64(1.5).as_ns(), 15);
        assert_eq!(SimDuration::from_ns(3).mul_f64(0.5).as_ns(), 2); // 1.5 rounds to 2
        assert_eq!(
            SimDuration(u64::MAX / 2).mul_f64(1e30),
            SimDuration::from_ns(u64::MAX)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_ms(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_ms(3_000).to_string(), "3.000s");
    }

    #[test]
    fn radix_digit_extracts_bytes() {
        let t = SimTime::from_ns(0x1122_3344_5566_7788);
        assert_eq!(t.radix_digit(8, 0), 0x88);
        assert_eq!(t.radix_digit(8, 1), 0x77);
        assert_eq!(t.radix_digit(8, 3), 0x55);
        assert_eq!(t.radix_digit(8, 7), 0x11);
        assert_eq!(t.radix_digit(8, 8), 0); // beyond the top of u64
        assert_eq!(t.radix_digit(16, 1), 0x5566);
    }

    #[test]
    fn radix_level_finds_most_significant_differing_digit() {
        let base = SimTime::from_ns(0x0000_0000_0001_2300);
        assert_eq!(base.radix_level(base, 8), 0);
        assert_eq!(SimTime::from_ns(0x0001_2301).radix_level(base, 8), 0);
        assert_eq!(SimTime::from_ns(0x0001_2400).radix_level(base, 8), 1);
        assert_eq!(SimTime::from_ns(0x0002_0000).radix_level(base, 8), 2);
        assert_eq!(SimTime::from_ns(0x1_0000_0000).radix_level(base, 8), 4);
        assert_eq!(SimTime::MAX.radix_level(SimTime::ZERO, 8), 7);
    }

    #[test]
    fn floor_ticks_truncates() {
        assert_eq!(SimTime::from_ns(0x1234).floor_ticks(8).as_ns(), 0x1200);
        assert_eq!(SimTime::from_ns(0x1234).floor_ticks(0).as_ns(), 0x1234);
        assert_eq!(SimTime::from_ns(7).floor_ticks(64).as_ns(), 0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
