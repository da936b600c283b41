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
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

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
    fn ordering_is_numeric() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
