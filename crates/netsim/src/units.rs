//! Bandwidth and byte-size units.
//!
//! Bandwidth is stored as bits/second in a `u64` and converted to
//! serialization times with `u128` intermediate math, so a 400 Gb/s link
//! serializing a 4 KiB packet yields an exact integer-nanosecond duration
//! with no cumulative drift.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Link bandwidth, stored in bits per second.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Construct from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto this link, rounded up to the next
    /// nanosecond (a packet is never free to transmit).
    pub fn ser_time(self, bytes: u64) -> SimDuration {
        debug_assert!(self.0 > 0, "zero-bandwidth link");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        SimDuration::from_ns(ns as u64)
    }

    /// Bytes transferred in `d` at this rate (floor).
    pub fn bytes_in(self, d: SimDuration) -> u64 {
        (d.as_ns() as u128 * self.0 as u128 / (8 * 1_000_000_000)) as u64
    }
}

/// Pretty-print a byte count (reporting helper for harnesses and examples).
pub fn fmt_bytes(b: u64) -> String {
    const KI: u64 = 1024;
    const MI: u64 = 1024 * 1024;
    const GI: u64 = 1024 * 1024 * 1024;
    if b >= GI {
        format!("{:.2}GiB", b as f64 / GI as f64)
    } else if b >= MI {
        format!("{:.2}MiB", b as f64 / MI as f64)
    } else if b >= KI {
        format!("{:.2}KiB", b as f64 / KI as f64)
    } else {
        format!("{}B", b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ser_time_exact_for_round_rates() {
        // 4096B at 400Gbps: 4096*8 bits / 400e9 bps = 81.92ns -> ceil 82ns
        assert_eq!(Bandwidth::from_gbps(400).ser_time(4096).as_ns(), 82);
        // 1 byte at 8 bps = 1s
        assert_eq!(Bandwidth(8).ser_time(1).as_ns(), 1_000_000_000);
        // never zero for a nonzero payload
        assert_eq!(Bandwidth::from_gbps(400).ser_time(1).as_ns(), 1);
    }

    #[test]
    fn bytes_in_is_inverse_ish() {
        let bw = Bandwidth::from_gbps(100);
        let d = bw.ser_time(1_000_000);
        let b = bw.bytes_in(d);
        assert!((1_000_000..1_000_100).contains(&b), "b={b}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.00KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00MiB");
    }
}
