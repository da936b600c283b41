//! Wall-clock timing scaled to a reference host speed.
//!
//! The sizing host (2 shared vCPUs) changes speed by 20-40 % for tens of
//! seconds at a time, longer than a run, so medians of wall times do not
//! repeat from run to run: ten 15-s runs of `fault_loop` on ten seeds
//! spread by 24 % of their median (q3 - q1), against a bound that cannot
//! exceed 25 %. Every timed interval is therefore bracketed by a short
//! calibration loop that uses nothing but `std`, and reported as
//! `wall x host_speed`, where `host_speed = CALIBRATION_REF_S / calibration
//! now`. The same ten runs then spread by 3 %. When the host is calm the
//! loop's own noise costs 2-3 points of spread (README "Host-speed
//! scaling" has the table for every workload).
//!
//! A change to the repository cannot touch the loop, so a real speed-up
//! still shows in full. The wall times are kept beside the scaled ones and
//! reported per layer (`bench.unit_wall_ms`, `bench.host_speed`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What [`calibrate`] takes on the sizing host in its usual state. It only
/// names the speed the scaled times refer to; both sides of any comparison
/// use the same constant.
pub const CALIBRATION_REF_S: f64 = 0.0050;

/// The host-speed probe: a binary-heap event churn, the access pattern of
/// a discrete-event engine, over `std` types only. Tracked the simulator's
/// slow-downs best of the loops tried (ALU chain, random memory walk).
fn calibrate() -> f64 {
    let mut state = 7u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let t0 = Instant::now();
    let mut heap = BinaryHeap::with_capacity(4097);
    for i in 0..4096u64 {
        heap.push(Reverse((next() % 1_000_000, i)));
    }
    let mut sum = 0u64;
    for i in 0..90_000u64 {
        let Reverse((at, _)) = heap.pop().expect("population is never exhausted");
        sum = sum.wrapping_add(at);
        heap.push(Reverse((at + next() % 100_000, i)));
    }
    black_box(sum);
    t0.elapsed().as_secs_f64()
}

/// One timed interval.
#[derive(Copy, Clone, Debug)]
pub struct Timed {
    /// Seconds as the wall clock read them.
    pub wall_s: f64,
    /// Host speed around the interval: [`CALIBRATION_REF_S`] over the mean
    /// of the calibration samples before and after it. 1 is the sizing
    /// host in its usual state, below 1 a slower host.
    pub host_speed: f64,
}

impl Timed {
    /// The interval's seconds at reference host speed.
    pub fn scaled_s(&self) -> f64 {
        self.wall_s * self.host_speed
    }
}

/// Times consecutive intervals; the calibration sample after one interval
/// is the sample before the next.
pub struct HostClock {
    last_calibration_s: f64,
}

impl HostClock {
    pub fn start() -> HostClock {
        HostClock {
            last_calibration_s: calibrate(),
        }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = calibrate();
        let host_speed = CALIBRATION_REF_S / ((self.last_calibration_s + after) / 2.0);
        self.last_calibration_s = after;
        (out, Timed { wall_s, host_speed })
    }
}

/// Scaled seconds of each interval.
pub fn scaled_s(intervals: &[Timed]) -> Vec<f64> {
    intervals.iter().map(Timed::scaled_s).collect()
}
