//! Log-bucketed (power-of-two) latency histograms.
//!
//! Recording is O(1) (a `leading_zeros` and an array increment), memory is a
//! fixed 65-slot array, and merge is element-wise addition — the right shape
//! for per-trial histograms that campaigns later aggregate.

use serde::{Deserialize, JsonWriter, Serialize};

/// Number of buckets: one for zero plus one per bit of a `u64`.
const NBUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` values.
///
/// Bucket 0 holds exactly the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. The top bucket saturates at `u64::MAX`.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: [u64; NBUCKETS],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; NBUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index a value falls into.
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Half-open `[lo, hi)` range of bucket `i` (the top bucket's `hi`
    /// saturates at `u64::MAX`).
    fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < NBUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (i - 1);
            let hi = if i == 64 { u64::MAX } else { 1u64 << i };
            (lo, hi)
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value, `None` if empty.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` if empty.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Serializable snapshot (non-empty buckets only).
    pub fn export(&self) -> HistogramExport {
        HistogramExport {
            count: self.total,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min: self.min(),
            max: self.max(),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let (lo, hi) = Self::bucket_bounds(i);
                    HistogramBucket { lo, hi, count: c }
                })
                .collect(),
        }
    }
}

/// Written as its [`export`](LogHistogram::export).
impl Serialize for LogHistogram {
    fn write_json(&self, w: &mut JsonWriter) {
        self.export().write_json(w);
    }
}

/// One non-empty bucket of a [`HistogramExport`].
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub(crate) struct HistogramBucket {
    /// Inclusive lower bound.
    pub(crate) lo: u64,
    /// Exclusive upper bound.
    pub(crate) hi: u64,
    /// Values recorded in `[lo, hi)`.
    pub(crate) count: u64,
}

/// Serializable histogram snapshot.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct HistogramExport {
    /// Number of recorded values.
    pub(crate) count: u64,
    /// Sum of recorded values (saturating at `u64::MAX` on export).
    pub(crate) sum: u64,
    /// Smallest recorded value (`null` if empty).
    pub(crate) min: Option<u64>,
    /// Largest recorded value (`null` if empty).
    pub(crate) max: Option<u64>,
    /// Non-empty buckets, ascending.
    pub(crate) buckets: Vec<HistogramBucket>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // 0 is its own bucket; powers of two start a new bucket.
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(7), 3);
        assert_eq!(LogHistogram::bucket_index(8), 4);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        // Bounds agree with the index function at every edge.
        for i in 0..65 {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(LogHistogram::bucket_index(hi - 1), i, "hi-1 of bucket {i}");
            if i < 64 {
                assert_eq!(LogHistogram::bucket_index(hi), i + 1, "hi of bucket {i}");
            }
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = LogHistogram::new();
        let e = h.export();
        assert_eq!((e.count, e.sum, e.min, e.max), (0, 0, None, None));
        for v in [0, 1, 5, 5, 1000] {
            h.record(v);
        }
        let e = h.export();
        assert_eq!(
            (e.count, e.sum, e.min, e.max),
            (5, 1011, Some(0), Some(1000))
        );
        // The sum is kept in `u128` and saturates on export.
        h.record(u64::MAX);
        assert_eq!(h.export().sum, u64::MAX);
    }

    #[test]
    fn merge_is_elementwise_sum() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [0, 9, 70_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn export_skips_empty_buckets() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(6);
        h.record(6);
        let e = h.export();
        assert_eq!(e.count, 3);
        assert_eq!(e.buckets.len(), 2);
        assert_eq!(
            (e.buckets[0].lo, e.buckets[0].hi, e.buckets[0].count),
            (0, 1, 1)
        );
        assert_eq!(
            (e.buckets[1].lo, e.buckets[1].hi, e.buckets[1].count),
            (4, 8, 2)
        );
    }
}
