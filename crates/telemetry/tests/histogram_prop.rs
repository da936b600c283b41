//! Histogram-merge soundness: merging log-bucketed histograms must be
//! exactly equivalent to recording the concatenated sample stream — a
//! drifting merge would silently corrupt exported percentiles.

use fp_telemetry::LogHistogram;
use proptest::prelude::*;

/// Record a slice into a fresh histogram.
fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn merge_equals_concatenated_recording_unit() {
    let a = [0u64, 1, 7, 4096, u64::MAX];
    let b = [3u64, 3, 3, 1 << 40];
    let mut merged = hist_of(&a);
    merged.merge(&hist_of(&b));
    let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
    assert_eq!(merged, hist_of(&concat));
    // The exported (serialized) form agrees too — byte-identical JSON.
    assert_eq!(
        serde_json::to_string(&merged.export()).unwrap(),
        serde_json::to_string(&hist_of(&concat).export()).unwrap()
    );
}

#[test]
fn merge_is_order_insensitive() {
    let a = [5u64, 900, 17];
    let b = [2u64, 2, 1 << 30];
    let mut ab = hist_of(&a);
    ab.merge(&hist_of(&b));
    let mut ba = hist_of(&b);
    ba.merge(&hist_of(&a));
    assert_eq!(ab, ba);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(H(a), H(b)) == H(a ++ b) for arbitrary streams, including
    /// the count/sum/min/max scalars and every bucket.
    #[test]
    fn merge_equals_concatenated_recording(
        a in proptest::collection::vec(0u64..u64::MAX, 0..64),
        b in proptest::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = hist_of(&concat);
        prop_assert_eq!(&merged, &direct);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(
            serde_json::to_string(&merged.export()).unwrap(),
            serde_json::to_string(&direct.export()).unwrap()
        );
    }

    /// Folding a stream split at an arbitrary point over any number of
    /// partial histograms loses nothing (associativity over splits).
    #[test]
    fn split_fold_matches_direct(
        values in proptest::collection::vec(0u64..u64::MAX, 1..96),
        cut_a in 0usize..96,
        cut_b in 0usize..96,
    ) {
        let c1 = cut_a.min(values.len());
        let c2 = cut_b.clamp(c1, values.len());
        let mut folded = hist_of(&values[..c1]);
        folded.merge(&hist_of(&values[c1..c2]));
        folded.merge(&hist_of(&values[c2..]));
        prop_assert_eq!(folded, hist_of(&values));
    }
}
