//! A minimal fixed-capacity bitset used by the transport to track
//! received/acknowledged segments without per-flow `HashSet` overhead.

/// Fixed-capacity bitset over `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: u32,
    ones: u32,
    /// Index of the first word that is not all ones (`words.len()` when
    /// every word is). Bits are never cleared, so it only moves up, and
    /// [`BitSet::first_clear`] need not rescan the full prefix on every
    /// call — per received segment, that made one large flow quadratic.
    first_open: u32,
}

impl BitSet {
    /// A bitset with `len` bits, all clear.
    pub fn new(len: u32) -> Self {
        BitSet {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            ones: 0,
            first_open: 0,
        }
    }

    /// Number of set bits (O(1), maintained incrementally).
    pub fn count(&self) -> u32 {
        self.ones
    }

    /// True if every bit is set.
    pub fn full(&self) -> bool {
        self.ones == self.len
    }

    /// Get bit `i`. Panics if out of range in debug builds.
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`; returns `true` if it was newly set.
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let w = &mut self.words[(i / 64) as usize];
        let m = 1u64 << (i % 64);
        if *w & m == 0 {
            *w |= m;
            self.ones += 1;
            if *w == u64::MAX {
                while self.words.get(self.first_open as usize) == Some(&u64::MAX) {
                    self.first_open += 1;
                }
            }
            true
        } else {
            false
        }
    }

    /// Index of the first clear bit, if any.
    pub(crate) fn first_clear(&self) -> Option<u32> {
        let w = *self.words.get(self.first_open as usize)?;
        // A tail word holds only `len % 64` usable bits and never fills.
        let bit = self.first_open * 64 + w.trailing_ones();
        (bit < self.len).then_some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;

    #[test]
    fn set_get_count() {
        let mut b = BitSet::new(130);
        assert_eq!(b.count(), 0);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64)); // idempotent
        assert_eq!(b.count(), 3);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert!(!b.full());
    }

    #[test]
    fn full_detection() {
        let mut b = BitSet::new(65);
        for i in 0..65 {
            b.set(i);
        }
        assert!(b.full());
        assert_eq!(b.first_clear(), None);
    }

    #[test]
    fn first_clear_skips_full_words() {
        let mut b = BitSet::new(130);
        for i in 0..64 {
            b.set(i);
        }
        assert_eq!(b.first_clear(), Some(64));
        b.set(64);
        assert_eq!(b.first_clear(), Some(65));
    }

    #[test]
    fn first_clear_matches_the_naive_scan_under_random_set_orders() {
        fn naive(b: &BitSet) -> Option<u32> {
            (0..b.len).find(|&i| !b.get(i))
        }
        let mut state = 0x5eed_u64;
        // Word-aligned, ragged-tail, sub-word and single-bit lengths.
        for len in [1u32, 63, 64, 65, 128, 130, 191, 192, 1000] {
            for _ in 0..8 {
                let mut order: Vec<u32> = (0..len).collect();
                for i in (1..order.len()).rev() {
                    state = splitmix64(state);
                    order.swap(i, (state % (i as u64 + 1)) as usize);
                }
                let mut b = BitSet::new(len);
                assert_eq!(b.first_clear(), Some(0));
                for (n, &i) in order.iter().enumerate() {
                    assert!(b.set(i));
                    assert!(!b.set(i), "second set is a no-op");
                    assert_eq!(b.first_clear(), naive(&b), "len {len} after {} sets", n + 1);
                }
                assert!(b.full());
                assert_eq!(b.first_clear(), None, "full set of {len}");
            }
        }
    }

    #[test]
    fn first_clear_tracks_a_large_in_order_flow() {
        // A 1 GiB message is 262 144 segments; receiving them in order
        // asked for the watermark once per segment, each a rescan of up to
        // 4 096 full words. With the hint the whole loop touches each word
        // a constant number of times.
        let n = 262_144;
        let mut b = BitSet::new(n);
        for i in 0..n {
            b.set(i);
            assert_eq!(b.first_clear(), (i + 1 < n).then_some(i + 1));
        }
    }

    #[test]
    fn zero_len() {
        let b = BitSet::new(0);
        assert_eq!(b.len, 0);
        assert!(b.full()); // vacuously
        assert_eq!(b.first_clear(), None);
    }
}
