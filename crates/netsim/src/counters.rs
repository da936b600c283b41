//! In-switch FlowPulse counters.
//!
//! Each *leaf* switch maintains, per spine-facing ingress port, the number of
//! payload bytes received for every `(job, iteration)` collective tag
//! (paper §5.1/§5.3). A second, per-source-leaf breakdown supports fault
//! localization (§5.3, Fig. 4). Besides those two byte matrices an entry
//! keeps one stamp, the time of its last tagged packet; nothing else is
//! read, so nothing else is counted. Only *valid, delivered* data packets are
//! counted — packets lost to silent faults never reach the counter, which is
//! precisely the temporal-symmetry signal.
//!
//! The store is shared across leaves in the simulator for convenience, but
//! all reads used by the detector are per-leaf: nothing here requires
//! cross-switch coordination.

use crate::packet::CollectiveTag;
use crate::time::SimTime;
use std::collections::HashMap;

/// Byte counts for one collective iteration, across all monitoring
/// switches ("rows": leaves for the leaf-level store, aggs for the 3-level
/// agg-level store).
#[derive(Clone, Debug)]
pub struct IterCounters {
    n_vspines: usize,
    n_rows: usize,
    n_src: usize,
    /// Payload bytes per `(row, vspine)` ingress port; index `row * n_vspines + vspine`.
    pub bytes: Vec<u64>,
    /// Payload bytes per `(row, vspine, src_leaf)`;
    /// index `(row * n_vspines + vspine) * n_src + src_leaf`.
    pub by_src: Vec<u64>,
    /// Time of the iteration's last tagged packet, at any row.
    pub last_seen: u64,
}

impl IterCounters {
    fn new(n_rows: usize, n_vspines: usize, n_src: usize) -> Self {
        IterCounters {
            n_vspines,
            n_rows,
            n_src,
            bytes: vec![0; n_rows * n_vspines],
            by_src: vec![0; n_rows * n_vspines * n_src],
            last_seen: 0,
        }
    }

    /// Dimensions `(n_rows, n_vspines, n_src)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n_rows, self.n_vspines, self.n_src)
    }

    /// Bytes received at `leaf` on the ingress port from `vspine`.
    pub fn port_bytes(&self, leaf: u32, vspine: u32) -> u64 {
        self.bytes[leaf as usize * self.n_vspines + vspine as usize]
    }

    /// Bytes received at `leaf` from `vspine` originated by hosts under
    /// `src_leaf`.
    pub fn port_src_bytes(&self, leaf: u32, vspine: u32, src_leaf: u32) -> u64 {
        self.by_src
            [(leaf as usize * self.n_vspines + vspine as usize) * self.n_src + src_leaf as usize]
    }

    /// All per-port byte counts for one leaf (length = number of vspines).
    pub fn leaf_ports(&self, leaf: u32) -> &[u64] {
        let s = leaf as usize * self.n_vspines;
        &self.bytes[s..s + self.n_vspines]
    }

    /// Total tagged bytes this iteration across all leaves.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Counter growth for one `(job, iter)` over one recorded memo window —
/// see [`CounterStore::memo_diff`] / [`CounterStore::memo_apply`].
#[derive(Clone, Debug)]
pub struct CounterDelta {
    /// Job of the entry this delta grows.
    pub job: u32,
    /// Collective iteration of the entry; replay rebases this by the
    /// replayed-iteration offset.
    pub iter: u32,
    /// Added bytes per `(row, vspine)` cell.
    pub bytes: Vec<u64>,
    /// Added bytes per `(row, vspine, src)` cell.
    pub by_src: Vec<u64>,
    /// `last_seen` at the end of the window, absolute ns, rebased by the
    /// replay time shift: the window recorded into the entry, and the
    /// clock only moves forward, so this is its last record's stamp.
    pub last_seen: u64,
}

/// All iteration counters of a run, keyed by `(job, iter)`.
///
/// Layout is optimized for the per-packet hot path ([`Self::record`]):
/// counters live in a dense `Vec` with a `HashMap` index on the side, and
/// the most recently touched slot is cached. Tagged packets of the same
/// collective iteration arrive in long runs, so almost every record hits
/// the cache and touches neither the hash nor the index.
#[derive(Clone, Debug)]
pub struct CounterStore {
    n_rows: usize,
    n_vspines: usize,
    n_src: usize,
    /// Dense storage in first-recorded order.
    entries: Vec<((u32, u32), IterCounters)>,
    /// `(job, iter)` → index into `entries`.
    index: HashMap<(u32, u32), u32>,
    /// Most recently recorded entry (`u32::MAX` = none yet).
    last: u32,
}

impl CounterStore {
    /// Empty store for a fabric with the given dimensions (rows = leaves,
    /// sources = leaves).
    pub fn new(n_leaves: usize, n_vspines: usize) -> Self {
        Self::new_with_src(n_leaves, n_vspines, n_leaves)
    }

    /// Empty store with an explicit source dimension — used by the 3-level
    /// agg-level store, where rows are aggregation switches but traffic
    /// sources are still leaves.
    pub fn new_with_src(n_rows: usize, n_vspines: usize, n_src: usize) -> Self {
        CounterStore {
            n_rows,
            n_vspines,
            n_src,
            entries: Vec::new(),
            index: HashMap::new(),
            last: u32::MAX,
        }
    }

    /// Record `bytes` of tagged payload arriving at `leaf` via the ingress
    /// port from `vspine`, sent by a host under `src_leaf`.
    pub fn record(
        &mut self,
        leaf: u32,
        vspine: u32,
        tag: CollectiveTag,
        src_leaf: u32,
        bytes: u64,
        now: SimTime,
    ) {
        let key = (tag.job, tag.iter);
        let i = match self.entries.get(self.last as usize) {
            // Fast path: same (job, iter) as the previous packet.
            Some((k, _)) if *k == key => self.last as usize,
            _ => {
                let i = match self.index.get(&key) {
                    Some(&i) => i as usize,
                    None => {
                        let i = self.entries.len();
                        self.entries.push((
                            key,
                            IterCounters::new(self.n_rows, self.n_vspines, self.n_src),
                        ));
                        self.index.insert(key, i as u32);
                        i
                    }
                };
                self.last = i as u32;
                i
            }
        };
        let c = &mut self.entries[i].1;
        let pi = leaf as usize * self.n_vspines + vspine as usize;
        c.bytes[pi] += bytes;
        c.by_src[pi * self.n_src + src_leaf as usize] += bytes;
        c.last_seen = c.last_seen.max(now.as_ns());
    }

    /// Counters for one `(job, iter)`, if any packet was recorded.
    pub fn get(&self, job: u32, iter: u32) -> Option<&IterCounters> {
        self.index
            .get(&(job, iter))
            .map(|&i| &self.entries[i as usize].1)
    }

    /// All `(job, iter)` keys, sorted.
    pub fn keys(&self) -> Vec<(u32, u32)> {
        let mut k: Vec<_> = self.entries.iter().map(|(k, _)| *k).collect();
        k.sort_unstable();
        k
    }

    /// Iterations recorded for `job`, sorted.
    pub fn iters_of(&self, job: u32) -> Vec<u32> {
        let mut k: Vec<u32> = self
            .entries
            .iter()
            .filter(|((j, _), _)| *j == job)
            .map(|&((_, i), _)| i)
            .collect();
        k.sort_unstable();
        k
    }

    /// Fabric dimensions `(n_rows, n_vspines)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.n_rows, self.n_vspines)
    }

    /// One `(job, iter)` entry's worth of counter growth over a recorded
    /// memo window (see `crate::sim::memo`), for every entry the window
    /// recorded into. Every record adds bytes, so an entry whose bytes did
    /// not grow was not touched.
    pub fn memo_diff(&self, prev: &CounterStore) -> Vec<CounterDelta> {
        debug_assert!(self.entries.len() >= prev.entries.len());
        let mut out = Vec::new();
        for ((job, iter), c) in &self.entries {
            let mut d = CounterDelta {
                job: *job,
                iter: *iter,
                bytes: c.bytes.clone(),
                by_src: c.by_src.clone(),
                last_seen: c.last_seen,
            };
            if let Some(p) = prev.get(*job, *iter) {
                for (a, b) in d.bytes.iter_mut().zip(&p.bytes) {
                    *a -= b;
                }
                for (a, b) in d.by_src.iter_mut().zip(&p.by_src) {
                    *a -= b;
                }
            }
            if d.bytes.iter().any(|&v| v != 0) {
                out.push(d);
            }
        }
        out
    }

    /// Replay one recorded window delta onto the store, rebased by
    /// `iter_shift` collective iterations and `t_shift_ns` of simulated
    /// time. Cells add; the last stamp max-merges exactly like a live
    /// [`Self::record`] stream would have produced.
    pub fn memo_apply(&mut self, d: &CounterDelta, iter_shift: u32, t_shift_ns: u64) {
        let key = (d.job, d.iter + iter_shift);
        let i = match self.index.get(&key) {
            Some(&i) => i as usize,
            None => {
                let i = self.entries.len();
                self.entries.push((
                    key,
                    IterCounters::new(self.n_rows, self.n_vspines, self.n_src),
                ));
                self.index.insert(key, i as u32);
                i
            }
        };
        let c = &mut self.entries[i].1;
        for (a, b) in c.bytes.iter_mut().zip(&d.bytes) {
            *a += b;
        }
        for (a, b) in c.by_src.iter_mut().zip(&d.by_src) {
            *a += b;
        }
        c.last_seen = c.last_seen.max(d.last_seen + t_shift_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: CollectiveTag = CollectiveTag { job: 1, iter: 0 };

    #[test]
    fn record_accumulates() {
        let mut s = CounterStore::new(4, 2);
        s.record(2, 1, TAG, 0, 100, SimTime::from_ns(10));
        s.record(2, 1, TAG, 3, 50, SimTime::from_ns(20));
        let c = s.get(1, 0).unwrap();
        assert_eq!(c.port_bytes(2, 1), 150);
        assert_eq!(c.port_src_bytes(2, 1, 0), 100);
        assert_eq!(c.port_src_bytes(2, 1, 3), 50);
        assert_eq!(c.port_bytes(0, 0), 0);
        assert_eq!(c.total_bytes(), 150);
    }

    #[test]
    fn last_seen_is_the_latest_record_at_any_row() {
        let mut s = CounterStore::new(2, 2);
        s.record(0, 0, TAG, 1, 10, SimTime::from_ns(5));
        s.record(1, 1, TAG, 1, 10, SimTime::from_ns(9));
        s.record(0, 1, TAG, 1, 10, SimTime::from_ns(7));
        assert_eq!(s.get(1, 0).unwrap().last_seen, 9);
    }

    #[test]
    fn a_window_delta_replays_like_the_live_records_it_stands_for() {
        let tag = |iter| CollectiveTag { job: 1, iter };
        let mut s = CounterStore::new(2, 2);
        s.record(0, 0, tag(1), 1, 5, SimTime::from_ns(1));
        let prev = s.clone();
        // The window records into iteration 0 only.
        s.record(1, 0, tag(0), 0, 10, SimTime::from_ns(20));
        s.record(0, 1, tag(0), 1, 30, SimTime::from_ns(25));
        let deltas = s.memo_diff(&prev);
        assert_eq!(deltas.len(), 1, "an entry the window missed has no delta");
        let (mut replayed, mut live) = (s.clone(), s.clone());
        // Onto an iteration that already has cells, and onto a new one.
        for (k, shift) in [(1, 100), (2, 200)] {
            replayed.memo_apply(&deltas[0], k, shift);
            live.record(1, 0, tag(k), 0, 10, SimTime::from_ns(20 + shift));
            live.record(0, 1, tag(k), 1, 30, SimTime::from_ns(25 + shift));
        }
        assert_eq!(replayed.keys(), live.keys());
        for (job, iter) in live.keys() {
            let show = |c: &CounterStore| format!("{:?}", c.get(job, iter));
            assert_eq!(show(&replayed), show(&live), "iteration {iter}");
        }
        assert_eq!(replayed.get(1, 1).unwrap().last_seen, 125);
    }

    #[test]
    fn iterations_are_separate() {
        let mut s = CounterStore::new(2, 2);
        s.record(
            0,
            0,
            CollectiveTag { job: 1, iter: 0 },
            1,
            10,
            SimTime::ZERO,
        );
        s.record(
            0,
            0,
            CollectiveTag { job: 1, iter: 1 },
            1,
            20,
            SimTime::ZERO,
        );
        s.record(
            0,
            0,
            CollectiveTag { job: 2, iter: 0 },
            1,
            30,
            SimTime::ZERO,
        );
        assert_eq!(s.get(1, 0).unwrap().port_bytes(0, 0), 10);
        assert_eq!(s.get(1, 1).unwrap().port_bytes(0, 0), 20);
        assert_eq!(s.get(2, 0).unwrap().port_bytes(0, 0), 30);
        assert_eq!(s.iters_of(1), vec![0, 1]);
        assert_eq!(s.keys(), vec![(1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn leaf_ports_slice() {
        let mut s = CounterStore::new(3, 4);
        s.record(1, 2, TAG, 0, 7, SimTime::ZERO);
        let c = s.get(1, 0).unwrap();
        assert_eq!(c.leaf_ports(1), &[0, 0, 7, 0]);
        assert_eq!(c.leaf_ports(0), &[0, 0, 0, 0]);
    }
}
