//! In-switch FlowPulse counters.
//!
//! Each *leaf* switch maintains, per spine-facing ingress port, the number of
//! payload bytes received for every `(job, iteration)` collective tag
//! (paper §5.1/§5.3). A second, per-source-leaf breakdown supports fault
//! localization (§5.3, Fig. 4). Besides those bytes an entry keeps one
//! stamp, the time of its last tagged packet; nothing else is read, so
//! nothing else is counted. Only *valid, delivered* data packets are
//! counted — packets lost to silent faults never reach the counter, which is
//! precisely the temporal-symmetry signal.
//!
//! The per-sender breakdown costs what it holds. Under a ring all-reduce a
//! port only ever sees one sender leaf, so an entry starts as a *sender
//! column*: one source leaf per port, whose bytes are the port's own
//! `bytes` cell. Only when one of its ports sees a second sender does the
//! entry unfold into a dense `rows × vspines × sources` block and record
//! densely from then on. Readers see one dense view either way
//! ([`IterCounters::port_src_bytes`], [`IterCounters::src_cells`]).
//!
//! The store is shared across leaves in the simulator for convenience, but
//! all reads used by the detector are per-leaf: nothing here requires
//! cross-switch coordination.

use crate::packet::CollectiveTag;
use crate::time::SimTime;
use std::fmt;

/// A port that has not seen a tagged byte yet. Sources are leaves, and a
/// fabric has fewer than `u16::MAX` of them.
const NO_SENDER: u16 = u16::MAX;

/// Who sent a port's bytes.
#[derive(Clone)]
enum Senders {
    /// Per `(row, vspine)` port, the one source leaf it has seen
    /// ([`NO_SENDER`] before its first byte); that leaf sent all of the
    /// port's bytes.
    Column(Box<[u16]>),
    /// Some port saw a second sender: bytes per `(row, vspine, src_leaf)`,
    /// index `(row * n_vspines + vspine) * n_src + src_leaf`.
    Dense(Box<[u64]>),
}

/// Byte counts for one collective iteration, across all monitoring
/// switches ("rows": leaves for the leaf-level store, aggs for the 3-level
/// agg-level store).
#[derive(Clone)]
pub struct IterCounters {
    n_vspines: usize,
    n_rows: usize,
    n_src: usize,
    /// Payload bytes per `(row, vspine)` ingress port; index `row * n_vspines + vspine`.
    pub bytes: Vec<u64>,
    /// The per-sender breakdown of `bytes`.
    senders: Senders,
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
            senders: Senders::Column(vec![NO_SENDER; n_rows * n_vspines].into()),
            last_seen: 0,
        }
    }

    /// Add `bytes` sent by `src_leaf` at port `pi` (`row * n_vspines +
    /// vspine`). A second sender at any port unfolds the column first.
    #[inline]
    fn add(&mut self, pi: usize, src_leaf: u32, bytes: u64) {
        debug_assert!((src_leaf as usize) < self.n_src, "source leaf {src_leaf}");
        if let Senders::Column(col) = &mut self.senders {
            match col[pi] {
                s if s == src_leaf as u16 => {}
                NO_SENDER => col[pi] = src_leaf as u16,
                _ => self.unfold(),
            }
        }
        if let Senders::Dense(by_src) = &mut self.senders {
            by_src[pi * self.n_src + src_leaf as usize] += bytes;
        }
        self.bytes[pi] += bytes;
    }

    /// Turn the sender column into the dense block it stands for.
    #[cold]
    fn unfold(&mut self) {
        if let Senders::Column(col) = &self.senders {
            let mut by_src = vec![0; self.bytes.len() * self.n_src];
            for (pi, (&s, &b)) in col.iter().zip(&self.bytes).enumerate() {
                if s != NO_SENDER {
                    by_src[pi * self.n_src + s as usize] = b;
                }
            }
            self.senders = Senders::Dense(by_src.into());
        }
    }

    /// Bytes at port `pi` sent by `src_leaf`.
    fn port_src_at(&self, pi: usize, src_leaf: usize) -> u64 {
        match &self.senders {
            Senders::Column(col) if col[pi] as usize == src_leaf => self.bytes[pi],
            Senders::Column(_) => 0,
            Senders::Dense(by_src) => by_src[pi * self.n_src + src_leaf],
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
        self.port_src_at(
            leaf as usize * self.n_vspines + vspine as usize,
            src_leaf as usize,
        )
    }

    /// The dense per-sender view: bytes per `(row, vspine, src_leaf)`, in
    /// index order `(row * n_vspines + vspine) * n_src + src_leaf`.
    pub fn src_cells(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let n_src = self.n_src;
        (0..self.bytes.len() * n_src).map(move |i| self.port_src_at(i / n_src, i % n_src))
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

/// Equal when a reader reads the same: dimensions, per-port bytes, the
/// dense per-sender view and the last stamp — whichever form holds them.
impl PartialEq for IterCounters {
    fn eq(&self, other: &Self) -> bool {
        self.dims() == other.dims()
            && self.bytes == other.bytes
            && self.last_seen == other.last_seen
            && self.src_cells().eq(other.src_cells())
    }
}

/// What a reader reads, with the per-sender cells as their dense view —
/// whichever form holds them.
impl fmt::Debug for IterCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IterCounters")
            .field("n_vspines", &self.n_vspines)
            .field("n_rows", &self.n_rows)
            .field("n_src", &self.n_src)
            .field("bytes", &self.bytes)
            .field("by_src", &self.src_cells().collect::<Vec<_>>())
            .field("last_seen", &self.last_seen)
            .finish()
    }
}

/// Counter growth for one `(job, iter)` over one recorded memo window —
/// see [`CounterStore::memo_diff`] / [`CounterStore::memo_apply`].
pub(crate) struct CounterDelta {
    /// Job of the entry this delta grows.
    job: u32,
    /// Collective iteration of the entry; replay rebases this by the
    /// replayed-iteration offset.
    iter: u32,
    /// `(port, src_leaf, added bytes)` for every per-sender cell that
    /// grew; port is `row * n_vspines + vspine`.
    cells: Vec<(u32, u16, u64)>,
    /// `last_seen` at the end of the window, absolute ns, rebased by the
    /// replay time shift: the window recorded into the entry, and the
    /// clock only moves forward, so this is its last record's stamp.
    last_seen: u64,
}

/// All iteration counters of a run, keyed by `(job, iter)`.
///
/// Layout is sized for what a store holds: a trial's scorer takes each
/// entry as its iteration closes, so one or two are live, and a kept run
/// holds one per iteration. Entries live in a `Vec` sorted by
/// `(job, iter)`, found by binary search, and the most recently touched
/// slot is cached for the per-packet hot path ([`Self::record`]). Tagged
/// packets of the same collective iteration arrive in long runs, so almost
/// every record hits the cache and searches nothing.
#[derive(Clone, Debug)]
pub struct CounterStore {
    n_rows: usize,
    n_vspines: usize,
    n_src: usize,
    /// Entries sorted by `(job, iter)`.
    entries: Vec<((u32, u32), IterCounters)>,
    /// Most recently recorded entry (`u32::MAX` = none yet). A hit is
    /// checked against its key, so an insertion or a take that moves the
    /// entries leaves it stale but never wrong.
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
    pub(crate) fn new_with_src(n_rows: usize, n_vspines: usize, n_src: usize) -> Self {
        assert!(n_src < NO_SENDER as usize, "{n_src} sources");
        CounterStore {
            n_rows,
            n_vspines,
            n_src,
            entries: Vec::new(),
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
                let i = self.slot(key);
                self.last = i as u32;
                i
            }
        };
        let c = &mut self.entries[i].1;
        c.add(
            leaf as usize * self.n_vspines + vspine as usize,
            src_leaf,
            bytes,
        );
        c.last_seen = c.last_seen.max(now.as_ns());
    }

    /// Where `key` is in `entries`, or where it would go.
    fn find(&self, key: (u32, u32)) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |(k, _)| *k)
    }

    /// Index into `entries` of `key`'s entry, added empty if it is new.
    fn slot(&mut self, key: (u32, u32)) -> usize {
        self.find(key).unwrap_or_else(|i| {
            let c = IterCounters::new(self.n_rows, self.n_vspines, self.n_src);
            self.entries.insert(i, (key, c));
            i
        })
    }

    /// Counters for one `(job, iter)`, if any packet was recorded.
    pub fn get(&self, job: u32, iter: u32) -> Option<&IterCounters> {
        let i = self.find((job, iter)).ok()?;
        Some(&self.entries[i].1)
    }

    /// All `(job, iter)` keys, sorted.
    pub fn keys(&self) -> Vec<(u32, u32)> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }

    /// Iterations recorded for `job`, sorted.
    pub fn iters_of(&self, job: u32) -> Vec<u32> {
        self.entries
            .iter()
            .filter(|((j, _), _)| *j == job)
            .map(|&((_, i), _)| i)
            .collect()
    }

    /// Move out `job`'s entries below iteration `iter`, sorted by
    /// iteration; a later record of one of them starts a fresh entry.
    pub fn take_below(&mut self, job: u32, iter: u32) -> Vec<(u32, IterCounters)> {
        let from = self.entries.partition_point(|(k, _)| *k < (job, 0));
        let to = self.entries.partition_point(|(k, _)| *k < (job, iter));
        self.entries
            .drain(from..to)
            .map(|((_, i), c)| (i, c))
            .collect()
    }

    /// Fabric dimensions `(n_rows, n_vspines)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.n_rows, self.n_vspines)
    }

    /// One `(job, iter)` entry's worth of counter growth over a recorded
    /// memo window (see `crate::sim::memo`), for every entry the window
    /// recorded into. Every record adds bytes, so an entry whose bytes did
    /// not grow was not touched.
    pub(crate) fn memo_diff(&self, prev: &CounterStore) -> Vec<CounterDelta> {
        debug_assert!(self.entries.len() >= prev.entries.len());
        let mut out = Vec::new();
        for ((job, iter), c) in &self.entries {
            let p = prev.get(*job, *iter);
            let mut cells = Vec::new();
            for (pi, &b) in c.bytes.iter().enumerate() {
                if b == p.map_or(0, |p| p.bytes[pi]) {
                    continue;
                }
                for src in 0..c.n_src {
                    let grew = c.port_src_at(pi, src) - p.map_or(0, |p| p.port_src_at(pi, src));
                    if grew != 0 {
                        cells.push((pi as u32, src as u16, grew));
                    }
                }
            }
            if !cells.is_empty() {
                out.push(CounterDelta {
                    job: *job,
                    iter: *iter,
                    cells,
                    last_seen: c.last_seen,
                });
            }
        }
        out
    }

    /// Replay one recorded window delta onto the store, rebased by
    /// `iter_shift` collective iterations and `t_shift_ns` of simulated
    /// time. Cells add, through the same sender rule as a live
    /// [`Self::record`]; the last stamp max-merges exactly like a live
    /// record stream would have produced.
    pub(crate) fn memo_apply(&mut self, d: &CounterDelta, iter_shift: u32, t_shift_ns: u64) {
        let i = self.slot((d.job, d.iter + iter_shift));
        let c = &mut self.entries[i].1;
        for &(pi, src, b) in &d.cells {
            c.add(pi as usize, src as u32, b);
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

    fn is_column(c: &IterCounters) -> bool {
        matches!(c.senders, Senders::Column(_))
    }

    #[test]
    fn one_sender_per_port_stays_a_column() {
        let mut s = CounterStore::new(4, 2);
        for (leaf, vspine, src) in [(0, 0, 3), (0, 1, 2), (1, 0, 3), (0, 0, 3)] {
            s.record(leaf, vspine, TAG, src, 10, SimTime::ZERO);
        }
        let c = s.get(1, 0).unwrap();
        assert!(is_column(c));
        assert_eq!(c.port_src_bytes(0, 0, 3), 20);
        assert_eq!(c.port_src_bytes(0, 0, 2), 0);
        assert_eq!(c.port_src_bytes(0, 1, 2), 10);
        assert_eq!(c.port_src_bytes(3, 1, 0), 0, "a port nobody sent to");
        let mut dense = vec![0; 4 * 2 * 4];
        dense[3] = 20;
        dense[4 + 2] = 10;
        dense[8 + 3] = 10;
        assert_eq!(c.src_cells().collect::<Vec<_>>(), dense);
    }

    /// Records from a small generator, checked cell by cell against a
    /// plain dense block after every record.
    #[test]
    fn the_dense_view_is_the_same_before_and_after_unfolding() {
        let (rows, vspines, srcs) = (3u32, 2u32, 5u32);
        let mut s = CounterStore::new_with_src(rows as usize, vspines as usize, srcs as usize);
        let mut want = vec![0u64; (rows * vspines * srcs) as usize];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for k in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (leaf, vspine) = ((x % 3) as u32, ((x >> 8) % 2) as u32);
            // One sender per port for the first 100 records, then any.
            let src = if k < 100 {
                (leaf + 1) % srcs
            } else {
                ((x >> 16) % 5) as u32
            };
            s.record(leaf, vspine, TAG, src, x >> 40, SimTime::from_ns(k));
            want[((leaf * vspines + vspine) * srcs + src) as usize] += x >> 40;
            let c = s.get(1, 0).unwrap();
            assert!(is_column(c) || k >= 100, "record {k}");
            assert!(c.src_cells().eq(want.iter().copied()), "record {k}");
        }
        assert!(!is_column(s.get(1, 0).unwrap()));
    }

    #[test]
    fn equality_and_debug_see_the_view_not_the_form() {
        let mut column = CounterStore::new(2, 1);
        column.record(0, 0, TAG, 1, 10, SimTime::ZERO);
        let mut unfolded = column.clone();
        unfolded.entries[0].1.unfold();
        assert!(!is_column(&unfolded.entries[0].1));
        assert_eq!(column.get(1, 0), unfolded.get(1, 0));
        assert_eq!(
            format!("{:?}", column.get(1, 0)),
            format!("{:?}", unfolded.get(1, 0))
        );
        unfolded.record(0, 0, TAG, 1, 1, SimTime::ZERO);
        assert_ne!(column.get(1, 0), unfolded.get(1, 0));
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
    fn a_replayed_sender_that_differs_unfolds_the_target_like_a_live_one() {
        let tag = |iter| CollectiveTag { job: 1, iter };
        let mut s = CounterStore::new(2, 2);
        s.record(1, 1, tag(1), 1, 7, SimTime::from_ns(1));
        let prev = s.clone();
        s.record(1, 1, tag(0), 0, 10, SimTime::from_ns(20));
        let deltas = s.memo_diff(&prev);
        let (mut replayed, mut live) = (s.clone(), s.clone());
        replayed.memo_apply(&deltas[0], 1, 100);
        live.record(1, 1, tag(1), 0, 10, SimTime::from_ns(120));
        let (r, l) = (replayed.get(1, 1).unwrap(), live.get(1, 1).unwrap());
        assert!(!is_column(r) && !is_column(l));
        assert_eq!(r, l);
        assert_eq!(r.port_src_bytes(1, 1, 0), 10);
        assert_eq!(r.port_src_bytes(1, 1, 1), 7);
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
    fn take_below_moves_out_one_jobs_old_entries() {
        let tag = |job, iter| CollectiveTag { job, iter };
        let mut s = CounterStore::new(2, 2);
        for (job, iter) in [(1, 2), (1, 0), (2, 0), (1, 1), (1, 3)] {
            s.record(0, 1, tag(job, iter), 1, 10 + iter as u64, SimTime::ZERO);
        }
        let taken = s.take_below(1, 2);
        let iters: Vec<u32> = taken.iter().map(|&(i, _)| i).collect();
        assert_eq!(iters, vec![0, 1], "sorted by iteration");
        assert_eq!(taken[1].1.port_bytes(0, 1), 11);
        assert_eq!(s.keys(), vec![(1, 2), (1, 3), (2, 0)]);
        assert!(s.take_below(1, 2).is_empty());
        // The record cache follows the entries that moved.
        assert_eq!(s.get(1, 3).unwrap().port_bytes(0, 1), 13);
        s.record(0, 1, tag(1, 2), 1, 5, SimTime::ZERO);
        s.record(0, 1, tag(1, 0), 1, 5, SimTime::ZERO);
        assert_eq!(s.get(1, 2).unwrap().port_bytes(0, 1), 17);
        assert_eq!(s.get(1, 0).unwrap().port_bytes(0, 1), 5);
        assert_eq!(s.get(2, 0).unwrap().port_bytes(0, 1), 10);
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
