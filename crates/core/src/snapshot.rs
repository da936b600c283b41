//! Per-iteration counter snapshots — the wire unit between a fabric and
//! the out-of-process monitor service (`fp-monitord`).
//!
//! A [`CounterSnapshot`] carries one job's closed iteration counters for
//! one fabric: the row-major `(leaf, vspine)` byte matrix the detector
//! compares, plus enough shape metadata for a consumer that has never seen
//! the fabric to run the [`Monitor`] incrementally — over a rebuilt
//! [`CounterStore`] ([`CounterSnapshot::apply`], the offline oracle) or,
//! for a stream of any length, over an [`OpenWindow`] of the iterations
//! still open. The per-source breakdown is deliberately *not* shipped:
//! the temporal-symmetry detector reads only per-port bytes
//! ([`crate::model::PortLoads::from_counters`]), and ring localization
//! correlates alarms across leaves rather than across senders, so the wire
//! format stays at `n_leaves × n_vspines` u64s per iteration (~4 KiB for
//! the paper's 32×16 fabric) instead of the ~128 KiB per-sender matrix.
//!
//! [`CounterStore`]: fp_netsim::counters::CounterStore
//! [`Monitor`]: crate::monitor::Monitor

use crate::model::PortLoads;
use crate::monitor::IterSource;
use fp_netsim::counters::CounterStore;
use fp_netsim::packet::CollectiveTag;
use fp_netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// One job-iteration's counters from one fabric, as shipped to the
/// monitor service (in-process channel or newline-delimited JSON).
#[derive(Clone, Default, PartialEq, Serialize, Deserialize, Debug)]
pub struct CounterSnapshot {
    /// Stream identity: which fabric produced this snapshot. The trial
    /// harness leaves this empty; feeds ([`crate::eval::monitord_feed`])
    /// stamp a per-stream id before pushing.
    pub fabric: String,
    /// Monitored job (collective tag sentinel).
    pub job: u32,
    /// Training iteration the counters cover.
    pub iter: u32,
    /// Leaf switch count (counter rows).
    pub n_leaves: u32,
    /// Virtual spine count (monitored ingress ports per leaf).
    pub n_vspines: u32,
    /// Simulated time the iteration's counters closed (max `last_seen`
    /// across leaves; informational — detection never reads it).
    pub t_ns: u64,
    /// Row-major `[leaf * n_vspines + vspine]` payload byte counters.
    pub bytes: Vec<u64>,
    /// Final snapshot of this `(fabric, job)` stream: the job ended, so
    /// the consumer must flush the trailing iteration and close out
    /// localization.
    pub last: bool,
}

impl CounterSnapshot {
    /// Extract the per-iteration snapshot sequence for `job` from a run's
    /// counter store, in scan order. The final snapshot has
    /// [`last`](Self::last) set; `fabric` is left empty for the feed to
    /// stamp.
    pub fn sequence_from(store: &CounterStore, job: u32) -> Vec<CounterSnapshot> {
        let (n_leaves, n_vspines) = store.dims();
        let iters = store.iters_of(job);
        let n = iters.len();
        iters
            .into_iter()
            .enumerate()
            .map(|(k, iter)| {
                let c = store.get(job, iter).expect("listed iteration");
                CounterSnapshot {
                    fabric: String::new(),
                    job,
                    iter,
                    n_leaves: n_leaves as u32,
                    n_vspines: n_vspines as u32,
                    t_ns: c.last_seen.iter().copied().max().unwrap_or(0),
                    bytes: c.bytes.clone(),
                    last: k + 1 == n,
                }
            })
            .collect()
    }

    /// Replay this snapshot into a consumer-side store so the byte matrix
    /// the [`Monitor`](crate::monitor::Monitor) reads is identical to the
    /// producer's. Only per-port bytes are reconstructed (see the module
    /// docs); packet counts and the per-source breakdown stay zero, which
    /// detection and ring localization never read.
    pub fn apply(&self, store: &mut CounterStore) {
        let tag = CollectiveTag {
            job: self.job,
            iter: self.iter,
        };
        let now = SimTime::from_ns(self.t_ns);
        for (i, &b) in self.bytes.iter().enumerate() {
            if b > 0 {
                let leaf = (i / self.n_vspines as usize) as u32;
                let vspine = (i % self.n_vspines as usize) as u32;
                store.record(leaf, vspine, tag, leaf, b, now);
            }
        }
    }

    /// An empty store with this snapshot's fabric dimensions.
    pub fn new_store(&self) -> CounterStore {
        CounterStore::new(self.n_leaves as usize, self.n_vspines as usize)
    }
}

/// The iterations of one `(fabric, job)` stream that its
/// [`Monitor`](crate::monitor::Monitor) has not evaluated yet — what a
/// long-running consumer keeps instead of a [`CounterStore`] that grows
/// with the stream. It answers [`IterSource`] exactly as the store
/// [`CounterSnapshot::apply`] fills would: cells add on a repeated
/// iteration, an all-zero snapshot records nothing, and — because the
/// monitor never looks back — an iteration it has passed can be evicted,
/// or arrive late and be evicted, unread. Memory is the open iterations
/// × ports, whatever the stream length.
///
/// [`CounterStore`]: fp_netsim::counters::CounterStore
#[derive(Clone, Debug)]
pub struct OpenWindow {
    job: u32,
    n_leaves: usize,
    n_vspines: usize,
    /// Per-port byte cells of each open iteration, row-major.
    open: BTreeMap<u32, Vec<u64>>,
}

impl OpenWindow {
    /// An empty window for `job` on an `n_leaves × n_vspines` fabric.
    pub fn new(job: u32, n_leaves: u32, n_vspines: u32) -> Self {
        OpenWindow {
            job,
            n_leaves: n_leaves as usize,
            n_vspines: n_vspines as usize,
            open: BTreeMap::new(),
        }
    }

    /// Record one snapshot's `bytes` for iteration `iter` of this
    /// window's job.
    ///
    /// # Panics
    /// If `bytes` is not `n_leaves × n_vspines` long — the caller checks
    /// wire input against the stream's shape first.
    pub fn record(&mut self, iter: u32, bytes: Vec<u64>) {
        assert_eq!(
            Some(bytes.len()),
            self.n_leaves.checked_mul(self.n_vspines),
            "snapshot cells do not match the window's fabric shape"
        );
        if bytes.iter().all(|&b| b == 0) {
            return;
        }
        match self.open.entry(iter) {
            Entry::Vacant(e) => {
                e.insert(bytes);
            }
            Entry::Occupied(mut e) => {
                for (cell, b) in e.get_mut().iter_mut().zip(bytes) {
                    *cell += b;
                }
            }
        }
    }

    /// Forget every iteration below `iter`, moving its cell buffer onto
    /// `spent` for the caller to reuse or drop. Called with
    /// [`Monitor::next_iter`](crate::monitor::Monitor::next_iter) after
    /// every scan, this also discards a late snapshot of an iteration
    /// already evaluated.
    pub fn evict_below(&mut self, iter: u32, spent: &mut Vec<Vec<u64>>) {
        while let Some(e) = self.open.first_entry() {
            if *e.key() >= iter {
                break;
            }
            spent.push(e.remove());
        }
    }

    /// Iterations currently held.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// No iteration is held.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

impl IterSource for OpenWindow {
    fn has_iter(&self, job: u32, iter: u32) -> bool {
        job == self.job && self.open.contains_key(&iter)
    }

    fn iter_loads(&self, job: u32, iter: u32) -> Option<PortLoads> {
        let cells = self.open.get(&iter).filter(|_| job == self.job)?;
        Some(PortLoads {
            n_leaves: self.n_leaves,
            n_vspines: self.n_vspines,
            bytes: cells.iter().map(|&b| b as f64).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::monitor::Monitor;

    /// Fill a store with `iters` iterations of a 2-leaf × 2-vspine byte
    /// matrix.
    fn producer_store(iters: &[[u64; 4]]) -> CounterStore {
        let mut s = CounterStore::new(2, 2);
        for (i, m) in iters.iter().enumerate() {
            for (p, &b) in m.iter().enumerate() {
                if b > 0 {
                    s.record(
                        (p / 2) as u32,
                        (p % 2) as u32,
                        CollectiveTag {
                            job: 1,
                            iter: i as u32,
                        },
                        (p / 2) as u32,
                        b,
                        SimTime::from_ns(100 * i as u64),
                    );
                }
            }
        }
        s
    }

    #[test]
    fn sequence_round_trips_through_apply() {
        let store = producer_store(&[[10, 20, 30, 40], [10, 20, 30, 40], [5, 20, 30, 40]]);
        let seq = CounterSnapshot::sequence_from(&store, 1);
        assert_eq!(seq.len(), 3);
        assert!(seq[2].last && !seq[0].last && !seq[1].last);
        assert_eq!(seq[0].bytes, vec![10, 20, 30, 40]);

        let mut rebuilt = seq[0].new_store();
        for s in &seq {
            s.apply(&mut rebuilt);
        }
        for i in 0..3u32 {
            assert_eq!(
                rebuilt.get(1, i).unwrap().bytes,
                store.get(1, i).unwrap().bytes
            );
        }
    }

    #[test]
    fn incremental_monitor_matches_offline_on_rebuilt_store() {
        let store = producer_store(&[
            [100, 100, 100, 100],
            [100, 100, 100, 100],
            [90, 100, 100, 100],
        ]);
        let mut offline = Monitor::new_learned(1, Detector::new(0.01), 1);
        offline.scan(&store, true);

        let seq = CounterSnapshot::sequence_from(&store, 1);
        let mut rebuilt = seq[0].new_store();
        let mut online = Monitor::new_learned(1, Detector::new(0.01), 1);
        for s in &seq {
            s.apply(&mut rebuilt);
            online.scan(&rebuilt, s.last);
        }
        assert_eq!(online.alarms, offline.alarms);
        assert_eq!(online.iter_max_dev, offline.iter_max_dev);
    }

    #[test]
    fn snapshot_survives_json() {
        let store = producer_store(&[[1, 2, 3, 4]]);
        let mut seq = CounterSnapshot::sequence_from(&store, 1);
        seq[0].fabric = "fabric-007".into();
        let line = serde_json::to_string(&seq[0]).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, seq[0]);
    }
}
