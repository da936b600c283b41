//! Per-iteration counter snapshots — the wire unit between a fabric and
//! the out-of-process monitor service (`fp-monitord`).
//!
//! A [`CounterSnapshot`] carries one job's closed iteration counters for
//! one fabric: the row-major `(leaf, vspine)` byte matrix the detector
//! compares, plus enough shape metadata for a consumer that has never seen
//! the fabric to run the [`Monitor`] incrementally. For a stream of any
//! length, [`Monitor::score`] takes one snapshot at a time and holds only
//! the iterations it has not evaluated; the offline oracle rebuilds a
//! [`CounterStore`] ([`CounterSnapshot::apply`]) and scans it. The
//! per-source breakdown is deliberately *not* shipped:
//! the temporal-symmetry detector reads only per-port bytes
//! (`PortCells::from_counters`), and ring localization
//! correlates alarms across leaves rather than across senders, so the wire
//! format stays at `n_leaves × n_vspines` u64s per iteration (~4 KiB for
//! the paper's 32×16 fabric) instead of the ~128 KiB per-sender matrix.
//!
//! [`CounterStore`]: fp_netsim::counters::CounterStore
//! [`Monitor`]: crate::monitor::Monitor
//! [`Monitor::score`]: crate::monitor::Monitor::score

use crate::model::{PortCells, PortLoads};
use fp_netsim::counters::{CounterStore, IterCounters};
use fp_netsim::packet::CollectiveTag;
use fp_netsim::time::SimTime;
use serde::{Deserialize, Serialize};

/// One job-iteration's counters from one fabric, as shipped to the
/// monitor service (in-process channel or newline-delimited JSON).
#[derive(Clone, Default, PartialEq, Serialize, Deserialize, Debug)]
pub struct CounterSnapshot {
    /// Stream identity: which fabric produced this snapshot. The trial
    /// harness leaves this empty; a feed stamps a per-stream id before
    /// pushing.
    pub fabric: String,
    /// Monitored job (collective tag sentinel).
    pub job: u32,
    /// Training iteration the counters cover.
    pub iter: u32,
    /// Leaf switch count (counter rows).
    pub n_leaves: u32,
    /// Virtual spine count (monitored ingress ports per leaf).
    pub n_vspines: u32,
    /// Simulated time the iteration's counters closed (its last tagged
    /// packet at any leaf; informational — detection never reads it).
    pub t_ns: u64,
    /// Row-major `[leaf * n_vspines + vspine]` payload byte counters.
    pub bytes: Vec<u64>,
    /// Final snapshot of this `(fabric, job)` stream: the job ended, so
    /// the consumer must flush the trailing iteration and close out
    /// localization.
    pub last: bool,
}

impl CounterSnapshot {
    /// The snapshot of `job`'s iteration `iter` from its entry, moved out
    /// of a leaf-level store ([`CounterStore::take_below`]); `fabric` is
    /// left empty for a feed to stamp and `last` unset.
    pub(crate) fn of_entry(job: u32, iter: u32, entry: IterCounters) -> Self {
        let (n_leaves, n_vspines, _) = entry.dims();
        CounterSnapshot {
            fabric: String::new(),
            job,
            iter,
            n_leaves: n_leaves as u32,
            n_vspines: n_vspines as u32,
            t_ns: entry.last_seen,
            bytes: entry.bytes,
            last: false,
        }
    }

    /// Extract the per-iteration snapshot sequence for `job` from a whole
    /// run's counter store, in scan order. The final snapshot has
    /// [`last`](Self::last) set; `fabric` is left empty for the feed to
    /// stamp. A trial hands each closed entry over as it closes instead;
    /// this export of a finished store is what `benchmark/` times.
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
                    t_ns: c.last_seen,
                    bytes: c.bytes.clone(),
                    last: k + 1 == n,
                }
            })
            .collect()
    }

    /// The byte cells as loads, each `b as f64` — what
    /// [`PortLoads::from_counters`] makes of the same iteration.
    pub fn loads(&self) -> PortLoads {
        PortCells {
            n_leaves: self.n_leaves as usize,
            n_vspines: self.n_vspines as usize,
            bytes: &self.bytes,
        }
        .to_loads()
    }

    /// Replay this snapshot into a consumer-side store so the byte matrix
    /// the [`Monitor`](crate::monitor::Monitor) reads is identical to the
    /// producer's. Only per-port bytes are reconstructed (see the module
    /// docs): the snapshot names no sender, so each port's bytes are
    /// credited to its own leaf, one sender per port, which keeps the
    /// rebuilt entries in their sender-column form. Detection and ring
    /// localization never read that breakdown.
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
