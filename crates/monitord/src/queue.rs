//! Bounded ingestion queue with explicit, counted backpressure.
//!
//! Producers (trial feeds, wire transports) push [`CounterSnapshot`]s;
//! one service worker pops batches. The queue is deliberately a plain
//! `Mutex<VecDeque>` + two condvars: the mutex gives exact depth
//! accounting — which *is* the product here: every time the queue pushes
//! back, the event is counted and visible in `metrics.jsonl`. The one
//! refinement is that each side counts, under the lock, how many threads
//! are parked on its condvar, and the other side notifies only when that
//! count is non-zero: std's `notify_*` is a futex syscall whether or not
//! anyone waits, and a worker that keeps up would otherwise pay one per
//! snapshot.
//!
//! Under the same mutex runs a **return lane** in the other direction:
//! the worker deposits the snapshots it is done with, and a decoding
//! producer ([`crate::wire::feed_lines`]) takes a few back to decode the
//! next lines into. A snapshot's cell buffer and fabric id are heap
//! blocks; allocated by the producer and freed by the worker, every one
//! of them would take the allocator's per-arena lock on both threads and
//! the two stages would run one after the other instead of side by side.

use flowpulse::snapshot::CounterSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What a producer experiences when the queue is full.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum QueuePolicy {
    /// Reject the newest snapshot (counted in `dropped`). Lossy: streams
    /// may miss iterations, which the per-stream monitor tolerates by
    /// stalling at the gap.
    Drop,
    /// Block the producer on the not-full condvar until space frees up
    /// (counted once per blocking push in `blocked`). Lossless.
    Block,
}

impl QueuePolicy {
    /// Stable lowercase name, used in metrics and bench row keys.
    pub fn name(self) -> &'static str {
        match self {
            QueuePolicy::Drop => "drop",
            QueuePolicy::Block => "block",
        }
    }

    /// Parse a policy name (as accepted by `FP_MONITORD_POLICY`).
    pub fn parse(s: &str) -> Option<QueuePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "drop" => Some(QueuePolicy::Drop),
            "block" => Some(QueuePolicy::Block),
            _ => None,
        }
    }
}

/// Spent snapshots a producer takes off the return lane at a time.
const WITHDRAW: usize = 16;

/// One queued snapshot, stamped at enqueue so the service can report
/// queue-wait latency.
pub(crate) struct Item {
    pub enqueued: Instant,
    pub snap: CounterSnapshot,
}

struct State {
    q: VecDeque<Item>,
    /// The return lane: processed snapshots, kept for the heap blocks
    /// they own. Never more than `cap`.
    spare: Vec<CounterSnapshot>,
    closed: bool,
    /// Consumers parked on `not_empty`.
    pop_waiting: usize,
    /// Producers parked on `not_full`.
    push_waiting: usize,
}

/// Monotonic backpressure counters, readable at any time.
#[derive(Copy, Clone, Default, Debug)]
pub struct QueueStats {
    /// Push attempts.
    pub offered: u64,
    /// Snapshots that entered the queue.
    pub accepted: u64,
    /// Snapshots rejected (full under [`QueuePolicy::Drop`], or pushed
    /// after close).
    pub dropped: u64,
    /// Inert: always 0. The timed-wait policy it counted is gone; the
    /// field stays only because the frozen `benchmark/` package reads it.
    pub parked: u64,
    /// Pushes that had to block at least once.
    pub blocked: u64,
}

/// The bounded snapshot queue shared between producers and the service
/// worker.
pub struct IngestQueue {
    state: Mutex<State>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
    policy: QueuePolicy,
    offered: AtomicU64,
    accepted: AtomicU64,
    dropped: AtomicU64,
    blocked: AtomicU64,
}

impl IngestQueue {
    /// A queue holding at most `cap` snapshots, applying `policy` when
    /// full.
    pub fn new(cap: usize, policy: QueuePolicy) -> Self {
        IngestQueue {
            state: Mutex::new(State {
                q: VecDeque::with_capacity(cap.min(4096)),
                spare: Vec::new(),
                closed: false,
                pop_waiting: 0,
                push_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
            policy,
            offered: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
        }
    }

    /// The policy this queue was built with.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Offer one snapshot. Returns `false` if it was dropped (full under
    /// the drop policy, or the queue is closed); `Block` producers only
    /// ever see `false` after [`close`](Self::close).
    pub fn push(&self, snap: CounterSnapshot) -> bool {
        self.offer(snap, None)
    }

    /// [`push`](Self::push) for a producer that decodes into recycled
    /// snapshots: a rejected `snap` goes back onto `stash`, and an empty
    /// `stash` is refilled from the return lane under the lock the push
    /// holds anyway.
    pub(crate) fn push_recycling(
        &self,
        snap: CounterSnapshot,
        stash: &mut Vec<CounterSnapshot>,
    ) -> bool {
        self.offer(snap, Some(stash))
    }

    fn offer(&self, snap: CounterSnapshot, stash: Option<&mut Vec<CounterSnapshot>>) -> bool {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        if st.q.len() >= self.cap && !st.closed && self.policy == QueuePolicy::Block {
            self.blocked.fetch_add(1, Ordering::Relaxed);
            st.push_waiting += 1;
            while st.q.len() >= self.cap && !st.closed {
                st = self.not_full.wait(st).unwrap();
            }
            st.push_waiting -= 1;
        }
        // Still full only under the drop policy: a blocked push waited.
        if st.closed || st.q.len() >= self.cap {
            drop(st);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(stash) = stash {
                stash.push(snap);
            }
            return false;
        }
        st.q.push_back(Item {
            enqueued: Instant::now(),
            snap,
        });
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(stash) = stash.filter(|s| s.is_empty()) {
            let keep = st.spare.len().saturating_sub(WITHDRAW);
            stash.extend(st.spare.drain(keep..));
        }
        // Read under the lock: a consumer bumps `pop_waiting` before its
        // wait releases the mutex, so it is either counted here or will
        // see this item when it takes the lock.
        let wake = st.pop_waiting > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
        true
    }

    /// Move up to `max` snapshots onto `batch` — a buffer the worker keeps
    /// and empties between calls — blocking while the queue is empty and
    /// open. Returns the depth left behind, or `None` once the queue is
    /// closed *and* drained — the worker's shutdown signal. `spent` — the
    /// snapshots the worker finished since its last call — is emptied onto
    /// the return lane first; what the lane has no room for is freed.
    pub(crate) fn pop_batch(
        &self,
        max: usize,
        spent: &mut Vec<CounterSnapshot>,
        batch: &mut Vec<Item>,
    ) -> Option<usize> {
        let mut st = self.state.lock().unwrap();
        let room = self.cap - st.spare.len();
        st.spare.extend(spent.drain(..room.min(spent.len())));
        if st.q.is_empty() && !st.closed {
            st.pop_waiting += 1;
            while st.q.is_empty() && !st.closed {
                st = self.not_empty.wait(st).unwrap();
            }
            st.pop_waiting -= 1;
        }
        if st.q.is_empty() {
            return None;
        }
        let n = st.q.len().min(max.max(1));
        batch.extend(st.q.drain(..n));
        let depth = st.q.len();
        let wake = st.push_waiting > 0;
        drop(st);
        if wake {
            self.not_full.notify_all();
        }
        spent.clear();
        Some(depth)
    }

    /// Close the queue: subsequent pushes fail, blocked producers wake and
    /// give up, and the worker drains what is left then exits.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Snapshots currently enqueued.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().q.len()
    }

    /// Spent snapshots waiting on the return lane (at most the queue's
    /// capacity).
    pub fn spare_buffers(&self) -> usize {
        self.state.lock().unwrap().spare.len()
    }

    /// Current backpressure counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            offered: self.offered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            parked: 0,
            blocked: self.blocked.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn snap(iter: u32) -> CounterSnapshot {
        CounterSnapshot {
            fabric: "f".into(),
            job: 1,
            iter,
            n_leaves: 1,
            n_vspines: 1,
            t_ns: iter as u64,
            bytes: vec![1],
            last: false,
        }
    }

    #[test]
    fn drop_policy_rejects_when_full_and_counts() {
        let q = IngestQueue::new(2, QueuePolicy::Drop);
        assert!(q.push(snap(0)));
        assert!(q.push(snap(1)));
        assert!(!q.push(snap(2)));
        let s = q.stats();
        assert_eq!((s.offered, s.accepted, s.dropped), (3, 2, 1));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn block_policy_is_lossless_under_contention() {
        let q = Arc::new(IngestQueue::new(2, QueuePolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let (mut seen, mut batch) = (0u64, Vec::new());
                while q.pop_batch(1, &mut Vec::new(), &mut batch).is_some() {
                    seen += batch.drain(..).len() as u64;
                    std::thread::sleep(Duration::from_micros(50));
                }
                seen
            })
        };
        for i in 0..64 {
            assert!(q.push(snap(i)));
        }
        q.close();
        assert_eq!(consumer.join().unwrap(), 64);
        let s = q.stats();
        assert_eq!(s.dropped, 0);
        assert!(s.blocked > 0, "tiny queue must have pushed back");
        assert_eq!(s.parked, 0, "no policy takes timed waits");
    }

    #[test]
    fn policy_names_round_trip_and_park_is_unknown() {
        for p in [QueuePolicy::Drop, QueuePolicy::Block] {
            assert_eq!(QueuePolicy::parse(p.name()), Some(p));
            assert_eq!(QueuePolicy::parse(&p.name().to_ascii_uppercase()), Some(p));
        }
        for bad in ["park", "", "dorp", "block "] {
            assert_eq!(QueuePolicy::parse(bad), None, "{bad:?}");
        }
    }

    /// No lost wake-up and exact accounting with notifications sent only
    /// to parked threads: 4 producers against a consumer that sometimes
    /// sleeps (so both sides really park), over both policies, tiny
    /// capacities and both batch extremes. A lost wake-up hangs the test.
    #[test]
    fn waiter_aware_wakeups_lose_nothing_under_stress() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 400;
        for policy in [QueuePolicy::Block, QueuePolicy::Drop] {
            for cap in [1, 2, 8] {
                for batch_max in [1, 64] {
                    let q = IngestQueue::new(cap, policy);
                    let processed = std::thread::scope(|s| {
                        let consumer = s.spawn(|| {
                            let mut seen = 0u64;
                            let mut batches = 0u64;
                            let mut batch = Vec::new();
                            while let Some(depth) =
                                q.pop_batch(batch_max, &mut Vec::new(), &mut batch)
                            {
                                assert!(!batch.is_empty() && batch.len() <= batch_max);
                                assert!(depth <= cap);
                                seen += batch.drain(..).len() as u64;
                                batches += 1;
                                if batches.is_multiple_of(7) {
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                            }
                            seen
                        });
                        let producers: Vec<_> = (0..PRODUCERS)
                            .map(|p| {
                                let q = &q;
                                s.spawn(move || {
                                    for i in 0..PER_PRODUCER {
                                        q.push(snap((p * PER_PRODUCER + i) as u32));
                                        if i % 64 == 63 {
                                            // Let the consumer drain and park.
                                            std::thread::sleep(Duration::from_micros(150));
                                        }
                                    }
                                })
                            })
                            .collect();
                        for p in producers {
                            p.join().unwrap();
                        }
                        q.close();
                        consumer.join().unwrap()
                    });
                    let st = q.stats();
                    let what = format!("{} cap={cap} batch_max={batch_max}", policy.name());
                    assert_eq!(st.offered, PRODUCERS * PER_PRODUCER, "{what}");
                    assert_eq!(st.offered, st.accepted + st.dropped, "{what}");
                    assert_eq!(st.accepted, processed, "{what}");
                    if policy != QueuePolicy::Drop {
                        assert_eq!(st.dropped, 0, "{what}");
                    }
                    assert_eq!(q.depth(), 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn return_lane_is_bounded_and_feeds_an_empty_stash() {
        let q = IngestQueue::new(2, QueuePolicy::Drop);
        let mut stash = Vec::new();
        assert!(q.push_recycling(snap(0), &mut stash));
        assert!(stash.is_empty(), "nothing has come back yet");
        // The worker hands back three; the lane keeps `cap` of them.
        let mut spent = vec![snap(10), snap(11), snap(12)];
        let mut batch = Vec::new();
        q.pop_batch(8, &mut spent, &mut batch).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(spent.is_empty());
        assert_eq!(q.spare_buffers(), 2);
        // A push with an empty stash withdraws them, a plain push does not.
        assert!(q.push(snap(1)));
        assert_eq!(q.spare_buffers(), 2);
        assert!(q.push_recycling(snap(2), &mut stash));
        assert_eq!(stash.iter().map(|s| s.iter).collect::<Vec<_>>(), [10, 11]);
        assert_eq!(q.spare_buffers(), 0);
        // Full under `drop`: the rejected snapshot lands on the stash whole.
        let mut big = snap(3);
        big.bytes = Vec::with_capacity(128);
        big.bytes.push(7);
        assert!(!q.push_recycling(big, &mut stash));
        let back = stash.last().unwrap();
        assert_eq!((back.iter, back.bytes.capacity()), (3, 128));
        // So is one pushed after close.
        q.close();
        assert!(!q.push_recycling(snap(4), &mut stash));
        assert_eq!(stash.last().unwrap().iter, 4);
        assert_eq!(q.stats().dropped, 2);
    }

    #[test]
    fn push_after_close_fails() {
        let q = IngestQueue::new(4, QueuePolicy::Block);
        q.close();
        assert!(!q.push(snap(0)));
        assert_eq!(q.stats().dropped, 1);
    }
}
