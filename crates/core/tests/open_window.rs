//! Differential oracle for [`OpenWindow`]: a monitor scanning the window
//! must stay in lockstep with one scanning the [`CounterStore`] that
//! [`CounterSnapshot::apply`] rebuilds from the same snapshots, whatever
//! order they arrive in.

use flowpulse::detector::Detector;
use flowpulse::monitor::Monitor;
use flowpulse::snapshot::{CounterSnapshot, OpenWindow};
use proptest::prelude::*;

const LEAVES: u32 = 2;
const VSPINES: u32 = 2;
const JOBS: u32 = 2;

/// One `(fabric, job)` stream as the service keeps it, next to the
/// monitor that reads the shared offline store.
struct Stream {
    window: OpenWindow,
    online: Monitor,
    offline: Monitor,
    /// Where in-order arrivals of this job have got to.
    cursor: u32,
}

impl Stream {
    fn new(job: u32) -> Self {
        let monitor = || Monitor::new_learned(job, Detector::new(0.01), 1);
        Stream {
            window: OpenWindow::new(job, LEAVES, VSPINES),
            online: monitor(),
            offline: monitor(),
            cursor: 0,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gaps, duplicates, out-of-order arrivals, all-zero iterations, late
    /// repeats of evaluated iterations, `last` mid-stream and two jobs on
    /// one fabric: every monitor output is equal after every snapshot, and
    /// the window holds exactly the recorded iterations not evaluated yet.
    #[test]
    fn window_matches_rebuilt_store_in_lockstep(
        ops in collection::vec((0u32..JOBS, 0u32..16, 0u32..16, 0u64..4), 1..60),
    ) {
        // The store is shared by both jobs of the fabric, as a run's is.
        let mut store = fp_netsim::counters::CounterStore::new(LEAVES as usize, VSPINES as usize);
        let mut streams: Vec<Stream> = (0..JOBS).map(Stream::new).collect();
        for (step, (job, where_, what, sag)) in ops.into_iter().enumerate() {
            let st = &mut streams[job as usize];
            let iter = match where_ {
                // Mostly the next iteration in order …
                0..=8 => {
                    st.cursor += 1;
                    st.cursor - 1
                }
                // … sometimes skipping one (a gap the scan stalls at) …
                9 | 10 => {
                    st.cursor += 2;
                    st.cursor - 1
                }
                // … or a repeat of a recent or long-evaluated iteration.
                back => st.cursor.saturating_sub(back - 10),
            };
            let bytes = match what {
                0 | 1 => vec![0; 4],
                2 | 3 => vec![1000 - 40 * sag, 1000, 1000, 0],
                _ => vec![1000 - 40 * sag, 1000, 1000 + 15 * sag, 1000],
            };
            let snap = CounterSnapshot {
                fabric: "f".into(),
                job,
                iter,
                n_leaves: LEAVES,
                n_vspines: VSPINES,
                t_ns: step as u64,
                bytes,
                last: what == 15,
            };

            snap.apply(&mut store);
            st.offline.scan(&store, snap.last);

            st.window.record(snap.iter, snap.bytes);
            st.online.scan(&st.window, snap.last);
            st.window.evict_below(st.online.next_iter(), &mut Vec::new());

            prop_assert_eq!(&st.online.alarms, &st.offline.alarms, "step {}", step);
            prop_assert_eq!(&st.online.iter_max_dev, &st.offline.iter_max_dev, "step {}", step);
            prop_assert_eq!(&st.online.learned_events, &st.offline.learned_events, "step {}", step);
            prop_assert_eq!(st.online.shortfall_ports(0), st.offline.shortfall_ports(0));
            prop_assert_eq!(st.online.next_iter(), st.offline.next_iter());
            let unevaluated = store
                .iters_of(job)
                .into_iter()
                .filter(|&i| i >= st.online.next_iter())
                .count();
            prop_assert_eq!(st.window.len(), unevaluated, "step {}", step);
        }
    }
}
