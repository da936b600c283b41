//! Property tests for the delivery pipes.
//!
//! A model-level test drives the [`FrontHeap`] + FIFO pipe machinery
//! exactly the way the engine does — pipe inserts reserve a scheduler
//! sequence number, the dispatcher pops whichever of (scheduler head,
//! front head) orders first by `(time, seq)` — against random scripts
//! that interleave scheduler traffic (including the *backdated* pushes
//! lazy RTO cancellation produces) on **both** scheduler backends. The
//! model uses one pipe per link (the finest legal granularity; the
//! simulator coalesces same-latency links, which only merges already-
//! sorted streams). The property: per-link delivery order equals
//! per-link injection order (the FIFO invariant), and both backends
//! dispatch the identical global sequence.
//!
//! The full-simulator counterpart — random faulted fabrics on both
//! backends with the scheduled/executed accounting identity — lives in
//! `src/delay_class_tests.rs`, which also varies the delay-class bound.

use std::collections::VecDeque;

use fp_netsim::engine::{EventHeap, EventKind, Scheduler};
use fp_netsim::ids::HostId;
use fp_netsim::pipeline::{FrontHeap, PipeFront};
use fp_netsim::time::SimTime;
use fp_netsim::wheel::TimingWheel;
use proptest::prelude::*;

const NLINKS: usize = 8;

fn wake(token: u64) -> EventKind {
    EventKind::Wake {
        host: HostId(0),
        token,
    }
}

/// One dispatched occurrence, for cross-backend comparison.
#[derive(Copy, Clone, PartialEq, Debug)]
enum Dispatched {
    /// A pipeline head delivery: (arrival, reserved seq, link, inject id).
    Delivery(u64, u64, u32, u64),
    /// A scheduler pop: (time, seq is implicit in order) wake token.
    Sched(u64, u64),
}

/// Drive one scheduler backend plus the pipeline machinery with a raw
/// op script; returns the global dispatch log and asserts per-link FIFO.
fn drive<S: Scheduler>(sched: &mut S, script: &[u64]) -> Result<Vec<Dispatched>, String> {
    let mut front = FrontHeap::new();
    // Per-link pipeline of (arrival, seq, inject id).
    let mut pipes: Vec<VecDeque<(SimTime, u64, u64)>> = vec![VecDeque::new(); NLINKS];
    let mut injected: Vec<Vec<u64>> = vec![Vec::new(); NLINKS];
    let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); NLINKS];
    let mut last_at = [0u64; NLINKS];
    let mut log = Vec::new();
    let mut now = 0u64;
    let mut next_inject = 0u64;
    let mut next_token = 0u64;

    // Dispatch the earlier of (scheduler head, front head) by (time, seq),
    // exactly the engine's main-loop comparison.
    let dispatch_one = |sched: &mut S,
                        front: &mut FrontHeap,
                        pipes: &mut Vec<VecDeque<(SimTime, u64, u64)>>,
                        delivered: &mut Vec<Vec<u64>>,
                        log: &mut Vec<Dispatched>,
                        now: &mut u64|
     -> Result<bool, String> {
        let f = front.peek();
        let from_front = match (sched.peek_next(), f) {
            (None, None) => return Ok(false),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((t, s)), Some(f)) => (f.at, f.seq) < (t, s),
        };
        if from_front {
            let f = f.unwrap();
            let link = f.pipe as usize;
            let (at, seq, id) = pipes[link].pop_front().ok_or("armed link has empty pipe")?;
            if (at, seq) != (f.at, f.seq) {
                return Err(format!(
                    "front heap head {:?} disagrees with pipe head {:?}",
                    (f.at, f.seq),
                    (at, seq)
                ));
            }
            match pipes[link].front() {
                Some(&(nat, nseq, _)) => front.replace_top(PipeFront {
                    at: nat,
                    seq: nseq,
                    pipe: f.pipe,
                }),
                None => {
                    front.pop_top();
                }
            }
            delivered[link].push(id);
            *now = (*now).max(at.as_ns());
            log.push(Dispatched::Delivery(at.as_ns(), seq, f.pipe, id));
        } else {
            let (at, kind) = sched.pop().ok_or("peeked scheduler is empty")?;
            let token = match kind {
                EventKind::Wake { token, .. } => token,
                _ => unreachable!("script only schedules Wake"),
            };
            *now = (*now).max(at.as_ns());
            log.push(Dispatched::Sched(at.as_ns(), token));
        }
        Ok(true)
    };

    for &raw in script {
        match raw % 8 {
            // Pipeline insert: reserve a seq (never a push), arm if idle.
            0..=2 => {
                let link = ((raw >> 3) % NLINKS as u64) as usize;
                let dt = (raw >> 6) % 100;
                // Serialization is sequential per link, so arrivals
                // strictly increase.
                let at = SimTime::from_ns(last_at[link].max(now) + 1 + dt);
                last_at[link] = at.as_ns();
                let seq = sched.reserve_seq();
                if pipes[link].is_empty() {
                    front.arm(PipeFront {
                        at,
                        seq,
                        pipe: link as u32,
                    });
                }
                pipes[link].push_back((at, seq, next_inject));
                injected[link].push(next_inject);
                next_inject += 1;
            }
            // Scheduler push; one flavor is backdated below `now`, the
            // stale-RTO shape.
            3..=4 => {
                let dt = (raw >> 6) % 10_000;
                let at = if raw & 32 != 0 {
                    SimTime::from_ns(now.saturating_sub(dt))
                } else {
                    SimTime::from_ns(now + dt)
                };
                sched.push(at, wake(next_token));
                next_token += 1;
            }
            // Dispatch a few events.
            _ => {
                let k = raw % 4 + 1;
                for _ in 0..k {
                    if !dispatch_one(
                        sched,
                        &mut front,
                        &mut pipes,
                        &mut delivered,
                        &mut log,
                        &mut now,
                    )? {
                        break;
                    }
                }
            }
        }
    }
    // Drain everything.
    while dispatch_one(
        sched,
        &mut front,
        &mut pipes,
        &mut delivered,
        &mut log,
        &mut now,
    )? {}

    // The FIFO invariant: each link delivered exactly what was injected,
    // in injection order.
    for link in 0..NLINKS {
        if delivered[link] != injected[link] {
            return Err(format!(
                "link {link} delivery order {:?} != injection order {:?}",
                delivered[link], injected[link]
            ));
        }
    }
    Ok(log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Per-link delivery order equals per-link injection order under
    /// arbitrary interleavings of pipeline inserts, scheduler pushes
    /// (including backdated ones) and dispatches — and the heap and wheel
    /// backends dispatch the identical global sequence.
    #[test]
    fn per_link_delivery_order_equals_injection_order(
        script in proptest::collection::vec(0u64..u64::MAX, 1..300)
    ) {
        let mut heap = EventHeap::new();
        let mut wheel = TimingWheel::new();
        let a = drive(&mut heap, &script);
        let b = drive(&mut wheel, &script);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a, b, "backends dispatched different sequences");
                let (hs, ws) = (heap.stats(), wheel.stats());
                prop_assert_eq!(hs.pushes, ws.pushes);
                prop_assert_eq!(hs.pops, ws.pops);
                prop_assert_eq!(hs.pushes, hs.pops, "drained: pushes == pops");
            }
            (a, b) => prop_assert!(false, "driver failed: heap={:?} wheel={:?}", a.err(), b.err()),
        }
    }
}
