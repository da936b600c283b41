//! Property test: the heap and wheel schedulers are observably identical.
//!
//! Both backends are driven with the same random push / peek / pop
//! script — including equal-timestamp bursts (the FIFO tie-break regime)
//! and far-future times beyond the wheel horizon (the overflow spill) —
//! and must produce exactly the same pop sequence at every step. This is
//! the unit-level half of the determinism argument; the trial-level half
//! (byte-identical result JSON on `SchedKind::Heap` vs `Wheel`) lives in
//! `fp-bench`'s determinism suite.

use fp_netsim::engine::{EventHeap, EventKind, Scheduler};
use fp_netsim::ids::HostId;
use fp_netsim::time::SimTime;
use fp_netsim::wheel::{TimingWheel, WHEEL_BITS, WHEEL_LEVELS};
use proptest::prelude::*;

/// The wheel covers `[cursor, cursor + 2^32)` ns; anything at or beyond
/// spills to the overflow structure.
const HORIZON_NS: u64 = 1 << (WHEEL_BITS * WHEEL_LEVELS as u32);

fn wake(token: u64) -> EventKind {
    EventKind::Wake {
        host: HostId(0),
        token,
    }
}

fn token(k: EventKind) -> u64 {
    match k {
        EventKind::Wake { token, .. } => token,
        _ => unreachable!("script only schedules Wake events"),
    }
}

/// Decode one raw `u64` into a push offset that stresses a particular
/// scheduler regime: same-timestamp bursts, slot-adjacent near futures,
/// RTO-scale mid futures, cascade-heavy far futures, and overflow times
/// past the wheel horizon.
fn decode_offset(raw: u64) -> u64 {
    match raw % 16 {
        // Equal-timestamp burst: several consecutive pushes decode to the
        // same zero offset, exercising the FIFO tie-break.
        0..=4 => 0,
        5..=7 => 1 + (raw >> 4) % 300,          // level-0 neighborhood
        8..=9 => 5_000,                         // the RoCE-like RTO offset
        10..=11 => 1 + (raw >> 4) % 1_000_000,  // multi-level cascades
        12 => 70_000,                           // a fixed level-2 offset
        13..=14 => HORIZON_NS + (raw >> 4) % 5, // overflow spill (+ ties)
        _ => HORIZON_NS * 2 + (raw >> 4) % 1_000_000_000,
    }
}

/// Pop the earliest event if it is due at or before `horizon` — the
/// event loop's peek-then-pop.
fn pop_due<S: Scheduler>(s: &mut S, horizon: SimTime) -> Option<(SimTime, EventKind)> {
    match s.peek_next() {
        Some((t, _)) if t <= horizon => s.pop(),
        _ => None,
    }
}

/// Apply one scripted op to both schedulers and assert identical behavior.
/// Returns `Err` (proptest failure) on divergence.
fn lockstep(
    heap: &mut EventHeap,
    wheel: &mut TimingWheel,
    now: &mut u64,
    next_token: &mut u64,
    raw: u64,
) -> Result<(), String> {
    // Bits 0..2 select the op; pops outnumber pushes slightly so scripts
    // drain as well as fill. One op flavor in sixteen reserves a sequence
    // number without pushing (the pipeline-insert shape): the tie-break
    // counter advances, the push count must not.
    if raw % 16 == 7 {
        let a = heap.reserve_seq();
        let b = wheel.reserve_seq();
        if a != b {
            return Err(format!("reserved seqs diverged: heap={a} wheel={b}"));
        }
        return Ok(());
    }
    if raw % 4 < 2 {
        // One push flavor in eight is *backdated*: scheduled below `now`,
        // and hence below timestamps both backends have already popped.
        // That is the lazy-RTO shape — a stale timer pops at a future
        // time without advancing the clock, then the engine schedules off
        // its own earlier clock — and must come straight back out first.
        let at = if raw % 8 == 1 {
            SimTime::from_ns(now.saturating_sub(decode_offset(raw >> 3)))
        } else {
            SimTime::from_ns(*now + decode_offset(raw >> 2))
        };
        heap.push(at, wake(*next_token));
        wheel.push(at, wake(*next_token));
        *next_token += 1;
        return Ok(());
    }
    // Pop everything due within a horizon a little past `now`, in lockstep.
    let horizon = SimTime::from_ns(*now + decode_offset(raw >> 2));
    loop {
        let (pa, pb) = (heap.peek_next(), wheel.peek_next());
        if pa != pb {
            return Err(format!("heads diverged: heap={pa:?} wheel={pb:?}"));
        }
        let a = pop_due(heap, horizon);
        let b = pop_due(wheel, horizon);
        match (a, b) {
            (None, None) => break,
            (Some((ta, ka)), Some((tb, kb))) => {
                if ta != tb || token(ka) != token(kb) {
                    return Err(format!(
                        "divergence: heap popped ({}, {}), wheel popped ({}, {})",
                        ta,
                        token(ka),
                        tb,
                        token(kb)
                    ));
                }
                *now = ta.as_ns();
            }
            (a, b) => {
                return Err(format!(
                    "one scheduler drained early: heap={a:?} wheel={b:?}"
                ));
            }
        }
    }
    // The run clock jumps to the horizon even when nothing was due, like a
    // time-limited `Simulator::run_until`.
    *now = (*now).max(horizon.as_ns());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn schedulers_agree_on_random_scripts(script in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
        let mut heap = EventHeap::new();
        let mut wheel = TimingWheel::new();
        let mut now = 0u64;
        let mut next_token = 0u64;
        for raw in script {
            if let Err(e) = lockstep(&mut heap, &mut wheel, &mut now, &mut next_token, raw) {
                prop_assert!(false, "{}", e);
            }
        }
        // Drain both completely: the leftover sequences must match too.
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            match (a, b) {
                (None, None) => break,
                (Some((ta, ka)), Some((tb, kb))) => {
                    prop_assert_eq!(ta, tb);
                    prop_assert_eq!(token(ka), token(kb));
                }
                (a, b) => prop_assert!(false, "tail divergence: heap={:?} wheel={:?}", a, b),
            }
        }
        prop_assert_eq!(heap.len(), 0);
        prop_assert_eq!(wheel.len(), 0);

        // Scheduled-vs-executed accounting is consistent on both backends:
        // every event ever filed was popped (the queues are drained) and
        // the two backends agree on both totals — reservations never leak
        // into the push count.
        let (hs, ws) = (heap.stats(), wheel.stats());
        prop_assert_eq!(hs.pushes, hs.pops, "heap drained: pushes == pops");
        prop_assert_eq!(ws.pushes, ws.pops, "wheel drained: pushes == pops");
        prop_assert_eq!(hs.pushes, ws.pushes);
        prop_assert_eq!(hs.pops, ws.pops);
        prop_assert_eq!(hs.pushes, next_token, "one push per token, none per reservation");
    }

    fn equal_timestamp_bursts_stay_fifo(burst in 2usize..64, at in 0u64..HORIZON_NS * 2) {
        // Directed version of the tie-break property: one shared timestamp,
        // many pushes, FIFO out of both backends.
        let mut heap = EventHeap::new();
        let mut wheel = TimingWheel::new();
        let t = SimTime::from_ns(at);
        for tok in 0..burst as u64 {
            heap.push(t, wake(tok));
            wheel.push(t, wake(tok));
        }
        for expect in 0..burst as u64 {
            let (ta, ka) = heap.pop().expect("heap holds the burst");
            let (tb, kb) = wheel.pop().expect("wheel holds the burst");
            prop_assert_eq!(ta, t);
            prop_assert_eq!(tb, t);
            prop_assert_eq!(token(ka), expect);
            prop_assert_eq!(token(kb), expect);
        }
    }
}
