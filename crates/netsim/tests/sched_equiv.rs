//! Property tests of the future-event list against a reference model.
//!
//! The heap is driven with random push / reserve / peek / pop scripts —
//! including equal-timestamp bursts (the FIFO tie-break regime), far-future
//! times past 2^32 ns and the *backdated* pushes lazy RTO cancellation
//! produces — and must pop exactly what a sorted map keyed on
//! `(time, sequence)` pops, at every step. The trial-level half (a result
//! that does not depend on the inert `SimConfig::sched` setting) lives in
//! `fp-bench`'s determinism suite.

use std::collections::BTreeMap;

use fp_netsim::engine::{EventKind, EventQueue, Scheduler};
use fp_netsim::ids::HostId;
use fp_netsim::time::SimTime;
use proptest::prelude::*;

/// Far enough that a 32-bit nanosecond clock would wrap.
const FAR_NS: u64 = 1 << 32;

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

/// Decode one raw `u64` into a push offset: same-timestamp bursts, near
/// futures, the RTO-scale offset, wide spreads and far futures.
fn decode_offset(raw: u64) -> u64 {
    match raw % 16 {
        0..=4 => 0,
        5..=7 => 1 + (raw >> 4) % 300,
        8..=9 => 5_000,
        10..=11 => 1 + (raw >> 4) % 1_000_000,
        12 => 70_000,
        13..=14 => FAR_NS + (raw >> 4) % 5,
        _ => FAR_NS * 2 + (raw >> 4) % 1_000_000_000,
    }
}

/// The reference: pending `(time, seq) → token`, and the sequence counter
/// that pushes and reservations share.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(u64, u64), u64>,
    seq: u64,
}

/// Apply one scripted op to the heap and the model; `Err` on divergence.
fn step(
    heap: &mut EventQueue,
    model: &mut Model,
    now: &mut u64,
    next_token: &mut u64,
    raw: u64,
) -> Result<(), String> {
    // One op in sixteen reserves a sequence number without pushing (the
    // pipe-insert shape): the tie-break counter advances, the push count
    // must not.
    if raw % 16 == 7 {
        let got = heap.reserve_seq();
        if got != model.seq {
            return Err(format!("reserved seq {got}, model {}", model.seq));
        }
        model.seq += 1;
        return Ok(());
    }
    if raw % 4 < 2 {
        // One push in four is backdated below the clock.
        let at = if raw % 8 == 1 {
            now.saturating_sub(decode_offset(raw >> 3))
        } else {
            *now + decode_offset(raw >> 2)
        };
        heap.push(SimTime::from_ns(at), wake(*next_token));
        model.pending.insert((at, model.seq), *next_token);
        model.seq += 1;
        *next_token += 1;
        return Ok(());
    }
    // Pop everything due within a horizon a little past the clock — the
    // event loop's peek-then-pop.
    let horizon = *now + decode_offset(raw >> 2);
    loop {
        let head = heap.peek_next().map(|(t, s)| (t.as_ns(), s));
        let want = model.pending.keys().next().copied();
        if head != want {
            return Err(format!("head {head:?}, model {want:?}"));
        }
        match want {
            Some((at, seq)) if at <= horizon => {
                let tok = model.pending.remove(&(at, seq)).expect("model head");
                let (t, k) = heap.pop().ok_or("heap drained early")?;
                if (t.as_ns(), token(k)) != (at, tok) {
                    return Err(format!("popped ({t}, {}), model ({at}, {tok})", token(k)));
                }
                *now = at;
            }
            _ => break,
        }
    }
    // The clock jumps to the horizon even when nothing was due, like a
    // time-limited `Simulator::run_until`.
    *now = (*now).max(horizon);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn heap_matches_a_sorted_reference_on_random_scripts(script in proptest::collection::vec(0u64..u64::MAX, 1..200)) {
        let mut heap = EventQueue::default();
        let mut model = Model::default();
        let (mut now, mut next_token) = (0u64, 0u64);
        for raw in script {
            if let Err(e) = step(&mut heap, &mut model, &mut now, &mut next_token, raw) {
                prop_assert!(false, "{}", e);
            }
            prop_assert_eq!(heap.len(), model.pending.len());
        }
        // Drain: the leftovers come out in the model's order too.
        for ((at, _), tok) in std::mem::take(&mut model.pending) {
            let (t, k) = heap.pop().expect("heap holds the model's tail");
            prop_assert_eq!((t.as_ns(), token(k)), (at, tok));
        }
        prop_assert!(heap.pop().is_none());
        // Every event ever filed was popped; reservations never count.
        let s = heap.stats();
        prop_assert_eq!(s.pushes, s.pops);
        prop_assert_eq!(s.pushes, next_token, "one push per token, none per reservation");
    }

    fn equal_timestamp_bursts_stay_fifo(burst in 2usize..64, at in 0u64..FAR_NS * 2) {
        let mut heap = EventQueue::default();
        let t = SimTime::from_ns(at);
        for tok in 0..burst as u64 {
            heap.push(t, wake(tok));
        }
        for expect in 0..burst as u64 {
            let (ta, ka) = heap.pop().expect("heap holds the burst");
            prop_assert_eq!(ta, t);
            prop_assert_eq!(token(ka), expect);
        }
    }
}
