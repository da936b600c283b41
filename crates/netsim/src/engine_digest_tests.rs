//! What the engine produces, pinned: `head_timer_tests`' 48-case corpus run
//! through `delay_class_tests::run` on both schedulers, folded into one
//! FNV-1a digest per kind of output. The literals were taken before
//! `sim.rs` was carved into hosts, link changes and telemetry; a carve that
//! moves one event, byte, trace record or sampler row fails here.
//!
//! The corpus is what no `results/*.json` exercises — no sweep schedules a
//! fault: flaps, entropy-recycle verbs, the sampler, three-level fabrics,
//! every spray backend and PFC storms. Applied controls are digested by
//! time, link, direction and verb name, never by schedule index.

use super::delay_class_tests::{run, Outcome, Scenario};
use super::head_timer_tests::scenario;
use super::*;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn debug(&mut self, x: &impl std::fmt::Debug) {
        self.bytes(format!("{x:?}").as_bytes());
    }
}

/// What each digest covers, in order.
const PARTS: [&str; 6] = [
    "stats",
    "counters",
    "agg_counters",
    "trace",
    "samples",
    "applied_controls",
];

fn fold(h: &mut [Fnv; 6], o: &Outcome) {
    h[0].u64(o.events);
    h[0].u64(o.end.as_ns());
    h[0].bytes(o.stats.as_bytes());
    h[0].u64(o.rto_stale_skips);
    h[1].bytes(o.counters.as_bytes());
    h[2].bytes(o.agg_counters.as_bytes());
    h[3].debug(&o.trace);
    h[4].debug(&o.samples);
    h[5].u64(o.applied_controls.len() as u64);
    for c in &o.applied_controls {
        h[5].u64(c.at.as_ns());
        h[5].u64(c.action.link.0 as u64);
        h[5].u64(c.action.bidirectional as u64);
        h[5].bytes(c.action.verb.name().as_bytes());
    }
}

#[test]
fn the_corpus_produces_the_pinned_bytes_on_both_schedulers() {
    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let mut h = std::array::from_fn(|_| Fnv(0xcbf2_9ce4_8422_2325));
        for case in 0..48 {
            let (o, _) = run(Scenario {
                sched,
                ..scenario(case)
            });
            fold(&mut h, &o);
        }
        let got = h.map(|f| f.0);
        for (i, part) in PARTS.iter().enumerate() {
            assert_eq!(got[i], PINNED[i], "{part} moved on {sched:?}: {got:#018x?}");
        }
    }
}

const PINNED: [u64; 6] = [
    0x86df_393f_a551_7a69,
    0x3a9f_fd21_9378_5fbe,
    0x130a_533a_f4bf_7b16,
    0x558d_632c_cce1_7261,
    0x68f2_c6ab_9100_7dc3,
    0x3e0d_833b_bac2_994b,
];
