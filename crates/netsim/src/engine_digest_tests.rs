//! What the engine produces, pinned: `head_timer_tests`' 48-case corpus run
//! through `delay_class_tests::run` on both schedulers, folded into one
//! FNV-1a digest per kind of output. The literals were taken before
//! `sim.rs` was carved into hosts, link changes and telemetry; a carve that
//! moves one event, byte, trace record or sampler row fails here.
//!
//! The corpus is what no `results/*.json` exercises — no sweep schedules a
//! fault: flaps, entropy-recycle verbs, the sampler, three-level fabrics,
//! every spray backend and PFC storms. Applied controls are digested by
//! time, link, direction and verb name, never by schedule index. A second
//! digest pins `spray_cases`, the spray-pick shapes the corpus misses; its
//! literals were taken before the rotating least-loaded pick was fused into
//! one pass. Both digests' `counters` and `agg_counters` literals cover the
//! cells a reader reads — per-port bytes, per-sender bytes and the
//! iteration's last stamp — and were re-taken before the counter's unread
//! columns (packet counts, first-seen stamps) were deleted.

use super::delay_class_tests::{run, topology, Outcome, Scenario};
use super::head_timer_tests::scenario;
use super::*;
use crate::time::SimDuration;

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

/// Spray-pick shapes the corpus reaches rarely or never: Adaptive and
/// LeastLoaded under an entropy-recycle quarantine (on a leaf uplink and on
/// an agg→core uplink), LeastLoaded with PFC pauses, three-level cross-pod
/// spray, an admin-down leaf uplink that shrinks `valid_up`, and deficit
/// half-lives of 0, 1 ns and 2 µs so decay crosses its grid often.
fn spray_cases() -> Vec<Scenario> {
    use spray::SprayPolicy::{Adaptive, LeastLoaded};
    let base = |spray, three_level| Scenario {
        spray,
        three_level,
        hosts_per_leaf: 2,
        ..Scenario::basic(1, 3, 3, 9, 4)
    };
    let tau = SimDuration::from_ns;
    // The first seed whose `link_of(seed)` is a sprayed uplink of the
    // fabric: `run` faults link `seed >> 8` and quarantines `seed >> 16`.
    let aim = |sc: Scenario, link_of: fn(u32) -> u32| {
        let topo = topology(&sc);
        let n = topo.n_links() as u32;
        let sprayed = |s: u64| match topo.links[(link_of(s as u32) % n) as usize].class {
            LinkClass::LeafUp { .. } => !sc.three_level,
            LinkClass::AggUp { .. } => sc.three_level,
            _ => false,
        };
        let seed = (1u64..).find(|&s| sprayed(s)).unwrap();
        Scenario { seed, ..sc }
    };
    let quarantined = |sc| {
        aim(
            Scenario {
                recycle: true,
                ..sc
            },
            |s| s >> 16,
        )
    };
    vec![
        quarantined(base(Adaptive, false)),
        quarantined(Scenario {
            spray_tau: tau(2_000),
            ..base(Adaptive, false)
        }),
        quarantined(base(LeastLoaded, false)),
        quarantined(Scenario {
            spray_tau: tau(2_000),
            ..base(Adaptive, true)
        }),
        Scenario {
            pfc_sel: 2,
            ..base(LeastLoaded, false)
        },
        Scenario {
            spray_tau: tau(2_000),
            ..base(Adaptive, true)
        },
        aim(
            Scenario {
                fault_sel: 3,
                flap: true,
                spray_tau: tau(2_000),
                ..base(Adaptive, false)
            },
            |s| s >> 8,
        ),
        Scenario {
            spray_tau: tau(0),
            ..base(Adaptive, false)
        },
        Scenario {
            spray_tau: tau(1),
            ..base(Adaptive, true)
        },
    ]
}

#[test]
fn the_spray_cases_produce_the_pinned_bytes_on_both_schedulers() {
    for sched in [SchedKind::Heap, SchedKind::Wheel] {
        let mut h = std::array::from_fn(|_| Fnv(0xcbf2_9ce4_8422_2325));
        for sc in spray_cases() {
            let (o, t) = run(Scenario { sched, ..sc });
            assert_eq!(t.spray_avoided_picks > 0, sc.recycle, "{sc:?}");
            if sc.three_level {
                assert_ne!(o.agg_counters, "[]", "no cross-pod traffic: {sc:?}");
            }
            fold(&mut h, &o);
        }
        let got = h.map(|f| f.0);
        for (i, part) in PARTS.iter().enumerate() {
            assert_eq!(
                got[i], PINNED_SPRAY[i],
                "{part} moved on {sched:?}: {got:#018x?}"
            );
        }
    }
}

const PINNED_SPRAY: [u64; 6] = [
    0x9adb_ca64_0718_4408,
    0x4ac1_0757_276a_f20f,
    0x26c1_d175_06c4_8c5b,
    0x8ece_26dc_48d3_34db,
    0xb1e2_47a5_4265_d9a5,
    0xb99d_72da_fb2e_de1d,
];

const PINNED: [u64; 6] = [
    0x86df_393f_a551_7a69,
    0xfd86_a8c0_c0ef_d702,
    0x4126_8d8e_1263_250c,
    0x558d_632c_cce1_7261,
    0x68f2_c6ab_9100_7dc3,
    0x3e0d_833b_bac2_994b,
];
