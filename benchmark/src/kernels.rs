//! Isolating kernels: one tight loop per layer over a public type,
//! reported as time per operation. They do not depend on the workload, so
//! every traced run reports the same set.
//!
//! Kernel time x the matching count of a unit is an *estimate* of that
//! layer's share of the engine run (caches and branch predictors behave
//! better in a tight loop); the remainder is reported as
//! `netsim.sim.unattributed_share`, not hidden.

use crate::stats::median;
use flowpulse::detector::Detector;
use flowpulse::localizer::Localizer;
use flowpulse::model::PortLoads;
use flowpulse::monitor::Monitor;
use flowpulse::snapshot::CounterSnapshot;
use fp_monitord::wire::snapshot_line;
use fp_netsim::counters::CounterStore;
use fp_netsim::engine::{EventKind, EventQueue, SchedKind, Scheduler};
use fp_netsim::ids::{HostId, LinkId};
use fp_netsim::packet::CollectiveTag;
use fp_netsim::pipeline::{FrontHeap, PipeFront};
use fp_netsim::rng::splitmix64;
use fp_netsim::spray::{choose, make_sprayer, SprayCtx, SprayPolicy};
use fp_netsim::time::SimTime;
use fp_netsim::transport::AckAccum;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over `REPS` of (time of `f` / `ops`), in nanoseconds.
fn ns_per_op(ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Steady-state scheduler churn over the engine's horizon mix: 4096
/// events pending, every pop schedules a replacement.
fn sched_churn(kind: SchedKind) -> f64 {
    const OFFSETS: [u64; 6] = [120, 480, 1_500, 250_000, 1_000_000, 50_000_000];
    const PENDING: u64 = 4096;
    const OPS: u64 = 200_000;
    let wake = |token| EventKind::Wake {
        host: HostId(0),
        token,
    };
    ns_per_op(OPS, || {
        let mut q = EventQueue::new(kind);
        let mut state = 0xF10Fu64;
        let mut draw = |now: u64| {
            state = splitmix64(state);
            now + OFFSETS[(state % OFFSETS.len() as u64) as usize]
        };
        for i in 0..PENDING {
            q.push(SimTime::from_ns(draw(0)), wake(i));
        }
        let mut sum = 0u64;
        for i in 0..OPS {
            let (at, _) = q.pop().expect("population is never exhausted");
            sum = sum.wrapping_add(at.as_ns());
            q.push(SimTime::from_ns(draw(at.as_ns())), wake(i));
        }
        sum
    })
}

/// Delivery-pipe front heap with two busy pipes (a fat tree's two latency
/// classes): deliver the top and re-arm its pipe's next head; every 64th
/// delivery empties the pipe and arms it again.
fn front_heap() -> f64 {
    const OPS: u64 = 500_000;
    ns_per_op(OPS, || {
        let mut h = FrontHeap::new();
        let mut seq = 0u64;
        let mut front = |at: u64, pipe: u32| {
            seq += 1;
            PipeFront {
                at: SimTime::from_ns(at),
                seq,
                pipe,
            }
        };
        h.arm(front(100, 0));
        h.arm(front(150, 1));
        let mut sum = 0u64;
        for i in 0..OPS {
            let top = h.peek().expect("two pipes stay armed");
            sum = sum.wrapping_add(top.at.as_ns());
            let next = front(top.at.as_ns() + 330 + u64::from(top.pipe) * 170, top.pipe);
            if i % 64 == 63 {
                h.pop_top();
                h.arm(next);
            } else {
                h.replace_top(next);
            }
        }
        sum
    })
}

const CANDS: usize = 16;

/// The loop both spray kernels share, so the boxed and the direct pick are
/// timed in identical surroundings: 16 candidate uplinks whose loads follow
/// the picks. `fresh` builds the pick function anew for every repetition.
fn spray_kernel<P>(mut fresh: impl FnMut() -> P) -> f64
where
    P: FnMut(u64, &[u64], &mut u64, &mut SmallRng) -> usize,
{
    const OPS: u64 = 300_000;
    ns_per_op(OPS, || {
        let mut pick = fresh();
        let mut loads = vec![0u64; CANDS];
        let mut cursor = 0u64;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0u64;
        for i in 0..OPS {
            let k = pick(i, black_box(&loads), &mut cursor, &mut rng);
            loads[k] += 4160;
            if i % 16 == 15 {
                loads.iter_mut().for_each(|l| *l = l.saturating_sub(4160));
            }
            sum += k as u64;
        }
        sum
    })
}

/// One spray decision through the boxed backend the engine holds.
fn spray_pick(policy: SprayPolicy) -> f64 {
    let cands: Vec<LinkId> = (0..CANDS as u32).map(LinkId).collect();
    let slots: Vec<u32> = (0..CANDS as u32).collect();
    spray_kernel(|| {
        let mut sprayer = make_sprayer(policy, CANDS);
        let (cands, slots) = (&cands, &slots);
        move |i: u64, loads: &[u64], cursor: &mut u64, rng: &mut SmallRng| {
            let ctx = SprayCtx {
                flow: (i % 64) as u32,
                src: (i % 32) as u32,
                dst: ((i + 1) % 32) as u32,
                seq: (i / 64) as u32,
                data: true,
                cands,
                loads,
                slots,
            };
            sprayer.pick(&ctx, cursor, rng)
        }
    })
}

/// The same decision as a direct call, no trait object.
fn spray_choose_static() -> f64 {
    spray_kernel(|| {
        |_: u64, loads: &[u64], cursor: &mut u64, rng: &mut SmallRng| {
            choose(SprayPolicy::Adaptive, loads, cursor, rng)
        }
    })
}

fn counters_record() -> f64 {
    const OPS: u64 = 1_000_000;
    ns_per_op(OPS, || {
        let mut store = CounterStore::new(32, 16);
        for i in 0..OPS {
            let tag = CollectiveTag {
                job: 1,
                iter: (i / 250_000) as u32,
            };
            let leaf = (i % 32) as u32;
            store.record(
                leaf,
                (i % 16) as u32,
                tag,
                (leaf + 31) % 32,
                4096,
                SimTime::from_ns(i),
            );
        }
        store.get(1, 0).map_or(0, |c| c.total_bytes())
    })
}

/// Receiver ACK coalescing at the default factor of eight.
fn ack_accum() -> f64 {
    const OPS: u64 = 2_000_000;
    ns_per_op(OPS, || {
        let mut sum = 0u64;
        let mut seq = 0u32;
        while u64::from(seq) < OPS {
            let mut acc = AckAccum::new(seq, false);
            for k in 1..8 {
                acc.add(black_box(seq + k), k == 5);
            }
            sum = sum.wrapping_add(acc.block(seq).mask);
            seq += 8;
        }
        sum
    })
}

fn flat_loads(leaves: u32, vspines: u32, bytes: f64) -> PortLoads {
    let mut p = PortLoads::zeros(leaves as usize, vspines as usize);
    for l in 0..leaves {
        for v in 0..vspines {
            p.add(l, v, bytes);
        }
    }
    p
}

/// One 32x16 expected-vs-observed comparison with one sagging port.
fn detector_compare() -> f64 {
    const OPS: u64 = 20_000;
    let expected = flat_loads(32, 16, 1e6);
    let mut observed = flat_loads(32, 16, 1e6);
    observed.add(3, 5, -5e4);
    let det = Detector::new(0.01);
    ns_per_op(OPS, || {
        (0..OPS)
            .map(|_| {
                det.compare(black_box(&expected), black_box(&observed))
                    .len() as u64
            })
            .sum()
    })
}

/// Ring correlation over one paired alarm plus six unpaired ones.
fn localizer_ring() -> f64 {
    const OPS: u64 = 50_000;
    let alarms = [
        (3, 5),
        (4, 5),
        (9, 1),
        (12, 7),
        (20, 2),
        (25, 0),
        (28, 3),
        (30, 6),
    ];
    let loc = Localizer::default();
    ns_per_op(OPS, || {
        (0..OPS)
            .map(|_| {
                loc.localize_ring(black_box(&alarms), |l| (l + 1) % 32)
                    .cables
                    .len() as u64
            })
            .sum()
    }) / 1e3
}

/// All kernels that work on counter snapshots, over one 240-snapshot
/// 16x8 stream: export from a store, apply into a store, the service's
/// per-snapshot incremental scan, wire encode and decode.
fn snapshot_kernels(stream: &[CounterSnapshot], out: &mut BTreeMap<&'static str, f64>) {
    let n = stream.len() as u64;
    let mut full = stream[0].new_store();
    for s in stream {
        s.apply(&mut full);
    }
    let per_snapshot_us = |ns: f64| ns / 1e3;
    out.insert(
        "core.snapshot.export_us",
        per_snapshot_us(ns_per_op(n, || {
            CounterSnapshot::sequence_from(black_box(&full), stream[0].job).len() as u64
        })),
    );
    out.insert(
        "core.snapshot.apply_us",
        per_snapshot_us(ns_per_op(n, || {
            let mut store = stream[0].new_store();
            for s in stream {
                s.apply(&mut store);
            }
            store.keys().len() as u64
        })),
    );
    // Scan only: the apply between scans is outside the clock.
    let scan_samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut store = stream[0].new_store();
            let mut mon = Monitor::new_learned(stream[0].job, Detector::new(0.01), 1);
            let mut busy = 0.0;
            for s in stream {
                s.apply(&mut store);
                let t0 = Instant::now();
                mon.scan(&store, s.last);
                busy += t0.elapsed().as_secs_f64();
            }
            black_box(mon.alarms.len());
            busy * 1e6 / n as f64
        })
        .collect();
    out.insert("core.monitor.scan_us", median(&scan_samples));
    let lines: Vec<String> = stream.iter().map(snapshot_line).collect();
    out.insert(
        "monitord.wire.encode_us",
        per_snapshot_us(ns_per_op(n, || {
            stream.iter().map(|s| snapshot_line(s).len() as u64).sum()
        })),
    );
    out.insert(
        "monitord.wire.decode_us",
        per_snapshot_us(ns_per_op(n, || {
            lines
                .iter()
                .map(|l| {
                    let s: CounterSnapshot = serde_json::from_str(l).expect("own wire line parses");
                    u64::from(s.iter)
                })
                .sum()
        })),
    );
}

/// Run every kernel. `stream` is one synthetic monitord stream.
pub fn run_all(stream: &[CounterSnapshot]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("netsim.wheel.push_pop_ns", sched_churn(SchedKind::Wheel));
    out.insert(
        "netsim.engine.heap_push_pop_ns",
        sched_churn(SchedKind::Heap),
    );
    out.insert("netsim.pipeline.front_ns", front_heap());
    for (name, policy) in [
        ("netsim.spray.pick_ns.adaptive", SprayPolicy::Adaptive),
        ("netsim.spray.pick_ns.leastloaded", SprayPolicy::LeastLoaded),
        ("netsim.spray.pick_ns.ecmp", SprayPolicy::Ecmp),
        ("netsim.spray.pick_ns.prime", SprayPolicy::Prime),
        ("netsim.spray.pick_ns.reps", SprayPolicy::Reps),
    ] {
        out.insert(name, spray_pick(policy));
    }
    out.insert("netsim.spray.choose_static_ns", spray_choose_static());
    out.insert("netsim.counters.record_ns", counters_record());
    out.insert("netsim.transport.ack_accum_ns", ack_accum());
    out.insert("core.detector.compare_ns", detector_compare());
    out.insert("core.localizer.ring_us", localizer_ring());
    snapshot_kernels(stream, &mut out);
    out
}
