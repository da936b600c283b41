//! What a reader of the per-sender counters sees, pinned run by run: every
//! `port_src_bytes(row, vspine, src)` cell of every `(job, iteration)`
//! entry, and the `PortSrcLoads::from_counters` copy of each entry, each
//! folded into one FNV-1a digest per store. The runs cover a port that only
//! ever sees one sender (a ring all-reduce), ports that see many
//! (halving-doubling, a fully tagged AllToAll), the 3-level agg store, a
//! store grown by memo replay, and a store rebuilt from snapshots. How the
//! store holds the cells may change; these digests may not.

use flowpulse::eval::build_schedule;
use flowpulse::prelude::*;
use fp_collectives::alltoall::alltoall_uniform;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::topology::Clos3Spec;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `[port_src_bytes over every cell, PortSrcLoads::from_counters]` of
/// every entry, in key order.
fn digest(c: &CounterStore) -> [u64; 2] {
    let (mut cells, mut loads) = (Fnv::new(), Fnv::new());
    for (job, iter) in c.keys() {
        let e = c.get(job, iter).unwrap();
        let (rows, vspines, srcs) = e.dims();
        cells.u64(((job as u64) << 32) | iter as u64);
        for row in 0..rows as u32 {
            for v in 0..vspines as u32 {
                for src in 0..srcs as u32 {
                    cells.u64(e.port_src_bytes(row, v, src));
                }
            }
        }
        let l = PortSrcLoads::from_counters(e);
        for x in [l.n_leaves, l.n_vspines, l.n_src] {
            loads.u64(x as u64);
        }
        l.bytes.iter().for_each(|b| loads.u64(b.to_bits()));
    }
    [cells.0, loads.0]
}

/// Ports, over all entries, at which more than one source leaf sent bytes.
fn multi_sender_ports(c: &CounterStore) -> usize {
    let mut n = 0;
    for (job, iter) in c.keys() {
        let e = c.get(job, iter).unwrap();
        let (rows, vspines, srcs) = e.dims();
        for row in 0..rows as u32 {
            for v in 0..vspines as u32 {
                let senders = (0..srcs as u32).filter(|&s| e.port_src_bytes(row, v, s) > 0);
                n += usize::from(senders.count() > 1);
            }
        }
    }
    n
}

fn pin(name: &str, want: [u64; 2], c: &CounterStore) {
    let got = digest(c);
    assert_eq!(got, want, "{name} moved: {got:#018x?}");
}

/// A 16×8 fat tree running `spec`'s collective, one host per leaf.
fn fabric_run(spec: &TrialSpec, memo: bool) -> RawRun {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: spec.leaves,
        spines: spec.spines,
        ..Default::default()
    });
    let rcfg = RunnerConfig {
        iterations: spec.iterations,
        jitter: spec.jitter,
        ..Default::default()
    };
    Scenario {
        memo,
        ..Scenario::new(
            topo,
            build_schedule(spec),
            rcfg,
            spec.sim.clone(),
            spec.seed,
        )
    }
    .run()
}

fn spec_16x8(collective: CollectiveKind) -> TrialSpec {
    TrialSpec {
        leaves: 16,
        spines: 8,
        bytes_per_node: 1024 * 1024,
        iterations: 3,
        collective,
        jitter: JitterModel::None,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn ring_ports_and_their_rebuilt_store() {
    let run = fabric_run(&spec_16x8(CollectiveKind::RingAllReduce), false);
    assert_eq!(
        multi_sender_ports(&run.counters),
        0,
        "a ring port has one sender"
    );
    pin(
        "16x8 ring",
        [0xeb08_1d1a_0137_ba97, 0x3fa5_ddf0_88cc_2acd],
        &run.counters,
    );
    let snaps = CounterSnapshot::sequence_from(&run.counters, 1);
    let mut rebuilt = snaps[0].new_store();
    for s in &snaps {
        s.apply(&mut rebuilt);
    }
    pin(
        "store rebuilt from snapshots",
        [0xf15f_fd3c_6337_ba97, 0x8e5f_7ac7_057d_2acd],
        &rebuilt,
    );
}

#[test]
fn halving_doubling_ports() {
    let run = fabric_run(&spec_16x8(CollectiveKind::HalvingDoubling), false);
    assert!(multi_sender_ports(&run.counters) > 0);
    pin(
        "16x8 halving-doubling",
        [0x8a5d_9730_6ba8_aa97, 0xf646_aa51_a20e_93cd],
        &run.counters,
    );
}

#[test]
fn fully_tagged_alltoall_ports() {
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves: 16,
        spines: 8,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..16).map(HostId).collect();
    let rcfg = RunnerConfig {
        iterations: 2,
        ..Default::default()
    };
    let sched = alltoall_uniform(&hosts, 64 * 1024);
    let run = Scenario::new(topo, sched, rcfg, SimConfig::default(), 31).run();
    assert!(multi_sender_ports(&run.counters) > 0);
    pin(
        "16x8 fully tagged AllToAll",
        [0xf7c9_625f_5829_8944, 0xe7ca_2872_3e7f_0b2d],
        &run.counters,
    );
}

#[test]
fn three_level_agg_ports() {
    let topo = Topology::clos3(Clos3Spec {
        pods: 4,
        leaves_per_pod: 2,
        aggs_per_pod: 2,
        cores_per_group: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..topo.n_hosts() as u32).map(HostId).collect();
    let rcfg = RunnerConfig {
        iterations: 2,
        ..Default::default()
    };
    let sched = ring_allreduce(&hosts, 1024 * 1024);
    let run = Scenario::new(topo, sched, rcfg, SimConfig::default(), 3).run();
    assert!(!run.agg_counters.keys().is_empty(), "no cross-pod traffic");
    pin(
        "3-level leaf tier",
        [0xf68e_c160_2267_9944, 0xf31a_cf40_84f4_79e5],
        &run.counters,
    );
    pin(
        "3-level agg tier",
        [0x9393_8794_c59b_a944, 0xa40d_acde_4089_25e5],
        &run.agg_counters,
    );
}

#[test]
fn memo_replayed_ports() {
    let spec = TrialSpec {
        iterations: 12,
        sim: SimConfig {
            spray: SprayPolicy::LeastLoaded,
            ..Default::default()
        },
        ..spec_16x8(CollectiveKind::RingAllReduce)
    };
    let run = fabric_run(&spec, true);
    assert!(run.memo.hits > 0, "no replay: {:?}", run.memo.fallback);
    pin(
        "16x8 LeastLoaded ring under memo",
        [0xda1b_6e4d_39c4_0fa5, 0x4b08_d656_c342_2fa5],
        &run.counters,
    );
}
