//! Every run the sweep binaries, examples and tests assemble around a
//! `Simulator` of their own, pinned at its `FP_QUICK` size: the `Stats`
//! JSON, every `(job, iteration)` row of the leaf counters and every row
//! of the agg counters, each folded into one FNV-1a digest. The literals
//! were taken from the hand-built runs, so a harness that sends them all
//! through one door must reproduce every byte of them.
//!
//! Each run now goes through `Scenario::run`: link changes applied before
//! the first event, the measured runner with link changes landing at the
//! first iteration start ≥ k in list order, and any other applications
//! after it in one `MultiApp`. fig2's fabric run used to post its one
//! message by hand; it now sends the same transfer through the runner,
//! which adds the runner's start wake and nothing else.

use flowpulse::prelude::*;
use fp_collectives::prelude::*;
use fp_netsim::prelude::*;
use fp_netsim::topology::Clos3Spec;
use rand::{Rng, SeedableRng};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn cells(c: &CounterStore) -> u64 {
    let mut h = Fnv::new();
    for (job, iter) in c.keys() {
        let row = c.get(job, iter).unwrap();
        h.u64(((job as u64) << 32) | iter as u64);
        row.bytes
            .iter()
            .copied()
            .chain(row.src_cells())
            .for_each(|b| h.u64(b));
        h.u64(row.last_seen);
    }
    h.0
}

/// The digest of a store with no rows: a fat tree has no agg tier.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

fn digest(stats: &Stats, counters: &CounterStore, agg_counters: &CounterStore) -> [u64; 3] {
    let mut s = Fnv::new();
    s.bytes(serde_json::to_string(stats).unwrap().as_bytes());
    [s.0, cells(counters), cells(agg_counters)]
}

fn pin(name: &str, want: [u64; 3], run: RawRun) {
    let got = digest(&run.stats, &run.counters, &run.agg_counters);
    assert_eq!(got, want, "{name} moved: {got:#018x?}");
}

fn set(kind: FaultKind) -> FaultAction {
    FaultAction::Set(kind)
}

fn drop(rate: f64) -> FaultKind {
    FaultKind::SilentDrop { rate }
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    topo: Topology,
    cfg: SimConfig,
    seed: u64,
    before: &[(LinkId, FaultAction)],
    sched: Schedule,
    rcfg: RunnerConfig,
    at_iter: Vec<(u32, LinkId, FaultAction)>,
    extra: Vec<Box<dyn Application>>,
) -> RawRun {
    Scenario {
        before: before.to_vec(),
        at_iter,
        extra,
        ..Scenario::new(topo, sched, rcfg, cfg, seed)
    }
    .run()
}

fn hosts(n: u32) -> Vec<HostId> {
    (0..n).map(HostId).collect()
}

fn fat(leaves: u32, spines: u32) -> Topology {
    Topology::fat_tree(FatTreeSpec {
        leaves,
        spines,
        ..Default::default()
    })
}

fn clos3(pods: u32, per_pod: u32) -> Clos3Spec {
    Clos3Spec {
        pods,
        leaves_per_pod: per_pod,
        aggs_per_pod: per_pod,
        cores_per_group: 2,
        hosts_per_leaf: 1,
        ..Default::default()
    }
}

fn runner(job: u32, iterations: u32) -> RunnerConfig {
    RunnerConfig {
        job,
        iterations,
        ..Default::default()
    }
}

fn jittered(iterations: u32) -> RunnerConfig {
    RunnerConfig {
        jitter: JitterModel::Uniform {
            max: SimDuration::from_us(1),
        },
        ..runner(1, iterations)
    }
}

fn background(msg_bytes: u64, mean_us: u64, until: SimTime) -> Box<dyn Application> {
    Box::new(BackgroundTraffic::new(BackgroundConfig {
        msg_bytes,
        mean_interval: SimDuration::from_us(mean_us),
        until,
    }))
}

#[test]
fn ablate_priority_runs_hold() {
    let want = [
        [0x9c9a_b4a8_b8dd_7147, 0x588d_5e7c_eaf3_8d8f, EMPTY],
        [0xe201_b912_98f9_04cc, 0xa22d_73dc_9f3f_748f, EMPTY],
        [0xcd72_76a5_5dfa_4b68, 0x89ed_9bcb_0946_582d, EMPTY],
    ];
    for (i, (bg, prio)) in [(false, true), (true, true), (true, false)]
        .into_iter()
        .enumerate()
    {
        let rcfg = RunnerConfig {
            prio: if prio {
                Priority::MEASURED
            } else {
                Priority::BACKGROUND
            },
            ..jittered(3)
        };
        let extra = if bg {
            vec![background(1 << 20, 5, SimTime::from_ms(2))]
        } else {
            Vec::new()
        };
        let run = scenario(
            fat(8, 4),
            SimConfig::default(),
            11,
            &[],
            ring_allreduce(&hosts(8), 8 << 20),
            rcfg,
            Vec::new(),
            extra,
        );
        pin(&format!("ablate_priority row {i}"), want[i], run);
    }
}

#[test]
fn threelevel_and_clos3_tour_runs_hold() {
    let spec = clos3(2, 2);
    let want = [
        (
            1000,
            [
                0xa01e_aef1_c5df_572a,
                0x9ab7_8f30_9ca7_dc96,
                0x5579_2458_ce8b_7a2c,
            ],
        ),
        (
            1001,
            [
                0x0b87_77e3_f18e_d102,
                0xe4ba_4f61_ad90_8f61,
                0xabb2_2794_a598_be2b,
            ],
        ),
    ];
    for (seed, want) in want {
        let topo = Topology::clos3(spec.clone());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let group = rng.gen_range(0..spec.aggs_per_pod);
        let slot = rng.gen_range(0..spec.cores_per_group);
        let dst_pod = rng.gen_range(0..spec.pods);
        let bad = topo.core_downlink(topo.core_global(group, slot), dst_pod);
        let n = topo.n_hosts() as u32;
        let run = scenario(
            topo,
            SimConfig::default(),
            seed,
            &[],
            ring_allreduce(&hosts(n), 4 << 20),
            jittered(3),
            vec![(1, bad, set(drop(0.05)))],
            Vec::new(),
        );
        pin(&format!("threelevel seed {seed}"), want, run);
    }

    let topo = Topology::clos3(clos3(4, 2));
    let bad = topo.core_downlink(topo.core_global(1, 0), 3);
    let run = scenario(
        topo,
        SimConfig::default(),
        42,
        &[],
        ring_allreduce(&hosts(8), 8 << 20),
        runner(1, 3),
        vec![(1, bad, set(drop(0.08)))],
        Vec::new(),
    );
    pin(
        "clos3_tour",
        [
            0xb3e1_4f6f_96fe_6508,
            0x887a_b0fc_f189_8a1b,
            0xddb2_f93a_27a8_4a6b,
        ],
        run,
    );
}

#[test]
fn ablate_localize_alltoall_run_holds() {
    let topo = fat(8, 4);
    let bad = topo.downlink(1, 3);
    let peer = topo.peer[bad.idx()];
    let cfg = SimConfig {
        spray: SprayPolicy::Random,
        ..Default::default()
    };
    let run = scenario(
        topo,
        cfg,
        5,
        &[],
        alltoall_uniform(&hosts(8), 4 << 20),
        runner(1, 2),
        vec![(1, bad, set(drop(0.30))), (1, peer, set(drop(0.30)))],
        Vec::new(),
    );
    pin(
        "ablate_localize alltoall",
        [0x99ac_76d6_439a_61d3, 0x8dd1_9448_20fc_5557, EMPTY],
        run,
    );
}

#[test]
fn fig2_runs_and_models_hold() {
    let topo = fat(8, 4);
    let (src, bytes) = (HostId(0), 8 << 20);
    let dst = topo.hosts_of_leaf(4).next().unwrap();
    let sched = Schedule {
        name: "single-flow".into(),
        nodes: vec![src, dst],
        transfers: vec![Transfer {
            src,
            dst,
            bytes,
            step: 0,
        }],
        deps: vec![None],
    };
    let want = [
        (
            [0xd881_796c_82ba_a8fc, 0x0317_f420_f5b5_93dc, EMPTY],
            0x0247_b4c6_2fed_6a88,
        ),
        (
            [0xd881_796c_82ba_a8fc, 0xddc0_8fbc_8860_0bdc, EMPTY],
            0x522f_52ae_94ff_f358,
        ),
    ];
    for (i, cables) in [vec![], vec![(0u32, 1u32), (4, 3)]].into_iter().enumerate() {
        let admin_down: Vec<LinkId> = cables
            .iter()
            .flat_map(|&(leaf, v)| [topo.uplink(leaf, v), topo.downlink(v, leaf)])
            .collect();
        let before: Vec<_> = admin_down
            .iter()
            .map(|&l| (l, set(FaultKind::AdminDown)))
            .collect();
        let mut sim = Simulator::new(topo.clone(), SimConfig::default(), 42);
        for &(l, a) in &before {
            sim.apply_fault_now(l, a, false);
        }
        let tag = CollectiveTag { job: 7, iter: 0 };
        sim.post_message(src, dst, bytes, Some(tag), Priority::MEASURED);
        sim.run();
        let hand = digest(&sim.stats, &sim.counters, &sim.agg_counters);
        assert_eq!(hand, want[i].0, "fig2 hand-posted {i} moved: {hand:#018x?}");

        let mut run = scenario(
            topo.clone(),
            SimConfig::default(),
            42,
            &before,
            sched.clone(),
            runner(7, 1),
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(run.stats.events, sim.stats.events + 1, "one start wake");
        run.stats.events -= 1;
        pin(&format!("fig2 fabric {i}"), want[i].0, run);

        let model =
            SimulationModel::new(SimConfig::default()).predict(&topo, &admin_down, &sched, 7);
        let mut h = Fnv::new();
        h.bytes(format!("{model:?}").as_bytes());
        assert_eq!(h.0, want[i].1, "fig2 model {i} moved: {:#018x}", h.0);
    }
}

#[test]
fn example_runs_hold() {
    let topo = fat(8, 4);
    let even: Vec<HostId> = hosts(8).into_iter().filter(|h| h.0 % 2 == 0).collect();
    let odd: Vec<HostId> = hosts(8).into_iter().filter(|h| h.0 % 2 == 1).collect();
    let job2 = CollectiveRunner::new(ring_allreduce(&odd, 4 << 20), runner(2, 3));
    let run = scenario(
        topo.clone(),
        SimConfig::default(),
        3,
        &[(topo.downlink(0, 2), set(drop(0.04)))],
        ring_allreduce(&even, 8 << 20),
        runner(1, 3),
        Vec::new(),
        vec![
            Box::new(job2),
            background(256 << 10, 10, SimTime::from_ms(2)),
        ],
    );
    pin(
        "multi_job",
        [0xf1e1_0bd6_79ac_2290, 0x9308_8d71_8db2_6e73, EMPTY],
        run,
    );

    let (early, late) = (topo.downlink(1, 3), topo.downlink(2, 5));
    let run = scenario(
        topo,
        SimConfig::default(),
        77,
        &[],
        ring_allreduce(&hosts(8), 8 << 20),
        runner(1, 9),
        vec![
            (0, early, set(drop(0.06))),
            (3, early, FaultAction::Clear),
            (6, late, set(drop(0.03))),
        ],
        Vec::new(),
    );
    pin(
        "learning_demo",
        [0x072c_3182_35ad_2e41, 0x4c8b_3504_3e33_f7bb, EMPTY],
        run,
    );
}

#[test]
fn test_runs_hold() {
    let ring4 = |n| ring_allreduce(&hosts(n), 4 << 20);
    let topo = Topology::clos3(clos3(4, 2));
    let run = scenario(
        topo.clone(),
        SimConfig::default(),
        3,
        &[],
        ring4(8),
        runner(1, 2),
        Vec::new(),
        Vec::new(),
    );
    pin(
        "three_level clean",
        [
            0x253d_c8d8_c566_3a39,
            0x3057_342c_9634_c365,
            0x8ec1_de66_b98b_0153,
        ],
        run,
    );
    let bad = topo.core_downlink(topo.core_global(0, 0), 2);
    let run = scenario(
        topo.clone(),
        SimConfig::default(),
        7,
        &[],
        ring4(8),
        runner(1, 3),
        vec![(1, bad, set(drop(0.10)))],
        Vec::new(),
    );
    pin(
        "three_level core fault",
        [
            0x82a4_541c_dc2f_7ca0,
            0xd71b_1023_b95e_f81d,
            0xe056_2612_d89e_91e8,
        ],
        run,
    );
    let known = topo.core_downlink(topo.core_global(1, 1), 3);
    let down = [known, topo.peer[known.idx()]].map(|l| (l, set(FaultKind::AdminDown)));
    let run = scenario(
        topo,
        SimConfig::default(),
        5,
        &down,
        ring4(8),
        runner(1, 2),
        Vec::new(),
        Vec::new(),
    );
    pin(
        "three_level known fault",
        [
            0x9f90_55a1_42b3_592c,
            0xa4dc_618c_0223_5725,
            0x1cd2_d0bd_8970_d8b2,
        ],
        run,
    );

    let topo = fat(8, 4);
    let overlap = vec![
        (1, topo.downlink(1, 2), set(drop(0.05))),
        (
            1,
            topo.downlink(3, 5),
            set(FaultKind::DstBlackhole { dst_leaf: 5 }),
        ),
    ];
    let run = scenario(
        topo.clone(),
        SimConfig::default(),
        9,
        &[],
        ring_allreduce(&hosts(8), 8 << 20),
        runner(1, 3),
        overlap,
        Vec::new(),
    );
    pin(
        "overlap",
        [0xeb6d_3915_5018_3441, 0x54ee_fe9b_ccef_e34f, EMPTY],
        run,
    );

    let run = scenario(
        topo.clone(),
        SimConfig::default(),
        31,
        &[],
        alltoall_uniform(&hosts(8), 2 << 20),
        runner(1, 3),
        Vec::new(),
        Vec::new(),
    );
    pin(
        "end_to_end alltoall full tagging",
        [0xb558_9b98_6157_4ef3, 0xb186_40fd_0343_5a98, EMPTY],
        run,
    );

    let even: Vec<HostId> = (0..8).filter(|h| h % 2 == 0).map(HostId).collect();
    let odd: Vec<HostId> = (0..8).filter(|h| h % 2 == 1).map(HostId).collect();
    let job2 = CollectiveRunner::new(ring_allreduce(&odd, 1 << 20), runner(2, 2));
    let run = scenario(
        topo,
        SimConfig::default(),
        9,
        &[],
        ring_allreduce(&even, 2 << 20),
        runner(1, 2),
        Vec::new(),
        vec![
            Box::new(job2),
            background(128 << 10, 20, SimTime::from_us(500)),
        ],
    );
    pin(
        "end_to_end multi job",
        [0x9532_7d4d_f26e_b024, 0xd637_81d6_9f56_a979, EMPTY],
        run,
    );
}
