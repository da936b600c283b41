//! A4 — localization accuracy (paper §5.3, Fig. 4).
//!
//! Two localization paths:
//!
//! 1. **Ring cross-leaf correlation** — the ring carries one sender per
//!    monitored port, so a single port comparison is ambiguous; pairing
//!    alarms at leaf X and succ(X) pins the cable. Measured over seeds for
//!    directional and bidirectional faults.
//! 2. **Per-sender comparison (Fig. 4)** — on AlltoAll, every monitored
//!    port carries all remote senders, so one switch can classify
//!    local-vs-remote by itself.

use flowpulse::prelude::*;
use fp_bench::results::{ablate_localize_alltoall as a2a, ablate_localize_ring as ring};
use fp_bench::{drop_fault, header, seeds, Cell, RunConfig};

fn ring_part(cfg: &RunConfig) -> Vec<ring::Row> {
    let seeds = seeds(cfg.pick(8, 3));
    let directions = [false, true];
    // No clean seeds: one cell, the fault one way and both ways.
    let cell = Cell {
        base: TrialSpec {
            leaves: cfg.pick(16, 8),
            spines: cfg.pick(8, 4),
            bytes_per_node: cfg.pick(32, 8) * 1024 * 1024,
            iterations: 3,
            ..cfg.base_spec()
        },
        faults: directions
            .map(|bidirectional| FaultSpec {
                bidirectional,
                ..drop_fault(0.025, 1)
            })
            .into(),
    };
    let grid = cfg.run_grid("ablate_localize_ring", &[cell], &[], &seeds);
    let mut rows = Vec::new();
    for (bidir, pair) in directions.into_iter().zip(grid.pairs()) {
        let trials = pair.faulty;
        let detected = trials.iter().filter(|r| r.detected).count() as u32;
        let localized = trials
            .iter()
            .filter(|r| r.localized_correctly == Some(true))
            .count() as u32;
        rows.push(ring::Row {
            bidirectional: bidir,
            trials: seeds.len() as u32,
            detected,
            localized,
        });
    }
    header("A4.1 — ring cross-leaf correlation");
    print!("{}", ring::table(&rows));
    rows
}

fn alltoall_part() -> Vec<a2a::Row> {
    // Per-sender localization needs every monitored port to carry many
    // senders with *independently* predictable shares. Aggregate-balancing
    // adaptive spray does not provide that (§5.1), but Random spraying
    // does — each packet picks uniformly, so the per-(port, sender) share
    // is d/s in expectation with binomial noise. We therefore run this
    // demonstration with Random spraying, a hefty 30% gray drop, and
    // thresholds sized to the noise (simulator seeds 1–12 all give Local
    // and at least 6/7 remote verdicts; seed 5 is the committed one).
    use fp_collectives::prelude::*;
    use fp_netsim::prelude::*;
    let leaves = 8u32;
    let topo = Topology::fat_tree(FatTreeSpec {
        leaves,
        spines: 4,
        ..Default::default()
    });
    let hosts: Vec<HostId> = (0..leaves).map(HostId).collect();
    let sched = alltoall_uniform(&hosts, 4 * 1024 * 1024);
    let demand = sched.demand(leaves as usize);
    let pred = flowpulse::analytical::AnalyticalModel::new(&topo, []).predict(&demand);

    // Pinned on purpose (see above): `FP_SPRAY` does not reach this run.
    let sim_cfg = SimConfig {
        spray: fp_netsim::spray::SprayPolicy::Random,
        ..Default::default()
    };
    // Bidirectional 30% gray fault on a known cable from iteration 1.
    let (fleaf, fv) = (3u32, 1u32);
    let bad = topo.downlink(fv, fleaf);
    let drop = FaultAction::Set(FaultKind::SilentDrop { rate: 0.30 });
    let rcfg = RunnerConfig {
        iterations: 2,
        ..Default::default()
    };
    let run = Scenario {
        at_iter: vec![(1, bad, drop), (1, topo.peer[bad.idx()], drop)],
        ..Scenario::new(topo, sched, rcfg, sim_cfg, 5)
    }
    .run();

    let expected = &pred.by_src;
    let mut observed =
        flowpulse::model::PortSrcLoads::from_counters(run.counters.get(1, 1).unwrap());
    // Compare how each sender's volume *splits* across a leaf's ports, not
    // its absolute size: the cable also loses ACKs, and every retransmitted
    // duplicate is counted again on whichever port it arrives — with a
    // 5 µs RTO the victim leaf sees 2–3× its expected bytes on healthy
    // ports, which would bury the faulty port's shortfall. Duplicates
    // multiply a sender's volume on all ports of the receiving leaf alike,
    // so rescaling each (leaf, sender) row to its expected total cancels
    // them and leaves the per-port share the fault skews.
    for leaf in 0..leaves {
        for src in 0..leaves {
            let total = |l: &flowpulse::model::PortSrcLoads| -> f64 {
                (0..l.n_vspines as u32).map(|v| l.get(leaf, v, src)).sum()
            };
            let (e, o) = (total(expected), total(&observed));
            if o > 0.0 {
                for v in 0..observed.n_vspines as u32 {
                    let cur = observed.get(leaf, v, src);
                    observed.add(leaf, v, src, cur * e / o - cur);
                }
            }
        }
    }
    let localizer = Localizer {
        sender_threshold: 0.15,
    };

    // At the faulty leaf's own port: all senders short → Local.
    let v_local = localizer.localize_port(expected, &observed, fleaf, fv);
    let ok_local = v_local == PortVerdict::Local;
    let mut rows = vec![a2a::Row {
        port_role: "local".into(),
        verdict: format!("{v_local:?}"),
        correct: ok_local,
    }];

    // At every other leaf's port for the same vspine: only the faulty
    // leaf's uplink traffic is short → Remote{fleaf}.
    let mut remote_ok = 0;
    let mut remote_total = 0;
    for leaf in 0..leaves {
        if leaf == fleaf {
            continue;
        }
        let v = localizer.localize_port(expected, &observed, leaf, fv);
        remote_total += 1;
        let correct = v
            == PortVerdict::Remote {
                senders: vec![fleaf],
            };
        remote_ok += correct as u32;
        rows.push(a2a::Row {
            port_role: format!("remote@leaf{leaf}"),
            verdict: format!("{v:?}"),
            correct,
        });
    }
    header("A4.2 — Fig. 4 per-sender comparison on AlltoAll");
    println!("faulty cable: leaf{fleaf}, vspine{fv}; Local expected at its port, Remote elsewhere");
    print!("{}", a2a::table(&rows));
    assert!(ok_local, "Fig. 4 local verdict failed");
    assert!(
        remote_ok * 10 >= remote_total * 8,
        "Fig. 4 remote verdicts too weak: {remote_ok}/{remote_total}"
    );
    rows
}

fn main() {
    let cfg = RunConfig::from_env();
    let ring_rows = ring_part(&cfg);
    let a2a_rows = alltoall_part();
    cfg.save_json("ablate_localize_ring", &ring_rows);
    cfg.save_json("ablate_localize_alltoall", &a2a_rows);
    println!("\nA4 verdict: see tables — both localization paths functional.");
}
