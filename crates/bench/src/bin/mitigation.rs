//! E9 — closed-loop mitigation sweep: fault kind × onset iteration ×
//! controller reaction latency, each against a controller-less baseline.
//!
//! For every faulty scenario the `fp-ctrl` controller detects the fault
//! online, localizes the cable, admin-downs it after its reaction latency
//! and rebaselines; the sweep measures time-to-detect, time-to-mitigate and
//! the goodput trajectory (pre-fault / during-fault / post-mitigation).
//! Controller-less baselines show the fault burning to the end of the run,
//! and fault-free controller runs pin the false-mitigation count at zero.

use flowpulse::prelude::*;
use fp_bench::closed_loop::{Case, LoopRun};
use fp_bench::results::mitigation::{table, Row};
use fp_bench::{header, RunConfig};
use fp_ctrl::CtrlConfig;
use fp_netsim::time::SimDuration;

fn row_of(case: &Case, run: &LoopRun) -> Row {
    let (r, g) = (&run.result, &run.goodput);
    let c = r.ctrl.as_ref();
    Row {
        label: case.label.clone(),
        controller: case.ctrl.is_some(),
        reaction_us: case
            .ctrl
            .map(|c| c.reaction_latency.as_ns() / 1_000)
            .unwrap_or(0),
        detected: r.detected,
        tt_detect_ns: c.and_then(|c| c.time_to_detect_ns),
        tt_mitigate_ns: c.and_then(|c| c.time_to_mitigate_ns),
        mitigate_iter: c.and_then(|c| c.mitigate_iter),
        false_mitigations: c.map(|c| c.false_mitigations).unwrap_or(0),
        pre_bps: g.pre_bps,
        during_bps: g.during_bps,
        post_bps: g.post_bps,
        recovered: g.recovered,
    }
}

fn main() {
    let cfg = RunConfig::from_env();
    header("E9 — closed-loop mitigation: fault × onset × reaction latency");
    let base = TrialSpec {
        leaves: cfg.pick(16, 8),
        spines: cfg.pick(8, 4),
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 8,
        seed: 42,
        ..cfg.base_spec()
    };
    let kinds: &[(&str, InjectedFault)] = &[
        ("blackhole", InjectedFault::Blackhole),
        ("dst_blackhole", InjectedFault::DstBlackhole),
        ("drop5", InjectedFault::Drop { rate: 0.05 }),
    ];
    let kinds = &kinds[..cfg.pick(kinds.len(), 2)];
    let onsets: &[u32] = cfg.pick(&[2u32, 3][..], &[2u32][..]);
    let reactions: &[u64] = cfg.pick(&[0u64, 50, 200][..], &[50u64][..]);

    let mut cases = Vec::new();
    for (kname, kind) in kinds {
        for &onset in onsets {
            let spec = TrialSpec {
                fault: Some(FaultSpec {
                    kind: *kind,
                    at_iter: onset,
                    heal_at_iter: None,
                    bidirectional: false,
                }),
                seed: base.seed + onset as u64,
                ..base.clone()
            };
            for &us in reactions {
                cases.push(Case {
                    label: format!("{kname}@{onset} ctrl+{us}us"),
                    spec: spec.clone(),
                    ctrl: Some(CtrlConfig {
                        reaction_latency: SimDuration::from_us(us),
                        ..CtrlConfig::default()
                    }),
                });
            }
            cases.push(Case {
                label: format!("{kname}@{onset} baseline"),
                spec,
                ctrl: None,
            });
        }
    }
    // Fault-free controller runs: the loop must never fire.
    for seed in [7u64, 8] {
        cases.push(Case {
            label: format!("clean/{seed} ctrl"),
            spec: TrialSpec {
                fault: None,
                seed,
                ..base.clone()
            },
            ctrl: Some(CtrlConfig::default()),
        });
    }

    let runs = cfg.run_closed_loop("mitigation", &cases);
    let rows: Vec<Row> = cases.iter().zip(&runs).map(|(c, r)| row_of(c, r)).collect();

    print!("{}", table(&rows));
    cfg.save_json("mitigation", &rows);

    if cfg.quick {
        println!("\nE9 (quick mode): reduced sweep, reporting without asserting.");
        return;
    }
    // The acceptance bar: blackhole-class faults recover under the
    // controller, never under the baseline; clean runs never mitigate.
    for row in &rows {
        let blackhole = row.label.starts_with("blackhole") || row.label.starts_with("dst_");
        if row.controller && blackhole {
            assert!(row.detected, "{}: controller missed the fault", row.label);
            assert!(
                row.recovered,
                "{}: post {:.3e} < 95% of pre {:.3e}",
                row.label, row.post_bps, row.pre_bps
            );
            assert_eq!(row.false_mitigations, 0, "{}", row.label);
        }
        if !row.controller && blackhole {
            assert!(
                !row.recovered,
                "{}: baseline recovered without a controller",
                row.label
            );
        }
        if row.label.starts_with("clean") {
            assert_eq!(
                row.false_mitigations, 0,
                "{}: mitigated a healthy fabric",
                row.label
            );
        }
    }
    println!("\nE9 verdict: closed-loop mitigation restores goodput; zero false mitigations.");
}
