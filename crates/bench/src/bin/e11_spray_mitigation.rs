//! E11 — spray backend × mitigation zoo: how does the closed loop behave
//! when the fabric under it sprays differently?
//!
//! Crosses the spray backends (adaptive / ECMP / PRIME / REPS / REPS
//! failover) against the remediation verbs (`admin_down`, the soft
//! `recycle_entropy` quarantine, and a detect-only `none` ablation) on a
//! blackholed cable the ECMP traffic actually crosses, plus a fault-free
//! column per backend. The rows measure detection quality per backend
//! (the learned baseline must stay quiet on a healthy fabric whatever
//! the spray), goodput recovery per remediation verb, and the headline
//! claim: under REPS the fabric recovers through entropy recycling alone
//! — cable left up, zero `admin_down` verbs, zero false mitigations.
//!
//! The seed is pinned so the blackholed uplink carries the ECMP-hashed
//! ring traffic of its leaf (a random cable usually misses a pinned
//! pair, which would make the ECMP column vacuous).

use flowpulse::prelude::*;
use fp_bench::closed_loop::{Case, LoopRun};
use fp_bench::results::e11_spray::{table, Row};
use fp_bench::{header, RunConfig};
use fp_ctrl::{CtrlConfig, Mitigation};
use fp_netsim::control::ControlVerb;
use fp_netsim::spray::SprayPolicy;

/// Pinned so the blackholed cable sits on the ECMP path (see module docs).
const SEED: u64 = 44;
const ONSET: u32 = 2;

/// A sweep cell's coordinates: backend, verb and scenario.
type Cell = (&'static str, &'static str, &'static str);

fn row_of(&(backend, mitigation, scenario): &Cell, run: &LoopRun) -> Row {
    let (r, g) = (&run.result, &run.goodput);
    let c = r.ctrl.as_ref();
    // Each verb the controller scheduled, counted once.
    let verb_count = |verb| {
        let actions = c.into_iter().flat_map(|c| &c.actions);
        actions.filter(|a| a.scheduled() == Some(verb)).count() as u32
    };
    Row {
        backend: backend.into(),
        mitigation: mitigation.into(),
        scenario: scenario.into(),
        detected: c.map(|c| c.time_to_detect_ns.is_some()).unwrap_or(false),
        tt_detect_ns: c.and_then(|c| c.time_to_detect_ns),
        tt_mitigate_ns: c.and_then(|c| c.time_to_mitigate_ns),
        mitigate_iter: c.and_then(|c| c.mitigate_iter),
        false_mitigations: c.map(|c| c.false_mitigations).unwrap_or(0),
        admin_downs: verb_count(ControlVerb::AdminDown),
        recycles: verb_count(ControlVerb::RecycleEntropy),
        flows_failed: r.stats.flows_failed,
        pre_bps: g.pre_bps,
        during_bps: g.during_bps,
        post_bps: g.post_bps,
        recovered: g.recovered,
    }
}

fn main() {
    let cfg = RunConfig::from_env();
    header("E11 — spray backend × mitigation zoo on a blackholed cable");
    let backends: &[(&str, SprayPolicy)] = &[
        ("adaptive", SprayPolicy::Adaptive),
        ("prime", SprayPolicy::Prime),
        ("ecmp", SprayPolicy::Ecmp),
        ("reps", SprayPolicy::Reps),
        ("reps_failover", SprayPolicy::RepsFailover),
    ];
    // Quick mode still witnesses the headline row (reps + recycle on the
    // blackhole) plus the pinned-vs-recycled contrast and a clean row per
    // swept backend; full mode sweeps the whole cross.
    let backends = cfg.pick(backends, &backends[2..4]);
    let mitigations: &[(&str, Mitigation)] = cfg.pick(
        &[
            ("admin_down", Mitigation::AdminDown),
            ("recycle_entropy", Mitigation::RecycleEntropy),
            ("none", Mitigation::None),
        ][..],
        &[("recycle_entropy", Mitigation::RecycleEntropy)][..],
    );

    let base = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 8,
        seed: SEED,
        ..cfg.base_spec()
    };

    // Each cell runs under a controller; its manifest key is its
    // coordinates joined by `/`.
    let (mut cells, mut cases) = (Vec::<Cell>::new(), Vec::new());
    let mut push = |cell: Cell, spec: TrialSpec, mitigation| {
        cases.push(Case {
            label: format!("{}/{}/{}", cell.0, cell.1, cell.2),
            spec,
            ctrl: Some(CtrlConfig {
                mitigation,
                ..CtrlConfig::default()
            }),
        });
        cells.push(cell);
    };
    for &(bname, policy) in backends {
        let mut faulty = TrialSpec {
            fault: Some(FaultSpec {
                kind: InjectedFault::Blackhole,
                at_iter: ONSET,
                heal_at_iter: None,
                bidirectional: false,
            }),
            ..base.clone()
        };
        faulty.sim.spray = policy;
        for &(mname, mit) in mitigations {
            push((bname, mname, "blackhole"), faulty.clone(), mit);
        }
        // Fault-free column: detection quality on a healthy fabric — the
        // learned baseline must stay quiet whatever the spray backend.
        let mut clean = base.clone();
        clean.sim.spray = policy;
        push((bname, "admin_down", "clean"), clean, Mitigation::AdminDown);
    }

    let runs = cfg.run_closed_loop("e11_spray", &cases);
    let rows: Vec<Row> = cells.iter().zip(&runs).map(|(c, r)| row_of(c, r)).collect();

    print!("{}", table(&rows));
    cfg.save_json("e11_spray", &rows);

    // The acceptance bar stays up in quick mode: the headline rows are in
    // every subset. Entropy recycling alone must carry a REPS fabric
    // through a blackhole — no admin_down verbs, nothing falsely pulled —
    // and a healthy fabric must never be mitigated whatever the backend.
    for row in &rows {
        if row.scenario == "clean" {
            assert_eq!(
                row.false_mitigations, 0,
                "{}/clean: mitigated a healthy fabric",
                row.backend
            );
            assert_eq!(
                row.admin_downs + row.recycles,
                0,
                "{}/clean: scheduled a verb on a healthy fabric",
                row.backend
            );
        }
        if row.scenario == "blackhole" && row.mitigation == "recycle_entropy" {
            assert!(row.detected, "{}/recycle: missed the fault", row.backend);
            assert_eq!(
                row.admin_downs, 0,
                "{}/recycle: cable was admin-downed despite RecycleEntropy",
                row.backend
            );
            assert_eq!(row.false_mitigations, 0, "{}/recycle", row.backend);
            if row.backend.starts_with("reps") || row.backend == "adaptive" {
                assert!(
                    row.recovered,
                    "{}/recycle: post {:.3e} < 95% of pre {:.3e} — entropy \
                     recycling alone should have recovered this backend",
                    row.backend, row.post_bps, row.pre_bps
                );
                assert_eq!(
                    row.flows_failed, 0,
                    "{}/recycle: flows failed under the soft quarantine",
                    row.backend
                );
            }
        }
    }
    if cfg.quick {
        println!("\nE11 (quick mode): reduced sweep; headline asserts held.");
        return;
    }
    for row in &rows {
        if row.scenario != "blackhole" {
            continue;
        }
        // Admin-down remediation recovers every *spraying* backend:
        // candidate removal remaps the survivors off the dead cable. ECMP
        // is the documented exception — the pinned pair's retransmit storm
        // keeps the dead port's measured volume up, so shortfall-based
        // ring localization never names the cable: the controller detects
        // but cannot save a fabric that does not spray.
        if row.mitigation == "admin_down" {
            assert!(row.detected, "{}/admin_down: missed the fault", row.backend);
            assert_eq!(row.false_mitigations, 0, "{}/admin_down", row.backend);
            if row.backend == "ecmp" {
                assert_eq!(
                    row.admin_downs, 0,
                    "ecmp/admin_down: localization named a cable on a pinned \
                     fabric — the shortfall story has changed"
                );
                assert!(
                    !row.recovered && row.flows_failed > 0,
                    "ecmp/admin_down: a pinned fabric recovered — \
                     the localization story has changed"
                );
            } else {
                assert!(
                    row.recovered,
                    "{}/admin_down: post {:.3e} < 95% of pre {:.3e}",
                    row.backend, row.post_bps, row.pre_bps
                );
            }
        }
        // Detect-only ablation: REPS self-heals autonomously (the pool
        // purges the dead slot), path-pinned ECMP burns to flow failure.
        if row.mitigation == "none" {
            assert_eq!(row.admin_downs + row.recycles, 0, "{}/none", row.backend);
            if row.backend.starts_with("reps") {
                // Softer bar than the controller rows: autonomous purge
                // converges without the rebaseline's clean cut.
                assert!(
                    row.post_bps >= 0.90 * row.pre_bps,
                    "{}/none: REPS should self-heal without the controller \
                     (post {:.3e} vs pre {:.3e})",
                    row.backend,
                    row.post_bps,
                    row.pre_bps
                );
            }
            if row.backend == "ecmp" {
                assert!(
                    row.flows_failed > 0,
                    "ecmp/none: pinned flows should have burned to failure"
                );
                assert!(
                    !row.recovered,
                    "ecmp/none: a pinned fabric cannot recover on its own"
                );
            }
        }
    }
    println!(
        "\nE11 verdict: entropy recycling alone restores a REPS fabric; \
         every spraying backend recovers under either verb; a pinned ECMP \
         fabric is detected but unsavable; healthy fabrics stay untouched."
    );
}
