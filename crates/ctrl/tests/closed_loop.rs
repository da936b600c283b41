//! End-to-end closed-loop scenarios: the controller catches an injected
//! fault, admin-downs the right cable, and training goodput recovers —
//! while a controller-less baseline stays degraded. Plus the determinism
//! contract: a controller-enabled trial does not depend on the inert
//! `SimConfig::sched` setting.

use flowpulse::prelude::*;
use fp_ctrl::{run_ctrl_trial, CtrlConfig, Mitigation};
use fp_netsim::control::ControlVerb;
use fp_netsim::engine::SchedKind;
use fp_netsim::spray::SprayPolicy;
use fp_netsim::time::SimDuration;

fn spec_with(kind: InjectedFault, at_iter: u32) -> TrialSpec {
    TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 8,
        fault: Some(FaultSpec {
            kind,
            at_iter,
            heal_at_iter: None,
            bidirectional: false,
        }),
        ..Default::default()
    }
}

/// Mean goodput of the pre-fault iterations.
fn pre_fault_goodput(r: &TrialResult, at_iter: u32) -> f64 {
    let pre: Vec<f64> = r
        .iter_goodput
        .iter()
        .filter(|&&(i, _)| i < at_iter)
        .map(|&(_, g)| g)
        .collect();
    assert!(!pre.is_empty());
    pre.iter().sum::<f64>() / pre.len() as f64
}

fn last_goodput(r: &TrialResult) -> f64 {
    r.iter_goodput.last().expect("iterations ran").1
}

fn assert_recovers(kind: InjectedFault, name: &str) {
    let spec = spec_with(kind, 2);
    let ctl = run_ctrl_trial(&spec, CtrlConfig::default());
    let base = run_trial(&spec);

    let c = ctl.ctrl.as_ref().expect("controller rode the trial");
    assert!(c.time_to_detect_ns.is_some(), "{name}: never detected");
    assert!(c.time_to_mitigate_ns.is_some(), "{name}: never mitigated");
    assert_eq!(
        c.mitigated_ports,
        vec![ctl.fault_port.unwrap()],
        "{name}: wrong cable pulled"
    );
    assert_eq!(c.false_mitigations, 0, "{name}: healthy cable pulled");

    let pre = pre_fault_goodput(&ctl, 2);
    let post = last_goodput(&ctl);
    assert!(
        post >= 0.95 * pre,
        "{name}: post-mitigation goodput {post:.3e} not within 5% of pre-fault {pre:.3e}"
    );
    // The controller-less baseline stays degraded to the end of the run.
    let base_pre = pre_fault_goodput(&base, 2);
    let base_post = last_goodput(&base);
    assert!(
        base_post < 0.95 * base_pre,
        "{name}: baseline recovered on its own ({base_post:.3e} vs {base_pre:.3e}) — \
         the controller comparison is meaningless"
    );
}

#[test]
fn blackhole_goodput_recovers_under_the_controller() {
    assert_recovers(InjectedFault::Blackhole, "blackhole");
}

#[test]
fn dst_blackhole_goodput_recovers_under_the_controller() {
    assert_recovers(InjectedFault::DstBlackhole, "dst_blackhole");
}

/// Entropy-recycle remediation: instead of admin-downing the cable, the
/// controller steers the localized leaf's sprayer away from the suspect
/// uplink. Goodput must recover without a single admin_down verb.
fn assert_recovers_by_recycling(spray: Option<SprayPolicy>, name: &str) {
    let mut spec = spec_with(InjectedFault::Blackhole, 2);
    if let Some(p) = spray {
        spec.sim.spray = p;
    }
    let cfg = CtrlConfig {
        mitigation: Mitigation::RecycleEntropy,
        ..CtrlConfig::default()
    };
    let ctl = run_ctrl_trial(&spec, cfg);

    let c = ctl.ctrl.as_ref().expect("controller rode the trial");
    assert!(c.time_to_detect_ns.is_some(), "{name}: never detected");
    assert!(c.time_to_mitigate_ns.is_some(), "{name}: never mitigated");
    assert_eq!(
        c.mitigated_ports,
        vec![ctl.fault_port.unwrap()],
        "{name}: wrong cable quarantined"
    );
    assert_eq!(c.false_mitigations, 0, "{name}: healthy cable quarantined");
    let verbs: Vec<ControlVerb> = c.actions.iter().filter_map(|a| a.verb).collect();
    assert!(
        verbs.contains(&ControlVerb::RecycleEntropy),
        "{name}: no recycle_entropy action recorded: {:?}",
        c.actions
    );
    assert!(
        !verbs.contains(&ControlVerb::AdminDown),
        "{name}: cable was admin-downed despite RecycleEntropy: {:?}",
        c.actions
    );

    let pre = pre_fault_goodput(&ctl, 2);
    let post = last_goodput(&ctl);
    assert!(
        post >= 0.95 * pre,
        "{name}: goodput {post:.3e} did not recover to 5% of pre-fault \
         {pre:.3e} via entropy recycling alone"
    );
}

#[test]
fn blackhole_recovers_via_entropy_recycling_default_backend() {
    assert_recovers_by_recycling(None, "adaptive+recycle");
}

#[test]
fn blackhole_recovers_via_entropy_recycling_reps_backend() {
    assert_recovers_by_recycling(Some(SprayPolicy::Reps), "reps+recycle");
}

#[test]
fn mitigation_none_names_the_cable_but_leaves_it_up() {
    let spec = spec_with(InjectedFault::Blackhole, 2);
    let cfg = CtrlConfig {
        mitigation: Mitigation::None,
        ..CtrlConfig::default()
    };
    let r = run_ctrl_trial(&spec, cfg);
    let c = r.ctrl.expect("controller rode the trial");
    assert!(c.time_to_detect_ns.is_some(), "detection still reports");
    assert!(c.time_to_mitigate_ns.is_none(), "nothing was scheduled");
    assert!(c.mitigated_ports.is_empty());
    assert!(
        c.actions
            .iter()
            .any(|a| a.phase == CtrlPhase::Localize && a.cable.is_some()),
        "localization should still name the cable: {:?}",
        c.actions
    );
    assert!(
        c.actions.iter().all(|a| a.verb.is_none()),
        "no verb was scheduled: {:?}",
        c.actions
    );
}

#[test]
fn fault_free_run_has_zero_false_mitigations() {
    let spec = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 8 * 1024 * 1024,
        iterations: 6,
        ..Default::default()
    };
    let r = run_ctrl_trial(&spec, CtrlConfig::default());
    let c = r.ctrl.expect("controller rode the trial");
    assert_eq!(c.false_mitigations, 0);
    assert!(c.mitigated_ports.is_empty());
}

#[test]
fn reaction_latency_delays_mitigation() {
    let slow = CtrlConfig {
        reaction_latency: SimDuration::from_us(200),
        ..CtrlConfig::default()
    };
    let fast = CtrlConfig {
        reaction_latency: SimDuration::from_us(0),
        ..CtrlConfig::default()
    };
    let spec = spec_with(InjectedFault::Blackhole, 2);
    let s = run_ctrl_trial(&spec, slow).ctrl.unwrap();
    let f = run_ctrl_trial(&spec, fast).ctrl.unwrap();
    assert_eq!(s.time_to_detect_ns, f.time_to_detect_ns);
    assert!(
        s.time_to_mitigate_ns.unwrap() >= f.time_to_mitigate_ns.unwrap() + 200_000,
        "slow {s:?} vs fast {f:?}"
    );
}

/// The determinism contract extended to the control plane: the full
/// closed-loop trial — alarms, control actions, goodput trajectory, event
/// totals, scheduler counters — is the same whatever `SimConfig::sched`
/// says: pinned to the wheel (as every `benchmark/` spec is), to the heap
/// or unset.
#[test]
fn controller_trial_ignores_the_sched_setting() {
    let story = |sched| {
        let mut spec = spec_with(InjectedFault::Blackhole, 2);
        spec.sim.sched = sched;
        let r = run_ctrl_trial(&spec, CtrlConfig::default());
        assert!(r
            .ctrl
            .as_ref()
            .is_some_and(|c| !c.mitigated_ports.is_empty()));
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            r.ctrl, r.alarms, r.iter_goodput, r.iter_max_dev, r.stats, r.sched
        )
    };
    let wheel = story(Some(SchedKind::Wheel));
    assert_eq!(story(Some(SchedKind::Heap)), wheel);
    assert_eq!(story(None), wheel);
}
