//! One measured run of one workload: set-up probes, warm-up, a closed
//! loop of timed units for the requested seconds, output checks, and the
//! end-to-end metrics.
//!
//! Closed loop, one client: the next unit starts when the previous one
//! returns. Host-time metrics are the median over the run's units, each
//! scaled to the reference host speed (see [`crate::hostclock`]).

use crate::decl::{self, NOT_APPLICABLE};
use crate::expected;
use crate::hostclock::{scaled_s, HostClock, Timed};
use crate::stats::{median, quartiles, Quartiles};
use crate::workloads::{
    make_inputs, run_unit, steadied_simulated, Inputs, Simulated, UnitOutput, Workload,
};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// How much a run does besides its timed seconds.
#[derive(Copy, Clone, Debug)]
pub struct Protocol {
    /// Untimed units before the timed loop (a cold first unit runs ~20 %
    /// slower than warm ones).
    pub warmups: usize,
    /// The timed loop never stops before this many units, however slow.
    pub min_units: usize,
    /// Set-up probes: fresh processes, so a cache a later change adds
    /// cannot hide its fill cost in a warm repeat. At least `min_probes`,
    /// then more until `max_probes` or `probe_seconds` have passed.
    pub min_probes: usize,
    pub max_probes: usize,
    pub probe_seconds: f64,
}

impl Protocol {
    /// A run of `seconds`: probes get a sixth of that on top, and three of
    /// them at least once the run is long enough to afford it (the
    /// pipeline's 15 s are; a round of the full set is not, it pools its
    /// probes over the rounds).
    pub fn for_seconds(seconds: f64) -> Protocol {
        Protocol {
            warmups: 2,
            min_units: 5,
            min_probes: if seconds >= 10.0 { 3 } else { 1 },
            max_probes: 7,
            probe_seconds: seconds / 6.0,
        }
    }

    /// The smoke test's: three units, everything else once.
    pub const QUICK: Protocol = Protocol {
        warmups: 1,
        min_units: 3,
        min_probes: 1,
        max_probes: 1,
        probe_seconds: 0.0,
    };

    /// The traced run's untraced baseline: no probes.
    pub fn baseline() -> Protocol {
        Protocol {
            min_probes: 0,
            max_probes: 0,
            ..Protocol::for_seconds(0.0)
        }
    }
}

/// Everything one run measured.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// Each timed unit.
    pub units: Vec<Timed>,
    /// Each set-up probe, from spawn to exit.
    pub setup: Vec<Timed>,
    pub peak_rss_mb: f64,
    /// The reference unit (first warm-up): counts and simulated results.
    pub reference: UnitOutput,
    pub inputs: Inputs,
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_kb() -> f64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set of this process.
pub fn rss_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The body of `fpbench probe`: what a fresh process does before its first
/// timed unit — make the inputs and run one cold unit.
pub fn probe(workload: Workload, seed: u64) -> bool {
    let inputs = make_inputs(workload, seed);
    let out = run_unit(&inputs);
    for c in &out.complaints {
        eprintln!("fpbench probe: {c}");
    }
    out.failed == 0
}

/// Time fresh `fpbench probe` processes from spawn to exit.
fn setup_probes(workload: Workload, seed: u64, p: &Protocol) -> Result<Vec<Timed>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut samples = Vec::new();
    let begun = Instant::now();
    let mut clock = HostClock::start();
    while samples.len() < p.min_probes
        || (samples.len() < p.max_probes && begun.elapsed().as_secs_f64() < p.probe_seconds)
    {
        let (status, probe) = clock.time(|| {
            Command::new(&exe)
                .args([
                    "probe",
                    "--workload",
                    workload.name(),
                    "--seed",
                    &seed.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status()
        });
        let status = status.map_err(|e| format!("cannot start set-up probe: {e}"))?;
        if !status.success() {
            return Err(format!("set-up probe failed: {status}"));
        }
        samples.push(probe);
    }
    Ok(samples)
}

/// Steady the reference unit's simulated metrics over the workload's
/// untimed extra trials, if it has any.
fn steady(inputs: &Inputs, reference: &mut UnitOutput) {
    if let Some((simulated, complaints)) = steadied_simulated(inputs, reference) {
        reference.simulated = simulated;
        reference.complaints.extend(complaints);
    }
}

/// The unit every later unit is compared with: the first warm-up, with
/// the simulated metrics steadied.
pub fn reference_unit(inputs: &Inputs) -> UnitOutput {
    let mut reference = run_unit(inputs);
    steady(inputs, &mut reference);
    reference
}

/// Compare a unit with the reference unit; returns the unit's failed ops.
fn check_against(reference: &UnitOutput, out: &UnitOutput, complaints: &mut Vec<String>) -> u64 {
    // The digest carries every trial's verdicts and alarms, so it covers
    // the simulated metrics too.
    if out.digest != reference.digest {
        complaints.push("outputs differ between two units of the same inputs".into());
        return out.ops;
    }
    complaints.extend(out.complaints.iter().cloned());
    out.failed
}

pub fn run(workload: Workload, seed: u64, seconds: f64, p: &Protocol) -> Result<Run, String> {
    let setup = setup_probes(workload, seed, p)?;
    let inputs = make_inputs(workload, seed);
    let mut reference = run_unit(&inputs);
    let mut complaints = Vec::new();
    let mut correct = true;
    for _ in 1..p.warmups {
        let out = run_unit(&inputs);
        correct &= check_against(&reference, &out, &mut complaints) == 0;
    }

    let mut units = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let begun = Instant::now();
    let mut clock = HostClock::start();
    while units.len() < p.min_units || begun.elapsed().as_secs_f64() < seconds {
        let (out, unit) = clock.time(|| run_unit(&inputs));
        units.push(unit);
        attempted += out.ops;
        failed += check_against(&reference, &out, &mut complaints);
    }
    correct &= failed == 0;
    // Memory of the units alone: the untimed extra trials come after it
    // is read.
    let peak_rss_mb = peak_rss_kb() / 1024.0;
    steady(&inputs, &mut reference);
    correct &= reference.failed == 0 && reference.complaints.is_empty();
    complaints.extend(reference.complaints.iter().cloned());
    correct &= check_simulated(workload, &reference.simulated, &mut complaints);
    if seed == expected::SEED {
        correct &= expected::check(workload, &reference, &mut complaints);
    }
    complaints.sort();
    complaints.dedup();
    Ok(Run {
        workload,
        seed,
        correct,
        attempted,
        failed,
        complaints,
        units,
        setup,
        peak_rss_mb,
        reference,
        inputs,
    })
}

/// Invariants the simulated results must satisfy on any seed: the fault is
/// caught, fixed and nothing healthy is touched.
fn check_simulated(workload: Workload, s: &Simulated, complaints: &mut Vec<String>) -> bool {
    let mut ok = true;
    let mut require = |cond: bool, what: &str| {
        if !cond {
            complaints.push(format!("{}: {what}", workload.name()));
            ok = false;
        }
    };
    require(
        s.detect_fpr == 0.0,
        "an alarm fired on a clean iteration or stream",
    );
    require(
        s.false_mitigations == 0,
        "the controller took down a healthy cable",
    );
    if workload == Workload::FaultLoop {
        require(
            s.tt_detect_us.is_some(),
            "the controller never detected the blackhole",
        );
        require(
            s.tt_mitigate_us.is_some(),
            "the controller never mitigated the blackhole",
        );
        require(
            s.goodput_recovery.is_some_and(|g| g > 0.5),
            "goodput did not recover after mitigation",
        );
        require(
            s.detect_tpr == Some(1.0),
            "the blackhole raised no alarm without the controller",
        );
    }
    ok
}

impl Run {
    /// Seconds of each timed unit at reference host speed.
    pub fn unit_s(&self) -> Vec<f64> {
        scaled_s(&self.units)
    }

    /// Median unit as the wall clock read it, milliseconds.
    pub fn unit_wall_ms(&self) -> f64 {
        median(&self.units.iter().map(|u| u.wall_s).collect::<Vec<_>>()) * 1e3
    }

    /// Median host speed around the units (1 = reference).
    pub fn host_speed(&self) -> f64 {
        median(&self.units.iter().map(|u| u.host_speed).collect::<Vec<_>>())
    }

    pub fn unit_quartiles(&self) -> Quartiles {
        quartiles(&self.unit_s())
    }

    /// The end-to-end metrics, in declaration order.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let unit = median(&self.unit_s());
        let r = &self.reference;
        let per_s = |count: u64| count as f64 / unit;
        let sim = &r.simulated;
        let mut m = BTreeMap::new();
        for d in decl::END_TO_END {
            let applicable = d.on.contains(&self.workload.name());
            let v = match d.name {
                "sim_pkts_per_s" => Some(per_s(r.pkts)),
                "trials_per_s" => Some(per_s(r.trials)),
                "snapshots_per_s" => Some(per_s(r.snapshots)),
                "peak_rss_mb" => Some(self.peak_rss_mb),
                "setup_s" => Some(median(&scaled_s(&self.setup))),
                "tt_detect_us" => sim.tt_detect_us,
                "tt_mitigate_us" => sim.tt_mitigate_us,
                "goodput_recovery" => sim.goodput_recovery,
                "detect_tpr" => sim.detect_tpr,
                other => unreachable!("undeclared end-to-end metric {other}"),
            };
            m.insert(d.name, v.filter(|_| applicable).unwrap_or(NOT_APPLICABLE));
        }
        m
    }
}
