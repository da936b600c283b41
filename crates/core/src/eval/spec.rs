//! Stage 1 of a trial — **spec**: what a scenario *is*. The serializable
//! [`TrialSpec`] and its parts, the check that one read from outside the
//! program can run at all ([`TrialSpec::validate`]), and the two pure
//! derivations every later stage starts from: the collective schedule
//! ([`build_schedule`]) and the seeded fault-cable placement.

use fp_collectives::alltoall::alltoall_uniform;
use fp_collectives::halving::halving_doubling_allreduce;
use fp_collectives::jitter::JitterModel;
use fp_collectives::ring::{ring_allreduce, ring_reduce_scatter};
use fp_collectives::schedule::Schedule;
use fp_netsim::config::SimConfig;
use fp_netsim::ids::HostId;
use fp_netsim::time::SimDuration;
use fp_netsim::topology::FatTreeSpec;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which collective the measured job runs.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum CollectiveKind {
    /// Full 2(N−1)-stage Ring-AllReduce (the paper's workload).
    RingAllReduce,
    /// N−1-stage ring ReduceScatter (the "31-stage" variant).
    RingReduceScatter,
    /// Uniform AlltoAll (multi-sender ports; used by localization).
    AllToAll,
    /// Recursive halving-doubling AllReduce (ablation).
    HalvingDoubling,
}

/// Which prediction model the monitor uses (§5.2).
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum ModelKind {
    /// Closed-form `d/(s−f)` model.
    Analytical,
    /// Clean-run simulation prediction.
    Simulation,
    /// Baseline learned from the first `warmup` iterations.
    Learned {
        /// Iterations averaged into the baseline.
        warmup: u32,
    },
}

/// The silent fault injected mid-run.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct FaultSpec {
    /// Fault kind.
    pub kind: InjectedFault,
    /// Iteration at whose start the fault is installed.
    pub at_iter: u32,
    /// Iteration at whose start the fault heals again (`None` = permanent).
    /// Transient faults drive the Fig. 3 learning-rebaseline experiment.
    pub heal_at_iter: Option<u32>,
    /// Apply to both directions of the cable (default: spine→leaf only,
    /// matching §6 "configure a single leaf-spine link to drop packets").
    pub bidirectional: bool,
}

/// Injectable silent fault kinds.
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub enum InjectedFault {
    /// Random per-packet drop at `rate`.
    Drop {
        /// Drop probability.
        rate: f64,
    },
    /// Drop everything.
    Blackhole,
    /// Destination-selective black hole: only packets destined to the fault
    /// cable's leaf are dropped (a corrupted FIB entry for one prefix,
    /// `fp_netsim::FaultKind::DstBlackhole`).
    DstBlackhole,
}

/// A complete experiment scenario.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub struct TrialSpec {
    /// Leaf switch count.
    pub leaves: u32,
    /// Spine switch count.
    pub spines: u32,
    /// Hosts per leaf.
    pub hosts_per_leaf: u32,
    /// Parallel leaf–spine links.
    pub parallel_links: u32,
    /// Collective kind.
    pub collective: CollectiveKind,
    /// Collective buffer size per node (for AllToAll: bytes per pair =
    /// `bytes_per_node / (n_hosts − 1)`).
    pub bytes_per_node: u64,
    /// Training iterations.
    pub iterations: u32,
    /// Per-node iteration-start jitter.
    pub jitter: JitterModel,
    /// Number of pre-existing known (admin-down) leaf–spine cables.
    pub preexisting: u32,
    /// Silent fault to inject, if any.
    pub fault: Option<FaultSpec>,
    /// Prediction model.
    pub model: ModelKind,
    /// Detection threshold (paper: 0.01).
    pub threshold: f64,
    /// Fabric/transport parameters (includes the spray policy).
    pub sim: SimConfig,
    /// Master seed (fault placement, spray randomness, jitter).
    pub seed: u64,
    /// Inert: never read. Intra-trial sharding was removed (DESIGN.md §9);
    /// the field stays only because the frozen `benchmark/` package names
    /// it, and goes with the `benchmark`-archetype PR that drops the four
    /// `*.shard.*` context probes.
    #[serde(default)]
    pub shards: Option<u32>,
    /// Inert: never read. Removed together with [`TrialSpec::shards`] by the
    /// same follow-up PR.
    #[serde(default)]
    pub shard_epoch: Option<u32>,
    /// Temporal-symmetry fast-forward: memoize steady-state collective
    /// iterations and replay their recorded deltas instead of simulating
    /// them (`None` means off).
    /// Results are byte-identical either way; fault onsets, heal edges and
    /// scheduled controls act as barriers the replay never crosses. Trials
    /// that are ineligible (start jitter, online controller, telemetry
    /// recorder — see [`memo_ineligibility`]) run fully
    /// live with the reason in [`TrialResult::memo_fallback`]; ineligible
    /// *configurations* (random or adaptive spray) surface the engine's
    /// own refusal reason the same way.
    #[serde(default)]
    pub memo: Option<bool>,
}

impl Default for TrialSpec {
    /// The paper's §6 setup: 32 leaves × 16 spines, one host per leaf,
    /// Ring-AllReduce on all nodes, analytical model, 1% threshold.
    fn default() -> Self {
        TrialSpec {
            leaves: 32,
            spines: 16,
            hosts_per_leaf: 1,
            parallel_links: 1,
            collective: CollectiveKind::RingAllReduce,
            bytes_per_node: 64 * 1024 * 1024,
            iterations: 3,
            jitter: JitterModel::Uniform {
                max: SimDuration::from_us(1),
            },
            preexisting: 0,
            fault: None,
            model: ModelKind::Analytical,
            threshold: 0.01,
            sim: SimConfig::default(),
            seed: 1,
            shards: None,
            shard_epoch: None,
            memo: None,
        }
    }
}

impl TrialSpec {
    /// The fabric shape as the topology builder takes it.
    pub(super) fn fabric(&self) -> FatTreeSpec {
        FatTreeSpec {
            leaves: self.leaves,
            spines: self.spines,
            hosts_per_leaf: self.hosts_per_leaf,
            parallel_links: self.parallel_links,
            ..Default::default()
        }
    }

    /// Check a spec that came from outside the program (the `trial`
    /// binary's JSON) before running it: every rejection here is a panic,
    /// a division by zero or a silently meaningless run further in. The
    /// message names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, msg: String| if ok { Ok(()) } else { Err(msg) };
        self.fabric().validate()?;
        let hosts = self.leaves as u64 * self.hosts_per_leaf as u64;
        ensure(
            hosts >= 2,
            format!("leaves x hosts_per_leaf = {hosts}: a collective needs at least 2 hosts"),
        )?;
        ensure(
            self.collective != CollectiveKind::HalvingDoubling || hosts.is_power_of_two(),
            format!("collective HalvingDoubling needs a power-of-two host count, got {hosts}"),
        )?;
        ensure(self.iterations >= 1, "iterations must be at least 1".into())?;
        let t = self.threshold;
        ensure(
            t.is_finite() && t >= 0.0,
            format!("threshold must be finite and >= 0, got {t}"),
        )?;
        if let Some(f) = self.fault {
            if let InjectedFault::Drop { rate } = f.kind {
                ensure(
                    (0.0..=1.0).contains(&rate),
                    format!("fault.kind.Drop.rate must be in [0, 1], got {rate}"),
                )?;
            }
            let (at, n) = (f.at_iter, self.iterations);
            ensure(
                at < n,
                format!("fault.at_iter {at} is never reached in {n} iterations"),
            )?;
            ensure(
                f.heal_at_iter.is_none_or(|h| h > at),
                format!("fault.heal_at_iter must be after fault.at_iter {at}"),
            )?;
        }
        self.sim.validate().map_err(|e| format!("sim: {e}"))
    }
}

/// Build the collective schedule for a spec.
pub fn build_schedule(spec: &TrialSpec) -> Schedule {
    let n = (spec.leaves * spec.hosts_per_leaf) as usize;
    let hosts: Vec<HostId> = (0..n as u32).map(HostId).collect();
    match spec.collective {
        CollectiveKind::RingAllReduce => ring_allreduce(&hosts, spec.bytes_per_node),
        CollectiveKind::RingReduceScatter => ring_reduce_scatter(&hosts, spec.bytes_per_node),
        CollectiveKind::AllToAll => {
            let per_pair = (spec.bytes_per_node / (n as u64 - 1)).max(1);
            alltoall_uniform(&hosts, per_pair)
        }
        CollectiveKind::HalvingDoubling => {
            let n64 = n as u64;
            let bytes = spec.bytes_per_node / n64 * n64; // divisible
            halving_doubling_allreduce(&hosts, bytes.max(n64))
        }
    }
}

/// A `(leaf, vspine)` cable endpoint pair.
pub(super) type Cable = (u32, u32);

/// Deterministically choose `count` distinct pre-existing fault cables plus
/// (optionally) the injected-fault cable, all distinct, never taking a
/// leaf's last uplink.
pub(super) fn choose_cables(
    spec: &TrialSpec,
    rng: &mut SmallRng,
    count: u32,
    want_fault: bool,
) -> (Vec<Cable>, Option<Cable>) {
    let nv = spec.spines * spec.parallel_links;
    let mut chosen: Vec<Cable> = Vec::new();
    let mut per_leaf = vec![0u32; spec.leaves as usize];
    while chosen.len() < count as usize + want_fault as usize {
        // Bounded rejection sampling: placements that would take a leaf's
        // last uplink are rejected; an infeasible request (more cables than
        // the fabric can lose) fails loudly instead of spinning.
        let placed = (0..100_000).find_map(|_| {
            let (leaf, v) = (rng.gen_range(0..spec.leaves), rng.gen_range(0..nv));
            let free = !chosen.contains(&(leaf, v)) && per_leaf[leaf as usize] + 1 < nv;
            free.then_some((leaf, v))
        });
        let Some((leaf, v)) = placed else {
            panic!(
                "cannot place another faulty cable: {} leaves x {nv} vspines with {} already down",
                spec.leaves,
                chosen.len()
            );
        };
        per_leaf[leaf as usize] += 1;
        chosen.push((leaf, v));
    }
    let fault = want_fault.then(|| chosen.pop().expect("the fault cable is placed last"));
    (chosen, fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_spec() -> TrialSpec {
        TrialSpec {
            leaves: 8,
            spines: 4,
            bytes_per_node: 8 * 1024 * 1024,
            iterations: 3,
            ..Default::default()
        }
    }

    fn drop_at(at_iter: u32, rate: f64) -> Option<FaultSpec> {
        Some(FaultSpec {
            kind: InjectedFault::Drop { rate },
            at_iter,
            heal_at_iter: None,
            bidirectional: false,
        })
    }

    #[test]
    fn validate_accepts_runnable_specs() {
        TrialSpec::default().validate().unwrap();
        small_spec().validate().unwrap();
        TrialSpec {
            collective: CollectiveKind::HalvingDoubling,
            preexisting: 3,
            fault: Some(FaultSpec {
                heal_at_iter: Some(2),
                ..drop_at(1, 1.0).unwrap()
            }),
            ..small_spec()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validate_rejects_each_unrunnable_field() {
        let base = small_spec();
        let healed_early = FaultSpec {
            heal_at_iter: Some(1),
            ..drop_at(1, 0.02).unwrap()
        };
        #[rustfmt::skip]
        let cases: Vec<(&str, TrialSpec)> = vec![
            ("at least 2 hosts", TrialSpec { leaves: 1, collective: CollectiveKind::AllToAll, ..base.clone() }),
            ("must be positive", TrialSpec { hosts_per_leaf: 0, ..base.clone() }),
            ("parallel_links", TrialSpec { parallel_links: 0, ..base.clone() }),
            ("power-of-two", TrialSpec { leaves: 6, collective: CollectiveKind::HalvingDoubling, ..base.clone() }),
            ("iterations", TrialSpec { iterations: 0, ..base.clone() }),
            ("threshold", TrialSpec { threshold: f64::NAN, ..base.clone() }),
            ("threshold", TrialSpec { threshold: -0.01, ..base.clone() }),
            ("threshold", TrialSpec { threshold: f64::INFINITY, ..base.clone() }),
            ("rate", TrialSpec { fault: drop_at(1, f64::NAN), ..base.clone() }),
            ("rate", TrialSpec { fault: drop_at(1, -0.1), ..base.clone() }),
            ("rate", TrialSpec { fault: drop_at(1, 1.5), ..base.clone() }),
            ("fault.at_iter", TrialSpec { fault: drop_at(3, 0.02), ..base.clone() }),
            ("fault.heal_at_iter", TrialSpec { fault: Some(healed_early), ..base.clone() }),
            ("sim: mtu", TrialSpec { sim: SimConfig { mtu: 0, ..Default::default() }, ..base.clone() }),
        ];
        for (field, spec) in cases {
            let err = spec.validate().expect_err(field);
            assert!(err.contains(field), "{field}: message was {err:?}");
        }
    }

    #[test]
    fn cable_placement_respects_constraints() {
        // 4 leaves x 2 vspines can lose at most one cable per leaf:
        // 3 pre-existing + 1 injected = the maximum feasible 4.
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            preexisting: 3,
            ..small_spec()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let (pre, fault) = choose_cables(&spec, &mut rng, 3, true);
        let mut all = pre.clone();
        all.push(fault.unwrap());
        // Distinct.
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        // No leaf lost both uplinks.
        for leaf in 0..4u32 {
            let cnt = all.iter().filter(|(l, _)| *l == leaf).count();
            assert!(cnt < 2, "leaf {leaf} lost all uplinks");
        }
    }

    #[test]
    #[should_panic(expected = "cannot place another faulty cable")]
    fn infeasible_cable_placement_panics() {
        let spec = TrialSpec {
            leaves: 4,
            spines: 2,
            ..small_spec()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = choose_cables(&spec, &mut rng, 5, false);
    }
}
