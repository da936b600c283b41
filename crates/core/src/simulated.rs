//! Simulation-based load prediction (paper §5.2).
//!
//! "To achieve higher prediction fidelity, the expected per-port load can be
//! taken from a simulation of the network. This allows FlowPulse to exactly
//! incorporate knowledge about known faults (including gray faults), the
//! exact load-balancing algorithms used, and other implementation details
//! … While a simulation yields the highest fidelity, significant time and
//! computation resources must be spent running the simulation before every
//! training job."
//!
//! Here the "simulation" is a pristine `fp-netsim` run: same topology spec,
//! same known faults, same collective schedule, no silent faults, no
//! jitter. Its iteration-0 counters are the prediction.

use crate::eval::Scenario;
use crate::model::PortLoads;
use fp_collectives::runner::{MeasuredSubset, RunnerConfig};
use fp_collectives::schedule::Schedule;
use fp_netsim::config::SimConfig;
use fp_netsim::fault::{FaultAction, FaultKind};
use fp_netsim::ids::LinkId;
use fp_netsim::topology::Topology;

/// Seed of every prediction run (the prediction is deterministic given the
/// seed; with the default `Adaptive` spray the seed barely matters).
const SEED: u64 = 0x51D;

/// Simulation-based predictor.
pub struct SimulationModel {
    /// Simulator parameters (use the production fabric's config for highest
    /// fidelity).
    pub(crate) cfg: SimConfig,
    /// Known gray faults to reproduce in the prediction run (silent faults
    /// the operator already knows about — the paper notes simulation can
    /// incorporate them, unlike the analytical model).
    pub(crate) known_gray: Vec<(LinkId, FaultKind)>,
}

impl SimulationModel {
    /// Predictor with the given fabric config.
    pub fn new(cfg: SimConfig) -> Self {
        SimulationModel {
            cfg,
            known_gray: Vec::new(),
        }
    }

    /// Run one clean iteration of `sched` on a replica of `topo` with the
    /// given known-down links and return per-port loads.
    pub fn predict(
        &self,
        topo: &Topology,
        admin_down: &[LinkId],
        sched: &Schedule,
        job: u32,
    ) -> PortLoads {
        self.predict_measured(topo, admin_down, sched, job, MeasuredSubset::All)
    }

    /// Like [`SimulationModel::predict`], but measuring only a subset of
    /// the schedule's transfers (mirrors the production runner's §5.1
    /// subset configuration for multi-destination collectives).
    pub(crate) fn predict_measured(
        &self,
        topo: &Topology,
        admin_down: &[LinkId],
        sched: &Schedule,
        job: u32,
        measured: MeasuredSubset,
    ) -> PortLoads {
        let known = admin_down.iter().map(|&l| (l, FaultKind::AdminDown));
        let rcfg = RunnerConfig {
            job,
            iterations: 1,
            measured,
            ..Default::default()
        };
        let run = Scenario {
            before: known
                .chain(self.known_gray.iter().copied())
                .map(|(l, kind)| (l, FaultAction::Set(kind)))
                .collect(),
            ..Scenario::new(topo.clone(), sched.clone(), rcfg, self.cfg.clone(), SEED)
        }
        .run();
        let c = run
            .counters
            .get(job, 0)
            .expect("prediction run produced no tagged traffic");
        PortLoads::from_counters(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytical::AnalyticalModel;
    use crate::detector::Detector;
    use fp_collectives::ring::ring_allreduce;
    use fp_netsim::ids::HostId;
    use fp_netsim::topology::FatTreeSpec;

    fn topo() -> Topology {
        Topology::fat_tree(FatTreeSpec {
            leaves: 8,
            spines: 4,
            ..Default::default()
        })
    }

    #[test]
    fn simulated_matches_analytical_fault_free() {
        let t = topo();
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let sched = ring_allreduce(&hosts, 4 * 1024 * 1024);
        let sim_loads = SimulationModel::new(SimConfig::default()).predict(&t, &[], &sched, 1);
        let ana = AnalyticalModel::new(&t, []).predict(&sched.demand(8));
        // Fig. 2's claim: analytical ≈ simulation. Adaptive spraying tracks
        // the ideal split to within a fraction of a percent.
        let dev = Detector::default().max_abs_rel(&ana.loads, &sim_loads);
        assert!(
            dev < 0.005,
            "analytical-vs-sim deviation {:.4}%",
            dev * 100.0
        );
    }

    #[test]
    fn simulated_accounts_for_admin_faults() {
        let t = topo();
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let sched = ring_allreduce(&hosts, 2 * 1024 * 1024);
        let down = [t.uplink(0, 1), t.downlink(1, 0)];
        let sim_loads = SimulationModel::new(SimConfig::default()).predict(&t, &down, &sched, 1);
        // Leaf 1 receives from leaf 0; vspine 1 is cut on the source side.
        assert_eq!(sim_loads.get(1, 1), 0.0);
        assert!(sim_loads.get(1, 0) > 0.0);
        let ana = AnalyticalModel::new(&t, down).predict(&sched.demand(8));
        let dev = Detector::default().max_abs_rel(&ana.loads, &sim_loads);
        assert!(dev < 0.005, "deviation {:.4}%", dev * 100.0);
    }

    #[test]
    fn simulated_can_model_known_gray_faults() {
        // A known 20% gray drop on one downlink: the simulation predictor
        // reproduces the depressed delivered volume that the analytical
        // model cannot express.
        let t = topo();
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let sched = ring_allreduce(&hosts, 1024 * 1024);
        let mut m = SimulationModel::new(SimConfig::default());
        let bad = t.downlink(2, 3);
        m.known_gray
            .push((bad, FaultKind::SilentDrop { rate: 0.2 }));
        let loads = m.predict(&t, &[], &sched, 1);
        let clean = SimulationModel::new(SimConfig::default()).predict(&t, &[], &sched, 1);
        // Port (leaf 3, vspine 2) sees visibly less than in the clean run.
        assert!(loads.get(3, 2) < clean.get(3, 2) * 0.9);
    }
}
