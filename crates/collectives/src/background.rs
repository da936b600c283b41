//! Background (non-measured) traffic generator.
//!
//! Clusters are rarely single-tenant (paper §7 "Parallel Jobs"). This app
//! injects unstructured best-effort traffic — random host pairs, roughly
//! Poisson arrivals — at [`Priority::BACKGROUND`], below the measured
//! collective. The A3 ablation uses it to show that prioritizing the
//! measured collective (§5.1) preserves temporal symmetry under load, and
//! that *without* prioritization the symmetry degrades.

use fp_netsim::app::Application;
use fp_netsim::ids::HostId;
use fp_netsim::packet::Priority;
use fp_netsim::sim::Simulator;
use fp_netsim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Token namespace of the generator's wake-ups (differs from every
/// collective job id on the fabric).
const JOB: u32 = 0xB6;
/// RNG seed of the pair and arrival draws.
const SEED: u64 = 0xBA5E;

/// Background generator parameters. Flows go out at
/// [`Priority::BACKGROUND`].
#[derive(Clone, PartialEq, Debug)]
pub struct BackgroundConfig {
    /// Message size, bytes.
    pub msg_bytes: u64,
    /// Mean inter-arrival time (exponential).
    pub mean_interval: SimDuration,
    /// Stop generating at this simulated time.
    pub until: SimTime,
}

/// Injects random-pair best-effort messages until a deadline.
pub struct BackgroundTraffic {
    cfg: BackgroundConfig,
    rng: SmallRng,
}

impl BackgroundTraffic {
    /// New generator.
    pub fn new(cfg: BackgroundConfig) -> Self {
        let rng = SmallRng::seed_from_u64(SEED);
        BackgroundTraffic { cfg, rng }
    }

    fn exp_interval(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        self.cfg.mean_interval.mul_f64(-u.ln())
    }

    fn schedule_next(&mut self, sim: &mut Simulator) {
        let at = sim.now() + self.exp_interval();
        if at <= self.cfg.until {
            // Host in the token is irrelevant; we use host 0 as the anchor.
            sim.schedule_wake(at, HostId(0), (JOB as u64) << 32);
        }
    }
}

impl Application for BackgroundTraffic {
    fn on_start(&mut self, sim: &mut Simulator) {
        self.schedule_next(sim);
    }

    fn on_wake(&mut self, sim: &mut Simulator, _host: HostId, token: u64) {
        if token >> 32 != JOB as u64 {
            return;
        }
        let n = sim.topo.n_hosts() as u32;
        if n >= 2 {
            let src = self.rng.gen_range(0..n);
            let mut dst = self.rng.gen_range(0..n - 1);
            if dst >= src {
                dst += 1;
            }
            sim.post_message(
                HostId(src),
                HostId(dst),
                self.cfg.msg_bytes,
                None,
                Priority::BACKGROUND,
            );
        }
        self.schedule_next(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netsim::config::SimConfig;
    use fp_netsim::topology::{FatTreeSpec, Topology};

    #[test]
    fn generates_until_deadline() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 4,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 5);
        let cfg = BackgroundConfig {
            mean_interval: SimDuration::from_us(10),
            until: SimTime::from_us(500),
            msg_bytes: 64 * 1024,
        };
        sim.set_app(Box::new(BackgroundTraffic::new(cfg)));
        sim.run();
        assert!(sim.all_flows_complete());
        // ~50 expected arrivals; accept a broad band.
        let posted = sim.flow_ids().end;
        assert!(posted > 15, "only {posted} flows");
        assert!(posted < 150);
        assert_eq!(sim.stats.flows_completed, posted as u64);
        // Background traffic is untagged: no counter entries.
        assert!(sim.counters.keys().is_empty());
    }

    #[test]
    fn never_posts_self_pairs() {
        // gen logic: dst != src by construction; run a few hundred draws.
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 2,
            spines: 2,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 5);
        let cfg = BackgroundConfig {
            mean_interval: SimDuration::from_ns(200),
            until: SimTime::from_us(100),
            msg_bytes: 4096,
        };
        sim.set_app(Box::new(BackgroundTraffic::new(cfg)));
        sim.run();
        // `post_message` panics on a self-addressed message, so posting a
        // few hundred is the check.
        assert!(sim.flow_ids().end > 200, "{:?}", sim.flow_ids());
    }
}
