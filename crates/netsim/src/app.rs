//! The application (workload) hook.
//!
//! A workload — e.g. the Ring-AllReduce driver in `fp-collectives` — plugs
//! into the simulator by implementing [`Application`]. The simulator calls
//! back on transport events; the application reacts by posting messages and
//! scheduling wake-ups. All callbacks receive `&mut Simulator`, so the
//! workload can drive the fabric directly (the simulator temporarily takes
//! the application out of itself while calling, avoiding aliasing).

use crate::ids::HostId;
use crate::packet::FlowId;
use crate::sim::Simulator;

/// Workload callbacks. All methods have no-op defaults.
pub trait Application {
    /// Called once, when the simulation starts running.
    fn on_start(&mut self, sim: &mut Simulator) {
        let _ = sim;
    }

    /// A wake-up previously scheduled with [`Simulator::schedule_wake`].
    fn on_wake(&mut self, sim: &mut Simulator, host: HostId, token: u64) {
        let _ = (sim, host, token);
    }

    /// Every segment of `flow` has been received at its destination host.
    fn on_message_complete(&mut self, sim: &mut Simulator, flow: FlowId) {
        let _ = (sim, flow);
    }

    /// The sender gave up retransmitting some segment of `flow`.
    fn on_flow_failed(&mut self, sim: &mut Simulator, flow: FlowId) {
        let _ = (sim, flow);
    }
}

/// Runs several applications side by side on one fabric (e.g. a measured
/// collective plus background traffic, or two parallel training jobs —
/// paper §7 "Parallel Jobs").
///
/// Every callback is forwarded to every child; children must ignore flows
/// and wake tokens they do not own. The conventional token layout is
/// `job_id << 32 | payload`, which the `fp-collectives` runners follow.
pub struct MultiApp {
    apps: Vec<Box<dyn Application>>,
}

impl MultiApp {
    /// Combine `apps` into one.
    pub fn new(apps: Vec<Box<dyn Application>>) -> Self {
        MultiApp { apps }
    }
}

impl Application for MultiApp {
    fn on_start(&mut self, sim: &mut Simulator) {
        for a in &mut self.apps {
            a.on_start(sim);
        }
    }
    fn on_wake(&mut self, sim: &mut Simulator, host: HostId, token: u64) {
        for a in &mut self.apps {
            a.on_wake(sim, host, token);
        }
    }
    fn on_message_complete(&mut self, sim: &mut Simulator, flow: FlowId) {
        for a in &mut self.apps {
            a.on_message_complete(sim, flow);
        }
    }
    fn on_flow_failed(&mut self, sim: &mut Simulator, flow: FlowId) {
        for a in &mut self.apps {
            a.on_flow_failed(sim, flow);
        }
    }
}
