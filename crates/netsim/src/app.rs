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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::packet::Priority;
    use crate::time::SimTime;
    use crate::topology::{FatTreeSpec, Topology};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Logs every callback it sees, prefixed with its name.
    struct Logger(&'static str, Rc<RefCell<Vec<String>>>);

    impl Application for Logger {
        fn on_start(&mut self, _: &mut Simulator) {
            self.1.borrow_mut().push(format!("{} start", self.0));
        }
        fn on_wake(&mut self, _: &mut Simulator, host: HostId, token: u64) {
            self.1
                .borrow_mut()
                .push(format!("{} wake {} {token}", self.0, host.0));
        }
        fn on_message_complete(&mut self, _: &mut Simulator, flow: FlowId) {
            self.1.borrow_mut().push(format!("{} done {flow}", self.0));
        }
    }

    #[test]
    fn multi_app_forwards_every_callback_to_every_child_in_order() {
        let topo = Topology::fat_tree(FatTreeSpec {
            leaves: 2,
            spines: 1,
            hosts_per_leaf: 1,
            ..Default::default()
        });
        let mut sim = Simulator::new(topo, SimConfig::default(), 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_app(Box::new(MultiApp::new(vec![
            Box::new(Logger("a", log.clone())),
            Box::new(Logger("b", log.clone())),
        ])));
        let flow = sim.post_message(HostId(0), HostId(1), 4_096, None, Priority::MEASURED);
        sim.schedule_wake(SimTime::from_ns(1), HostId(1), 42);
        sim.run();
        let expected = [
            "a start".to_string(),
            "b start".to_string(),
            "a wake 1 42".to_string(),
            "b wake 1 42".to_string(),
            format!("a done {flow}"),
            format!("b done {flow}"),
        ];
        assert_eq!(*log.borrow(), expected);
    }
}
