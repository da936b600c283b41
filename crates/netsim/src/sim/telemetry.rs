//! What the simulator tells the outside world as it runs, off the event
//! loop: the telemetry recorder (attach, the periodic link sampler and the
//! topology it is handed) and the iteration-span log workload runners
//! report into.

use super::Simulator;
use crate::engine::EventKind;
use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use fp_telemetry::{LinkMeta, Recorder};

/// One completed collective iteration, as reported by a workload runner.
/// Always logged by the engine (no recorder needed) so goodput and
/// control-plane latencies can be measured on any run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct IterSpanRecord {
    /// Job identifier.
    pub job: u32,
    /// Iteration number within the job.
    pub iter: u32,
    /// When the iteration's first transfer was posted.
    pub start: SimTime,
    /// When the iteration's last transfer completed.
    pub end: SimTime,
}

impl Simulator {
    /// Attach a telemetry recorder. The recorder immediately receives the
    /// topology description; if it asks for a nonzero sampling interval the
    /// periodic link sampler is scheduled. With no recorder attached (the
    /// default) every telemetry call site reduces to one `Option` branch
    /// and no sampler events exist, so runs are byte-identical to a build
    /// without telemetry.
    pub fn set_recorder(&mut self, mut rec: Box<dyn Recorder>) {
        rec.on_topology(&link_metas(&self.topo));
        let interval = rec.sample_interval_ns();
        self.recorder = Some(rec);
        if interval > 0 {
            let at = self.now + SimDuration::from_ns(interval);
            self.agenda.at(at, EventKind::Sample);
        }
    }

    /// Detach and return the recorder (for post-run export and flushing).
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Report a completed collective iteration span. Always appended to the
    /// in-sim span log (see [`Simulator::iter_spans`]) so goodput and
    /// control-plane timing can be computed without a recorder; additionally
    /// forwarded to the telemetry recorder when one is attached. Called by
    /// workload runners.
    pub fn record_iteration_span(&mut self, job: u32, iter: u32, start: SimTime, end: SimTime) {
        self.iter_spans.push(IterSpanRecord {
            job,
            iter,
            start,
            end,
        });
        if let Some(rec) = self.recorder.as_mut() {
            rec.on_iteration(job, iter, start.as_ns(), end.as_ns());
        }
    }

    /// Completed collective iteration spans, in completion order.
    pub fn iter_spans(&self) -> &[IterSpanRecord] {
        &self.iter_spans
    }

    /// A sampler tick is due at `at`: hand every link's egress state to the
    /// recorder. Ticks advance the clock but, like stale-RTO skips, are not
    /// charged to `stats.events` or the `max_events` guard — telemetry must
    /// not perturb event accounting. The tick reschedules itself only while
    /// other events remain, so a drained workload cannot be kept alive by
    /// its own sampler.
    pub(super) fn sample_tick(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.sample_links();
        if let Some(interval) = self
            .recorder
            .as_ref()
            .map(|r| r.sample_interval_ns())
            .filter(|&i| i > 0)
        {
            let next = at + SimDuration::from_ns(interval);
            if !self.agenda.is_empty() {
                self.agenda.at(next, EventKind::Sample);
            }
        }
    }

    /// Hand every link's egress state to the recorder.
    fn sample_links(&mut self) {
        // Move the recorder out so the link table can be borrowed freely.
        let Some(mut rec) = self.recorder.take() else {
            return;
        };
        let t = self.now.as_ns();
        for (i, l) in self.links.iter().enumerate() {
            rec.on_link_sample(t, i as u32, &l.sample());
        }
        self.recorder = Some(rec);
    }
}

/// Compact endpoint label for telemetry track names.
fn node_label(n: NodeId) -> String {
    match n {
        NodeId::Host(h) => format!("host{}", h.0),
        NodeId::Switch(s) => format!("sw{}", s.0),
    }
}

/// The telemetry link descriptions for a topology — what
/// [`Simulator::set_recorder`] hands to [`Recorder::on_topology`].
fn link_metas(topo: &Topology) -> Vec<LinkMeta> {
    topo.links
        .iter()
        .enumerate()
        .map(|(i, l)| LinkMeta {
            id: i as u32,
            name: format!("{}->{}", node_label(l.src), node_label(l.dst)),
            bytes_per_sec: l.bandwidth.bps() / 8,
        })
        .collect()
}
