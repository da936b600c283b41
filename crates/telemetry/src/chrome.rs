//! Chrome `trace_event` JSON emission.
//!
//! The output loads in `chrome://tracing` and Perfetto's legacy importer:
//! one counter track per fabric link (queue depth + utilization), one
//! instant-event thread per link for exceptional events, and one thread per
//! collective job carrying iteration spans. Timestamps are microseconds
//! (the format's unit), converted from simulated nanoseconds.

use crate::events::{Event, EventRecord};
use crate::recorder::LinkMeta;
use crate::run::{IterSpan, SampleRow};
use serde::{Serialize, Value};

/// Synthetic pid of the fabric-link process group.
const PID_FABRIC: u64 = 1;
/// Synthetic pid of the collectives process group.
const PID_COLLECTIVES: u64 = 2;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn us(t_ns: u64) -> Value {
    Value::F64(t_ns as f64 / 1000.0)
}

fn metadata(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Value {
    let mut e = vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::U64(pid)),
    ];
    if let Some(tid) = tid {
        e.push(("tid", Value::U64(tid)));
    }
    e.push(("args", obj(vec![("name", Value::Str(value.to_string()))])));
    obj(e)
}

/// Label and home track (`pid`, `tid`) for an event's instant marker.
fn instant_home(ev: &Event) -> (&'static str, u64, u64) {
    match ev {
        Event::Drop { link, .. } => ("drop", PID_FABRIC, *link as u64),
        Event::FaultSet { link, .. } => ("fault_set", PID_FABRIC, *link as u64),
        Event::FaultCleared { link } => ("fault_cleared", PID_FABRIC, *link as u64),
        Event::Pfc { link, .. } => ("pfc", PID_FABRIC, *link as u64),
        Event::FlowFailed { .. } => ("flow_failed", PID_COLLECTIVES, 0),
        Event::Alarm { .. } => ("alarm", PID_COLLECTIVES, 0),
        Event::Milestone { .. } => ("milestone", PID_COLLECTIVES, 0),
        Event::Control { .. } => ("control", PID_COLLECTIVES, 0),
        Event::MemoFastForward { .. } => ("memo_fast_forward", PID_COLLECTIVES, 0),
    }
}

/// Build the full trace document as a JSON value tree.
pub(crate) fn build(
    links: &[LinkMeta],
    samples: &[SampleRow],
    spans: &[IterSpan],
    events: &[EventRecord],
) -> Value {
    let mut out: Vec<Value> = Vec::with_capacity(samples.len() + events.len() + spans.len() + 8);
    out.push(metadata("process_name", PID_FABRIC, None, "fabric links"));
    out.push(metadata(
        "process_name",
        PID_COLLECTIVES,
        None,
        "collectives",
    ));
    for l in links {
        out.push(metadata(
            "thread_name",
            PID_FABRIC,
            Some(l.id as u64),
            &l.name,
        ));
    }
    // One counter track per link: name is the link label, series are queue
    // depth and utilization.
    for s in samples {
        let name = links
            .get(s.link as usize)
            .map_or_else(|| format!("link{}", s.link), |l| l.name.clone());
        out.push(obj(vec![
            ("name", Value::Str(name)),
            ("ph", Value::Str("C".to_string())),
            ("pid", Value::U64(PID_FABRIC)),
            ("tid", Value::U64(s.link as u64)),
            ("ts", us(s.t_ns)),
            (
                "args",
                obj(vec![
                    ("queued_bytes", Value::U64(s.queued_bytes)),
                    ("util_pct", Value::F64(s.util * 100.0)),
                ]),
            ),
        ]));
    }
    for span in spans {
        out.push(obj(vec![
            ("name", Value::Str(format!("iter {}", span.iter))),
            ("ph", Value::Str("X".to_string())),
            ("pid", Value::U64(PID_COLLECTIVES)),
            ("tid", Value::U64(span.job as u64)),
            ("ts", us(span.start_ns)),
            ("dur", us(span.end_ns.saturating_sub(span.start_ns))),
        ]));
    }
    for r in events {
        let (label, pid, tid) = instant_home(&r.event);
        out.push(obj(vec![
            ("name", Value::Str(label.to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("t".to_string())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("ts", us(r.t_ns)),
            ("args", r.event.to_value()),
        ]));
    }
    obj(vec![
        ("traceEvents", Value::Seq(out)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_document_shape() {
        let links = vec![LinkMeta {
            id: 0,
            name: "Host(0)->Switch(0)".into(),
            bytes_per_sec: 1,
        }];
        let samples = vec![SampleRow {
            t_ns: 1500,
            link: 0,
            queued_bytes: 64,
            queued_pkts: 1,
            inflight_pkts: 1,
            util: 0.5,
            paused_mask: 0,
        }];
        let spans = vec![IterSpan {
            job: 0,
            iter: 2,
            start_ns: 0,
            end_ns: 3000,
        }];
        let events = vec![EventRecord {
            t_ns: 2000,
            event: Event::FlowFailed { flow: 4 },
        }];
        let doc = build(&links, &samples, &spans, &events);
        let text = serde_json::to_string(&doc).unwrap();
        // Parse back: must be valid JSON with the expected envelope.
        let back: Value = serde_json::from_str(&text).unwrap();
        let m = back.as_map().unwrap();
        let evs = m
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_seq())
            .unwrap();
        // 2 process_name + 1 thread_name + 1 counter + 1 span + 1 instant.
        assert_eq!(evs.len(), 6);
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.as_map())
            .filter_map(|m| m.iter().find(|(k, _)| k == "ph"))
            .filter_map(|(_, v)| v.as_str())
            .collect();
        assert_eq!(phases, vec!["M", "M", "M", "C", "X", "i"]);
        // Counter timestamps are microseconds.
        let counter = evs[3].as_map().unwrap();
        let ts = counter
            .iter()
            .find(|(k, _)| k == "ts")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert_eq!(ts, 1.5);
    }
}
