//! [`RunRecorder`]: the buffering [`Recorder`] that writes artifacts.

use crate::chrome;
use crate::events::{Event, EventRecord};
use crate::histogram::LogHistogram;
use crate::recorder::{LinkMeta, LinkSample, Recorder};
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Sampler period: 100 µs of simulated time between link samples.
const SAMPLE_INTERVAL_NS: u64 = 100_000;

/// One line of `samples.jsonl`: a periodic observation of one link.
#[derive(Clone, PartialEq, Serialize, Deserialize, Debug)]
pub(crate) struct SampleRow {
    /// Simulated time, nanoseconds.
    pub(crate) t_ns: u64,
    /// Link id.
    pub(crate) link: u32,
    /// Queued plus in-flight wire bytes on the egress queue.
    pub(crate) queued_bytes: u64,
    /// Packets waiting in the egress priority queues.
    pub(crate) queued_pkts: u32,
    /// Packets on the wire (the link's delivery-pipeline depth).
    pub(crate) inflight_pkts: u32,
    /// Fraction of line rate used since the previous sample (0.0..=1.0).
    pub(crate) util: f64,
    /// PFC pause bitmask, bit `p` = priority `p` paused.
    pub(crate) paused_mask: u8,
}

/// A completed collective iteration span (Chrome-trace `X` event).
#[derive(Copy, Clone, PartialEq, Serialize, Deserialize, Debug)]
pub(crate) struct IterSpan {
    /// Job id.
    pub(crate) job: u32,
    /// Iteration number.
    pub(crate) iter: u32,
    /// Iteration start, simulated nanoseconds.
    pub(crate) start_ns: u64,
    /// Iteration end, simulated nanoseconds.
    pub(crate) end_ns: u64,
}

/// Serializable wrapper for `histograms.json`.
#[derive(Clone, Serialize, Deserialize, Debug)]
struct HistogramsFile {
    fct_ns: crate::HistogramExport,
    rto_attempts: crate::HistogramExport,
    pfc_pause_ns: crate::HistogramExport,
}

/// A [`Recorder`] that buffers everything in memory and writes the artifact
/// directory (`events.jsonl`, `samples.jsonl`, `histograms.json`,
/// `trace.json`) on [`Recorder::finish`].
pub struct RunRecorder {
    dir: PathBuf,
    links: Vec<LinkMeta>,
    /// Per-link `(t_ns, txed_bytes)` of the previous sample, for utilization.
    prev: Vec<(u64, u64)>,
    ticks: u64,
    last_tick_at: Option<u64>,
    samples: Vec<SampleRow>,
    events: Vec<EventRecord>,
    spans: Vec<IterSpan>,
    fct_ns: LogHistogram,
    rto_attempts: LogHistogram,
    pfc_pause_ns: LogHistogram,
}

impl RunRecorder {
    /// Recorder writing into `dir` (created on finish), sampling every link
    /// each 100 µs of simulated time.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunRecorder {
            dir: dir.into(),
            links: Vec::new(),
            prev: Vec::new(),
            ticks: 0,
            last_tick_at: None,
            samples: Vec::new(),
            events: Vec::new(),
            spans: Vec::new(),
            fct_ns: LogHistogram::new(),
            rto_attempts: LogHistogram::new(),
            pfc_pause_ns: LogHistogram::new(),
        }
    }

    fn write_jsonl<T: Serialize>(path: &Path, rows: &[T]) -> std::io::Result<()> {
        let mut w = BufWriter::new(fs::File::create(path)?);
        for row in rows {
            let line = serde_json::to_string(row).map_err(std::io::Error::other)?;
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }
}

impl Recorder for RunRecorder {
    fn sample_interval_ns(&self) -> u64 {
        SAMPLE_INTERVAL_NS
    }

    fn on_topology(&mut self, links: &[LinkMeta]) {
        self.links = links.to_vec();
        self.prev = vec![(0, 0); links.len()];
    }

    fn on_link_sample(&mut self, t_ns: u64, link: u32, sample: &LinkSample) {
        if self.last_tick_at != Some(t_ns) {
            self.last_tick_at = Some(t_ns);
            self.ticks += 1;
        }
        let idx = link as usize;
        let (prev_t, prev_txed) = self.prev.get(idx).copied().unwrap_or((0, 0));
        let dt = t_ns.saturating_sub(prev_t);
        let sent = sample.txed_bytes.saturating_sub(prev_txed);
        let bps = self.links.get(idx).map_or(0, |l| l.bytes_per_sec);
        let util = if dt == 0 || bps == 0 {
            0.0
        } else {
            // Cumulative-counter diff over the capacity of the elapsed
            // window; in-progress serialization keeps this at or below 1.
            sent as f64 * 1e9 / (dt as f64 * bps as f64)
        };
        if idx < self.prev.len() {
            self.prev[idx] = (t_ns, sample.txed_bytes);
        }
        self.samples.push(SampleRow {
            t_ns,
            link,
            queued_bytes: sample.queued_bytes,
            queued_pkts: sample.queued_pkts,
            inflight_pkts: sample.inflight_pkts,
            util,
            paused_mask: sample.paused_mask,
        });
    }

    fn on_event(&mut self, t_ns: u64, event: &Event) {
        self.events.push(EventRecord {
            t_ns,
            event: event.clone(),
        });
    }

    fn on_fct_ns(&mut self, fct_ns: u64) {
        self.fct_ns.record(fct_ns);
    }

    fn on_rto_attempt(&mut self, attempt: u32) {
        self.rto_attempts.record(attempt as u64);
    }

    fn on_pfc_pause_ns(&mut self, _prio: u8, pause_ns: u64) {
        self.pfc_pause_ns.record(pause_ns);
    }

    fn on_iteration(&mut self, job: u32, iter: u32, start_ns: u64, end_ns: u64) {
        self.spans.push(IterSpan {
            job,
            iter,
            start_ns,
            end_ns,
        });
    }

    fn finish(&mut self) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        Self::write_jsonl(&self.dir.join("events.jsonl"), &self.events)?;
        Self::write_jsonl(&self.dir.join("samples.jsonl"), &self.samples)?;
        let hists = HistogramsFile {
            fct_ns: self.fct_ns.export(),
            rto_attempts: self.rto_attempts.export(),
            pfc_pause_ns: self.pfc_pause_ns.export(),
        };
        let mut json = serde_json::to_string_pretty(&hists).map_err(std::io::Error::other)?;
        json.push('\n');
        fs::write(self.dir.join("histograms.json"), json)?;
        let trace = chrome::build(&self.links, &self.samples, &self.spans, &self.events);
        let mut json = serde_json::to_string(&trace).map_err(std::io::Error::other)?;
        json.push('\n');
        fs::write(self.dir.join("trace.json"), json)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fp-telemetry-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn meta() -> Vec<LinkMeta> {
        vec![
            LinkMeta {
                id: 0,
                name: "Host(0)->Switch(0)".into(),
                bytes_per_sec: 1_000_000_000,
            },
            LinkMeta {
                id: 1,
                name: "Switch(0)->Host(0)".into(),
                bytes_per_sec: 1_000_000_000,
            },
        ]
    }

    #[test]
    fn utilization_is_diffed_against_previous_sample() {
        let mut r = RunRecorder::new(tmp_dir("util"));
        r.on_topology(&meta());
        let s = |txed| LinkSample {
            queued_bytes: 0,
            queued_pkts: 0,
            inflight_pkts: 0,
            txed_bytes: txed,
            paused_mask: 0,
        };
        // 1 GB/s link: 500 bytes in 1000 ns = 50% utilization.
        r.on_link_sample(1000, 0, &s(500));
        r.on_link_sample(2000, 0, &s(1500));
        assert_eq!(r.samples[0].util, 0.5);
        assert_eq!(r.samples[1].util, 1.0);
        assert_eq!(r.ticks, 2);
    }

    #[test]
    fn ticks_count_distinct_timestamps() {
        let mut r = RunRecorder::new(tmp_dir("ticks"));
        r.on_topology(&meta());
        let s = LinkSample {
            queued_bytes: 0,
            queued_pkts: 0,
            inflight_pkts: 0,
            txed_bytes: 0,
            paused_mask: 0,
        };
        r.on_link_sample(100, 0, &s);
        r.on_link_sample(100, 1, &s);
        r.on_link_sample(200, 0, &s);
        r.on_link_sample(200, 1, &s);
        assert_eq!(r.ticks, 2);
        assert_eq!(r.samples.len(), 4);
    }

    #[test]
    fn finish_writes_all_artifacts() {
        let dir = tmp_dir("artifacts");
        let mut r = RunRecorder::new(dir.clone());
        r.on_topology(&meta());
        r.on_link_sample(
            100,
            0,
            &LinkSample {
                queued_bytes: 64,
                queued_pkts: 1,
                inflight_pkts: 2,
                txed_bytes: 10,
                paused_mask: 0b010,
            },
        );
        r.on_event(
            50,
            &Event::FaultSet {
                link: 0,
                kind: "SilentBlackhole".into(),
            },
        );
        r.on_fct_ns(12_345);
        r.on_rto_attempt(0);
        r.on_pfc_pause_ns(1, 800);
        r.on_iteration(0, 0, 0, 2_000);
        r.finish().unwrap();
        for f in [
            "events.jsonl",
            "samples.jsonl",
            "histograms.json",
            "trace.json",
        ] {
            let text = fs::read_to_string(dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"));
            assert!(!text.is_empty(), "{f} must not be empty");
        }
        // Chrome trace is one JSON document with a traceEvents array.
        let trace: serde::Value =
            serde_json::from_str(&fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
        let m = trace.as_map().expect("trace.json must be an object");
        let events = m
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_seq())
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
