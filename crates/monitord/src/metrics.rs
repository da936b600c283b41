//! Self-observability: the service's metrics, one typed value.
//!
//! The metric set is fixed at compile time: 8 counters (monotonic), 5
//! gauges (point-in-time) and 5 log-bucketed histograms (reusing
//! [`fp_telemetry::LogHistogram`], so bucket boundaries match every other
//! histogram this workspace emits), each a named field the worker updates
//! in place. [`Metrics::jsonl_line`] writes them as one compact JSON
//! object per emission, appended to `metrics.jsonl`: `seq`, `uptime_us`,
//! then the three sections. Fields are declared in sorted order, so every
//! line carries every key, in the same order, from the first line on.

use fp_telemetry::LogHistogram;
use serde::Serialize;
use std::time::Instant;

/// Monotonic counters.
#[derive(Default, Serialize)]
pub(crate) struct Counters {
    pub(crate) alarms_raised: u64,
    pub(crate) ingest_accepted: u64,
    pub(crate) ingest_blocked: u64,
    pub(crate) ingest_dropped: u64,
    pub(crate) ingest_offered: u64,
    pub(crate) shape_errors: u64,
    pub(crate) snapshots_processed: u64,
    pub(crate) streams_closed: u64,
}

/// Point-in-time readings.
#[derive(Default, Serialize)]
pub(crate) struct Gauges {
    pub(crate) ingest_per_sec: f64,
    pub(crate) open_iters: f64,
    pub(crate) queue_depth: f64,
    pub(crate) spare_buffers: f64,
    pub(crate) streams_active: f64,
}

/// Distributions: batch sizes, queue depths and latencies in ns.
#[derive(Default, Serialize)]
pub(crate) struct Histograms {
    pub(crate) batch_size: LogHistogram,
    pub(crate) queue_depth_at_batch: LogHistogram,
    pub(crate) queue_wait_ns: LogHistogram,
    pub(crate) scan_latency_ns: LogHistogram,
    pub(crate) verdict_latency_ns: LogHistogram,
}

/// What one `metrics.jsonl` line says.
#[derive(Default, Serialize)]
pub(crate) struct Line {
    /// Emission sequence number, from 1.
    pub(crate) seq: u64,
    /// Microseconds since the metrics were created.
    pub(crate) uptime_us: u64,
    pub(crate) counters: Counters,
    pub(crate) gauges: Gauges,
    pub(crate) histograms: Histograms,
}

/// The service's metrics and the instant uptime counts from.
pub(crate) struct Metrics {
    start: Instant,
    pub(crate) line: Line,
}

impl Metrics {
    /// Every metric at zero; uptime is measured from construction.
    pub(crate) fn new() -> Self {
        Metrics {
            start: Instant::now(),
            line: Line::default(),
        }
    }

    /// Seconds since the metrics were created.
    pub(crate) fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64().max(1e-9)
    }

    /// One `metrics.jsonl` line: the next sequence number, the uptime and
    /// every metric, as compact JSON.
    pub(crate) fn jsonl_line(&mut self) -> String {
        self.line.seq += 1;
        self.line.uptime_us = self.start.elapsed().as_micros() as u64;
        serde_json::to_string(&self.line).expect("metrics line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn jsonl_line_has_stable_schema() {
        let mut m = Metrics::new();
        m.line.counters.snapshots_processed += 7;
        m.line.gauges.queue_depth = 3.0;
        m.line.histograms.scan_latency_ns.record(1500);
        m.line.histograms.scan_latency_ns.record(90_000);
        let v: Value = serde_json::from_str(&m.jsonl_line()).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["seq", "uptime_us", "counters", "gauges", "histograms"]
        );
        let field = |v: &Value, key: &str| {
            let (_, found) = v.as_map().unwrap().iter().find(|(k, _)| k == key).unwrap();
            found.clone()
        };
        let scan = field(&field(&v, "histograms"), "scan_latency_ns");
        assert_eq!(field(&scan, "count").as_u64(), Some(2));
        assert_eq!(
            field(&field(&v, "counters"), "snapshots_processed").as_u64(),
            Some(7)
        );
        assert_eq!(
            field(&field(&v, "gauges"), "queue_depth").as_f64(),
            Some(3.0)
        );
        // Sequence number advances per emission.
        let v2: Value = serde_json::from_str(&m.jsonl_line()).unwrap();
        assert_eq!(field(&v2, "seq").as_u64(), Some(2));
    }
}
