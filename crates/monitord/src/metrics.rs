//! Self-observability: the service's internal metrics registry.
//!
//! Counters (monotonic), gauges (point-in-time) and log-bucketed
//! histograms (reusing [`fp_telemetry::LogHistogram`], so bucket
//! boundaries match every other histogram this workspace emits). Two
//! export surfaces:
//!
//! * [`MetricsRegistry::jsonl_line`] — one compact JSON object per
//!   emission, appended to `metrics.jsonl`; keys are sorted so the schema
//!   is stable and diffable.
//! * [`MetricsRegistry::prometheus_text`] — a Prometheus text-exposition
//!   dump (counters as `_total`, histograms as summaries with bucket-bound
//!   quantiles), for scrape-style consumers.

use fp_telemetry::LogHistogram;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Internal metrics: counters, gauges, histograms. Names are `&'static
/// str` because the metric set is fixed at compile time — there is no
/// dynamic label cardinality to manage.
pub struct MetricsRegistry {
    start: Instant,
    emitted: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry; uptime is measured from construction.
    pub fn new() -> Self {
        MetricsRegistry {
            start: Instant::now(),
            emitted: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Add to a counter.
    pub fn inc(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Set a counter to an absolute value (for mirroring counters owned
    /// elsewhere, e.g. the queue's atomics).
    pub fn set_counter(&mut self, name: &'static str, v: u64) {
        self.counters.insert(name, v);
    }

    /// Set a gauge.
    pub fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Make a histogram exist (empty) before its first observation, so
    /// exports list it from the first line on.
    pub fn register_histogram(&mut self, name: &'static str) {
        self.hists.entry(name).or_default();
    }

    /// Seconds since the registry was created.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64().max(1e-9)
    }

    /// One `metrics.jsonl` line: a compact JSON object with `seq`,
    /// `uptime_us`, and the three metric sections. Increments the
    /// emission sequence number.
    pub fn jsonl_line(&mut self) -> String {
        self.emitted += 1;
        let hists: Vec<(String, Value)> = self
            .hists
            .iter()
            .map(|(k, h)| (k.to_string(), h.export().to_value()))
            .collect();
        let v = Value::Map(vec![
            ("seq".to_string(), Value::U64(self.emitted)),
            (
                "uptime_us".to_string(),
                Value::U64(self.start.elapsed().as_micros() as u64),
            ),
            (
                "counters".to_string(),
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.to_string(), Value::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Map(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.to_string(), Value::F64(v)))
                        .collect(),
                ),
            ),
            ("histograms".to_string(), Value::Map(hists)),
        ]);
        serde_json::to_string(&v).expect("metrics line serializes")
    }

    /// Prometheus text-exposition dump of the current state.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!(
                "# TYPE fp_monitord_{k}_total counter\nfp_monitord_{k}_total {v}\n"
            ));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!(
                "# TYPE fp_monitord_{k} gauge\nfp_monitord_{k} {v}\n"
            ));
        }
        for (k, h) in &self.hists {
            out.push_str(&format!("# TYPE fp_monitord_{k} summary\n"));
            for q in [0.5, 0.9, 0.99] {
                if let Some(v) = h.quantile(q) {
                    out.push_str(&format!("fp_monitord_{k}{{quantile=\"{q}\"}} {v}\n"));
                }
            }
            out.push_str(&format!("fp_monitord_{k}_sum {}\n", h.sum()));
            out.push_str(&format!("fp_monitord_{k}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_line_has_stable_schema() {
        let mut m = MetricsRegistry::new();
        m.inc("snapshots_processed", 7);
        m.set_gauge("queue_depth", 3.0);
        m.observe("scan_latency_ns", 1500);
        m.observe("scan_latency_ns", 90_000);
        let line = m.jsonl_line();
        let v: Value = serde_json::from_str(&line).unwrap();
        let map = v.as_map().unwrap();
        for key in ["seq", "uptime_us", "counters", "gauges", "histograms"] {
            assert!(map.iter().any(|(k, _)| k == key), "missing {key}");
        }
        let hists = map
            .iter()
            .find(|(k, _)| k == "histograms")
            .unwrap()
            .1
            .as_map()
            .unwrap();
        let h = hists
            .iter()
            .find(|(k, _)| k == "scan_latency_ns")
            .unwrap()
            .1
            .as_map()
            .unwrap();
        let count = h
            .iter()
            .find(|(k, _)| k == "count")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        assert_eq!(count, 2);
        // Sequence number advances per emission.
        let v2: Value = serde_json::from_str(&m.jsonl_line()).unwrap();
        let seq2 = v2
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "seq")
            .and_then(|(_, v)| v.as_u64())
            .unwrap();
        assert_eq!(seq2, 2);
    }

    #[test]
    fn prometheus_text_covers_all_kinds() {
        let mut m = MetricsRegistry::new();
        m.inc("ingest_dropped", 2);
        m.set_gauge("streams_active", 5.0);
        m.observe("batch_size", 16);
        let text = m.prometheus_text();
        assert!(text.contains("# TYPE fp_monitord_ingest_dropped_total counter"));
        assert!(text.contains("fp_monitord_ingest_dropped_total 2"));
        assert!(text.contains("fp_monitord_streams_active 5"));
        assert!(text.contains("fp_monitord_batch_size{quantile=\"0.5\"}"));
        assert!(text.contains("fp_monitord_batch_size_count 1"));
    }
}
