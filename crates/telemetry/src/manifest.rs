//! Campaign run manifests: make `results/` artifacts self-describing.
//!
//! A campaign that runs with `FP_TELEMETRY=dir` writes one
//! `dir/<name>/manifest.json` recording the exact trial specs, seeds,
//! resolved configuration, and code revision that produced the artifacts,
//! plus wall-time totals — enough to reproduce or audit a run months later.

use serde::{Serialize, Value};
use std::path::Path;

/// Self-description of one campaign (or single-trial) run.
#[derive(Clone, Serialize, Debug)]
pub struct Manifest {
    /// Campaign name (e.g. the sweep binary: `"fig5a"`, `"headline"`).
    pub name: String,
    /// `git describe --always --dirty` of the producing tree.
    pub git: String,
    /// Every configuration knob the run resolved at start-up, defaults
    /// included (worker threads, quick mode, spray backend, memo, …),
    /// serialized by the caller.
    pub config: Value,
    /// Logical cores the producing host exposed
    /// (`std::thread::available_parallelism`). Lets readers judge whether
    /// worker-pool rows measured real concurrency or single-core
    /// coordination overhead.
    pub host_parallelism: u64,
    /// Trial count.
    pub trials: u64,
    /// Seeds, in spec order.
    pub seeds: Vec<u64>,
    /// Total wall-clock across trials, microseconds.
    pub wall_us_total: u64,
    /// Total engine events across trials.
    pub events_total: u64,
    /// Engine events per wall-clock second, aggregated.
    pub events_per_sec: f64,
    /// Event-scheduler backend the trials ran on (`"heap"` / `"wheel"`).
    pub scheduler: String,
    /// Iteration spans fast-forwarded by temporal-symmetry memoization
    /// (`FP_MEMO`), summed across trials. 0 when memoization was off or
    /// never converged.
    pub memo_hits: u64,
    /// Engine events accounted for by replayed spans (already included in
    /// `events_total`), summed across trials.
    pub memo_replayed_events: u64,
    /// Scheduler occupancy counters aggregated over the run (per-level
    /// slot insertions, overflow spills, cascades, pending high-water
    /// mark), serialized by the caller.
    pub sched: Value,
    /// The full trial spec list, serialized by the caller.
    pub specs: Value,
    /// Control-plane (closed-loop remediation) summary when the campaign
    /// ran with a controller — time-to-detect / time-to-mitigate /
    /// false-mitigation aggregates, serialized by the caller. `Null` for
    /// controller-less campaigns.
    pub ctrl: Value,
}

impl Manifest {
    /// Write `manifest.json` into `dir` (created if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        json.push('\n');
        std::fs::write(dir.join("manifest.json"), json)
    }
}

/// `git describe --always --dirty` of the current working directory's
/// repository, or `"unknown"` when git is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            name: "fig5a".into(),
            git: "abc1234".into(),
            config: Value::Map(vec![("threads".to_string(), Value::U64(4))]),
            host_parallelism: 8,
            trials: 2,
            seeds: vec![1000, 1001],
            wall_us_total: 120,
            events_total: 9000,
            events_per_sec: 7.5e7,
            scheduler: "wheel".into(),
            memo_hits: 3,
            memo_replayed_events: 4500,
            sched: Value::Map(vec![("max_pending".to_string(), Value::U64(12))]),
            specs: Value::Seq(vec![Value::Map(vec![(
                "seed".to_string(),
                Value::U64(1000),
            )])]),
            ctrl: Value::Null,
        };
        let dir = std::env::temp_dir().join(format!("fp-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        m.write(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let map = v.as_map().unwrap();
        let get = |key: &str| map.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(get("name").and_then(Value::as_str), Some("fig5a"));
        assert_eq!(get("trials").and_then(Value::as_u64), Some(2));
        assert_eq!(get("scheduler").and_then(Value::as_str), Some("wheel"));
        assert_eq!(get("host_parallelism").and_then(Value::as_u64), Some(8));
        assert_eq!(get("memo_hits").and_then(Value::as_u64), Some(3));
        assert_eq!(
            get("memo_replayed_events").and_then(Value::as_u64),
            Some(4500)
        );
        assert!(get("sched").and_then(Value::as_map).is_some());
        assert!(get("config").and_then(Value::as_map).is_some());
        assert_eq!(
            get("specs").and_then(Value::as_seq).map(<[Value]>::len),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_describe_never_panics() {
        let g = git_describe();
        assert!(!g.is_empty());
    }
}
