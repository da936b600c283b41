//! `BENCH_netsim.json` — the machine-readable perf trajectory.
//!
//! Every logged campaign updates one entry, keyed by campaign name, in a
//! single JSON map at the repository root. Committing the file makes the
//! headline events/sec visible (and diffable) across PRs without parsing
//! `results/campaign_log.txt`.
//!
//! Placement rules:
//! * `FP_BENCH_JSON=<path>` writes there instead (set it to a scratch path
//!   in smoke scripts so CI runs don't clobber the committed numbers;
//!   setting it to the empty string disables the write entirely);
//! * otherwise the file goes to the enclosing repository root (the nearest
//!   ancestor directory containing `Cargo.lock` or `.git`) — but only for
//!   *full* runs: `FP_QUICK` numbers are meaningless as a trajectory and
//!   are dropped unless `FP_BENCH_JSON` asks for them explicitly.

use serde::{Serialize, Value};
use std::path::PathBuf;

/// One campaign's headline numbers.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Campaign name (`"headline"`, `"fig5a"`, …) — also the map key.
    pub name: String,
    /// `git describe --always --dirty` of the producing tree.
    pub git: String,
    /// Event-scheduler backend (`"heap"` / `"wheel"`).
    pub scheduler: String,
    /// Worker threads the campaign ran with.
    pub threads: u64,
    /// Logical cores the producing host exposed
    /// (`std::thread::available_parallelism`): a `threads > 1` row
    /// recorded on a single-core host measures coordination overhead, not
    /// speedup — this field lets readers tell the two apart.
    pub host_parallelism: u64,
    /// Whether `FP_QUICK` reduced the sweep.
    pub quick: bool,
    /// Trial count.
    pub trials: u64,
    /// Campaign wall-clock, microseconds.
    pub wall_us: u64,
    /// Total engine events across trials.
    pub events: u64,
    /// Aggregate engine events per wall-clock second.
    pub events_per_sec: f64,
    /// Total scheduler pushes across trials. Pipeline deliveries bypass the
    /// scheduler, so this tracks how much traffic the wheel/heap actually
    /// absorbs — the number the link-pipeline work drives down.
    pub sched_pushes: u64,
    /// Iteration spans fast-forwarded by temporal-symmetry memoization
    /// (`FP_MEMO`), summed across trials. 0 when memoization was off or
    /// never converged.
    pub memo_hits: u64,
    /// Engine events accounted for by replayed spans (already included in
    /// `events`), summed across trials.
    pub memo_replayed_events: u64,
    /// Mean time-to-detect across controller-enabled faulty trials,
    /// nanoseconds of simulated time. `None` for controller-less campaigns.
    pub tt_detect_ns: Option<u64>,
    /// Mean time-to-mitigate across controller-enabled faulty trials,
    /// nanoseconds of simulated time. `None` for controller-less campaigns.
    pub tt_mitigate_ns: Option<u64>,
    /// Healthy cables wrongly admin-downed across the campaign. `None` for
    /// controller-less campaigns.
    pub false_mitigations: Option<u64>,
    /// `fp-monitord`'s own per-stage latencies on a `monitord*` row.
    /// `None` — and no keys in the JSON — on every other row.
    pub service_latency: Option<ServiceLatency>,
}

/// Where a snapshot's time went inside the monitor service, microseconds,
/// as upper bucket bounds of the histograms the service records.
#[derive(Copy, Clone, Debug)]
pub struct ServiceLatency {
    /// Median time between `push` and the worker picking the snapshot up.
    pub queue_wait_p50_us: f64,
    /// 99th percentile of the same.
    pub queue_wait_p99_us: f64,
    /// Median record + scan + evict time of one snapshot.
    pub scan_p50_us: f64,
    /// 99th percentile of the same.
    pub scan_p99_us: f64,
}

/// Logical cores this host exposes, for [`BenchEntry::host_parallelism`].
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Hand-written so only `monitord*` rows carry the service-latency keys
/// (the vendored derive has no skip attribute). The controller keys
/// (`tt_*`, `false_mitigations`) stay explicit nulls: their absence would
/// read as "metric not implemented" rather than "controller disabled".
impl Serialize for BenchEntry {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("name".into(), self.name.to_value()),
            ("git".into(), self.git.to_value()),
            ("scheduler".into(), self.scheduler.to_value()),
            ("threads".into(), self.threads.to_value()),
            ("host_parallelism".into(), self.host_parallelism.to_value()),
            ("quick".into(), self.quick.to_value()),
            ("trials".into(), self.trials.to_value()),
            ("wall_us".into(), self.wall_us.to_value()),
            ("events".into(), self.events.to_value()),
            ("events_per_sec".into(), self.events_per_sec.to_value()),
            ("sched_pushes".into(), self.sched_pushes.to_value()),
            ("memo_hits".into(), self.memo_hits.to_value()),
            (
                "memo_replayed_events".into(),
                self.memo_replayed_events.to_value(),
            ),
            ("tt_detect_ns".into(), self.tt_detect_ns.to_value()),
            ("tt_mitigate_ns".into(), self.tt_mitigate_ns.to_value()),
            (
                "false_mitigations".into(),
                self.false_mitigations.to_value(),
            ),
        ];
        if let Some(l) = self.service_latency {
            m.extend([
                ("queue_wait_p50_us".into(), l.queue_wait_p50_us.to_value()),
                ("queue_wait_p99_us".into(), l.queue_wait_p99_us.to_value()),
                ("scan_p50_us".into(), l.scan_p50_us.to_value()),
                ("scan_p99_us".into(), l.scan_p99_us.to_value()),
            ]);
        }
        Value::Map(m)
    }
}

/// Where this process should write the bench file, honouring the rules in
/// the module docs. `None` means "don't write".
pub fn bench_json_path(quick: bool) -> Option<PathBuf> {
    if let Ok(p) = std::env::var("FP_BENCH_JSON") {
        if p.is_empty() {
            return None;
        }
        return Some(PathBuf::from(p));
    }
    if quick {
        return None;
    }
    repo_root().map(|r| r.join("BENCH_netsim.json"))
}

/// Nearest ancestor of the current directory that looks like a repository
/// root (holds `Cargo.lock` or `.git`).
fn repo_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.lock").exists() || dir.join(".git").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Insert-or-replace `entry` under its name in the bench file at the
/// env-resolved path (see [`bench_json_path`]). Returns the path written,
/// or `None` when the write is disabled.
pub fn record_bench(entry: &BenchEntry) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = bench_json_path(entry.quick) else {
        return Ok(None);
    };
    // A `-dirty` stamp caused only by regenerated artifacts (`results/`,
    // `BENCH_*.json`) would mark every benchmark refresh as untrustworthy;
    // drop the suffix when the dirt is exclusively such files.
    let cleaned = entry
        .git
        .strip_suffix("-dirty")
        .filter(|_| fp_telemetry::dirt_is_artifacts_only());
    let entry = match cleaned {
        Some(clean) => {
            let mut e = entry.clone();
            e.git = clean.to_string();
            std::borrow::Cow::Owned(e)
        }
        None => std::borrow::Cow::Borrowed(entry),
    };
    record_bench_at(&path, &entry)?;
    Ok(Some(path))
}

/// [`record_bench`] against an explicit path: preserves every other
/// campaign's entry and keeps keys sorted for stable diffs.
pub fn record_bench_at(path: &std::path::Path, entry: &BenchEntry) -> std::io::Result<()> {
    let mut entries: Vec<(String, Value)> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(v) => v
                .as_map()
                .map(<[(String, Value)]>::to_vec)
                .unwrap_or_default(),
            // A corrupt file is rebuilt rather than wedging every campaign.
            Err(_) => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    entries.retain(|(k, _)| k != &entry.name);
    entries.push((entry.name.clone(), entry.to_value()));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut json =
        serde_json::to_string_pretty(&Value::Map(entries)).map_err(std::io::Error::other)?;
    json.push('\n');
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, eps: f64) -> BenchEntry {
        BenchEntry {
            name: name.into(),
            git: "test".into(),
            scheduler: "wheel".into(),
            threads: 2,
            host_parallelism: 4,
            quick: false,
            trials: 3,
            wall_us: 1_000_000,
            events: 5_000_000,
            events_per_sec: eps,
            sched_pushes: 2_500_000,
            memo_hits: 0,
            memo_replayed_events: 0,
            tt_detect_ns: Some(1_000),
            tt_mitigate_ns: Some(51_000),
            false_mitigations: Some(0),
            service_latency: None,
        }
    }

    #[test]
    fn record_bench_merges_and_sorts_entries() {
        let dir = std::env::temp_dir().join(format!("fp-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_netsim.json");
        // Env-var races with other tests are avoided by not touching the
        // process environment: exercise the explicit-path variant.
        record_bench_at(&path, &entry("headline", 1e6)).unwrap();
        record_bench_at(&path, &entry("fig5a", 2e6)).unwrap();
        record_bench_at(&path, &entry("headline", 3e6)).unwrap(); // replaces, not duplicates
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let map = v.as_map().unwrap();
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["fig5a", "headline"]); // sorted, deduped
        let headline = map.iter().find(|(k, _)| k == "headline").unwrap();
        let eps = headline
            .1
            .as_map()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "events_per_sec")
            .and_then(|(_, v)| v.as_f64())
            .unwrap();
        assert!((eps - 3e6).abs() < 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_serializes_all_fields() {
        let v = entry("x", 1.5).to_value();
        let map = v.as_map().unwrap();
        for key in [
            "name",
            "git",
            "scheduler",
            "threads",
            "host_parallelism",
            "quick",
            "trials",
            "wall_us",
            "events",
            "events_per_sec",
            "sched_pushes",
            "memo_hits",
            "memo_replayed_events",
            "tt_detect_ns",
            "tt_mitigate_ns",
            "false_mitigations",
        ] {
            assert!(map.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }
}
