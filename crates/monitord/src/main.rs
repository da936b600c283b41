//! `fp-monitord` — run the monitor service against stdin or a socket.
//!
//! Reads newline-delimited [`CounterSnapshot`] JSON from stdin (default)
//! or accepts connections on a Unix-domain socket, runs the per-stream
//! learned monitor + ring localizer, and prints a per-stream summary and
//! a Prometheus-style metrics dump on EOF.
//!
//! Environment knobs:
//!
//! | var                      | default   | meaning                          |
//! |--------------------------|-----------|----------------------------------|
//! | `FP_MONITORD_POLICY`     | `block`   | queue policy: drop / park / block|
//! | `FP_MONITORD_CAP`        | `1024`    | queue capacity (snapshots)       |
//! | `FP_MONITORD_BATCH`      | `64`      | max batch size                   |
//! | `FP_MONITORD_THRESHOLD`  | `0.01`    | detection threshold              |
//! | `FP_MONITORD_WARMUP`     | `1`       | learned-baseline warmup iters    |
//! | `FP_MONITORD_METRICS`    | (unset)   | path for `metrics.jsonl`         |
//! | `FP_MONITORD_SOCK`       | (unset)   | serve a Unix socket instead      |
//! | `FP_MONITORD_CONNS`      | (unset)   | stop after N socket connections  |
//!
//! [`CounterSnapshot`]: flowpulse::snapshot::CounterSnapshot
//!
//! A value that does not parse ends the process with status 2 and a line
//! naming the variable and the value; unset or empty means the default.

use fp_monitord::{feed_lines, Monitord, QueuePolicy, ServiceConfig, WireStats};
use fp_telemetry::parse_setting as get;
use std::path::PathBuf;

/// The service configuration, the socket to serve (`FP_MONITORD_SOCK`) and
/// its connection limit (`FP_MONITORD_CONNS`), from the settings `var`
/// looks up.
type Settings = (ServiceConfig, Option<PathBuf>, Option<u64>);

fn settings(var: impl Fn(&str) -> Option<String>) -> Result<Settings, String> {
    fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
        v.parse().ok()
    }
    let path = |key| var(key).filter(|p| !p.is_empty()).map(PathBuf::from);
    let count = "a whole number";
    let d = ServiceConfig::default();
    let cfg = ServiceConfig {
        queue_capacity: get(&var, "FP_MONITORD_CAP", count, num)?.unwrap_or(d.queue_capacity),
        batch_max: get(&var, "FP_MONITORD_BATCH", count, num)?.unwrap_or(d.batch_max),
        policy: get(
            &var,
            "FP_MONITORD_POLICY",
            "drop|park|block",
            QueuePolicy::parse,
        )?
        .unwrap_or(d.policy),
        threshold: get(
            &var,
            "FP_MONITORD_THRESHOLD",
            "a fraction such as 0.01",
            |v| num::<f64>(v).filter(|t| t.is_finite() && *t >= 0.0),
        )?
        .unwrap_or(d.threshold),
        warmup: get(&var, "FP_MONITORD_WARMUP", count, num)?.unwrap_or(d.warmup),
        metrics_path: path("FP_MONITORD_METRICS"),
        ..d
    };
    let conns = get(&var, "FP_MONITORD_CONNS", count, num)?;
    Ok((cfg, path("FP_MONITORD_SOCK"), conns))
}

/// The one place the daemon reads its environment.
#[allow(clippy::disallowed_methods)]
fn main() {
    let (cfg, sock, max_conns) = settings(|key| std::env::var(key).ok()).unwrap_or_else(|e| {
        eprintln!("fp-monitord: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "fp-monitord: policy={} cap={} batch={} threshold={} warmup={} metrics={:?} sock={:?} conns={:?}",
        cfg.policy.name(),
        cfg.queue_capacity,
        cfg.batch_max,
        cfg.threshold,
        cfg.warmup,
        cfg.metrics_path,
        sock,
        max_conns
    );
    let svc = Monitord::spawn(cfg);
    let handle = svc.handle();

    let fed = match sock {
        Some(path) => {
            let _ = std::fs::remove_file(&path);
            let listener =
                std::os::unix::net::UnixListener::bind(&path).expect("bind monitord socket");
            eprintln!("fp-monitord: listening on {}", path.display());
            fp_monitord::serve_unix(&listener, &handle, max_conns)
        }
        None => feed_lines(std::io::stdin().lock(), &handle),
    };
    // Input that fails ends the run, not the report: every stream's
    // verdicts so far are still printed, then the exit status says so.
    let input_failed = fed.is_err();
    let stats = fed.unwrap_or_else(|e| {
        eprintln!("fp-monitord: input failed, wire counts are lost: {e}");
        WireStats::default()
    });

    let report = svc.shutdown();
    println!(
        "# fp-monitord: {} snapshots, {} streams, {} batches \
         (wire: {} lines, {} malformed, {} rejected)",
        report.snapshots,
        report.streams.len(),
        report.batches,
        stats.lines,
        stats.malformed,
        stats.rejected
    );
    println!(
        "# queue: offered={} accepted={} dropped={} parked={} blocked={}",
        report.queue.offered,
        report.queue.accepted,
        report.queue.dropped,
        report.queue.parked,
        report.queue.blocked
    );
    for s in &report.streams {
        let verdict = match &s.localization {
            Some(l) if !l.cables.is_empty() => format!("cables {:?}", l.cables),
            Some(l) => format!("unpaired {:?}", l.unpaired),
            None => "clean".into(),
        };
        println!(
            "stream {}/job{}: {} snapshots, {} alarms ({} fresh), {}",
            s.fabric,
            s.job,
            s.snapshots,
            s.alarms.len(),
            s.alarms.iter().filter(|a| a.fresh).count(),
            verdict
        );
    }
    println!("\n{}", report.prometheus);
    if input_failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(pairs: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_and_empty_settings_mean_the_defaults() {
        let d = ServiceConfig::default();
        for env in [
            &[][..],
            &[("FP_MONITORD_CAP", ""), ("FP_MONITORD_POLICY", " ")][..],
        ] {
            let (cfg, sock, conns) = settings(with(env)).unwrap();
            assert_eq!(cfg.queue_capacity, d.queue_capacity);
            assert_eq!(cfg.batch_max, d.batch_max);
            assert_eq!(cfg.policy, d.policy);
            assert_eq!(cfg.threshold, d.threshold);
            assert_eq!(cfg.warmup, d.warmup);
            assert_eq!(cfg.metrics_path, None);
            assert_eq!((sock, conns), (None, None));
        }
    }

    #[test]
    fn well_formed_settings_apply() {
        let (cfg, sock, conns) = settings(with(&[
            ("FP_MONITORD_CAP", "16"),
            ("FP_MONITORD_BATCH", "4"),
            ("FP_MONITORD_POLICY", "Drop"),
            ("FP_MONITORD_THRESHOLD", "0.05"),
            ("FP_MONITORD_WARMUP", "3"),
            ("FP_MONITORD_METRICS", "m.jsonl"),
            ("FP_MONITORD_SOCK", "/tmp/m.sock"),
            ("FP_MONITORD_CONNS", "2"),
        ]))
        .unwrap();
        assert_eq!((cfg.queue_capacity, cfg.batch_max), (16, 4));
        assert_eq!(cfg.policy, QueuePolicy::Drop);
        assert_eq!((cfg.threshold, cfg.warmup), (0.05, 3));
        assert_eq!(cfg.metrics_path, Some("m.jsonl".into()));
        assert_eq!(sock, Some("/tmp/m.sock".into()));
        assert_eq!(conns, Some(2));
    }

    #[test]
    fn a_mistyped_setting_is_refused_by_name_and_value() {
        for (key, bad) in [
            ("FP_MONITORD_POLICY", "dorp"),
            ("FP_MONITORD_THRESHOLD", "1%"),
            ("FP_MONITORD_THRESHOLD", "-0.01"),
            ("FP_MONITORD_THRESHOLD", "NaN"),
            ("FP_MONITORD_CAP", "1k"),
            ("FP_MONITORD_BATCH", "-1"),
            ("FP_MONITORD_WARMUP", "one"),
            ("FP_MONITORD_CONNS", "2.5"),
        ] {
            let err = settings(|k| (k == key).then(|| bad.to_string())).unwrap_err();
            assert!(
                err.contains(key) && err.contains(bad),
                "{key}={bad}: error must name both: {err}"
            );
        }
    }
}
