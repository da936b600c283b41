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

use fp_monitord::{feed_lines, Monitord, QueuePolicy, ServiceConfig, WireStats};

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = ServiceConfig {
        queue_capacity: env_or("FP_MONITORD_CAP", 1024),
        batch_max: env_or("FP_MONITORD_BATCH", 64),
        policy: std::env::var("FP_MONITORD_POLICY")
            .ok()
            .and_then(|v| QueuePolicy::parse(&v))
            .unwrap_or(QueuePolicy::Block),
        threshold: env_or("FP_MONITORD_THRESHOLD", 0.01),
        warmup: env_or("FP_MONITORD_WARMUP", 1),
        metrics_path: std::env::var("FP_MONITORD_METRICS")
            .ok()
            .filter(|p| !p.is_empty())
            .map(std::path::PathBuf::from),
        ..Default::default()
    };
    eprintln!(
        "fp-monitord: policy={} cap={} batch={} threshold={} warmup={}",
        cfg.policy.name(),
        cfg.queue_capacity,
        cfg.batch_max,
        cfg.threshold,
        cfg.warmup
    );
    let svc = Monitord::spawn(cfg);
    let handle = svc.handle();

    let fed = match std::env::var("FP_MONITORD_SOCK") {
        Ok(path) if !path.is_empty() => {
            let _ = std::fs::remove_file(&path);
            let listener =
                std::os::unix::net::UnixListener::bind(&path).expect("bind monitord socket");
            eprintln!("fp-monitord: listening on {path}");
            let max = std::env::var("FP_MONITORD_CONNS")
                .ok()
                .and_then(|v| v.parse().ok());
            fp_monitord::serve_unix(&listener, &handle, max)
        }
        _ => feed_lines(std::io::stdin().lock(), &handle),
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
