//! Every type writes its JSON straight into the vendored serde's one
//! writer (`Serialize::write_json`). The text must be what writing its
//! `to_value` tree gives, byte for byte, compact and pretty; and every
//! committed results file, read into its rows and written back the way
//! `RunConfig::save_json` writes, must come back unchanged.

use flowpulse::prelude::*;
use fp_bench::{drop_fault, RunConfig};
use fp_monitord::{Monitord, ServiceConfig};
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// `x` written directly equals `x`'s value tree written, in both layouts.
fn same_as_tree<T: Serialize>(what: &str, x: &T) {
    let tree = x.to_value();
    assert_eq!(
        serde_json::to_string(x).unwrap(),
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
}

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Named {
    a: u32,
    b: Vec<f64>,
    c: Option<String>,
    d: Shape,
}

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Newtype(i64);

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Pair(u8, Option<bool>);

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Unit;

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct Empty {}

#[derive(Serialize, Deserialize, PartialEq, Debug)]
enum Shape {
    Plain,
    Wrapped(Newtype),
    Tupled(u32, f64, Vec<Unit>),
    Fielded { x: i8, y: Vec<Shape>, z: Pair },
}

#[test]
fn every_derive_shape_writes_its_tree() {
    let nested = Shape::Fielded {
        x: -3,
        y: vec![
            Shape::Plain,
            Shape::Wrapped(Newtype(i64::MIN)),
            Shape::Tupled(7, -0.0, vec![Unit, Unit]),
            Shape::Fielded {
                x: 0,
                y: vec![],
                z: Pair(255, None),
            },
        ],
        z: Pair(1, Some(true)),
    };
    let named = Named {
        a: 42,
        b: vec![0.1, 1e16, 2.0, -0.0, 5e-324],
        c: Some("quote \" tab \t".into()),
        d: nested,
    };
    same_as_tree("named struct", &named);
    same_as_tree("tuple struct", &Pair(9, Some(false)));
    same_as_tree("newtype struct", &Newtype(-5));
    same_as_tree("unit struct", &Unit);
    same_as_tree("struct without fields", &Empty {});
    same_as_tree(
        "non-finite floats",
        &[f64::NAN, f64::INFINITY, -f64::INFINITY],
    );
    for v in [
        Shape::Plain,
        Shape::Wrapped(Newtype(1)),
        Shape::Tupled(1, 2.5, vec![]),
        Shape::Fielded {
            x: 1,
            y: vec![Shape::Plain],
            z: Pair(0, None),
        },
    ] {
        same_as_tree(&format!("{v:?}"), &v);
    }
    assert_eq!(serde_json::to_string(&Unit).unwrap(), "null");
    assert_eq!(serde_json::to_string(&Empty {}).unwrap(), "{}");
    assert_eq!(serde_json::to_string(&Shape::Plain).unwrap(), r#""Plain""#);
    assert_eq!(
        serde_json::to_string(&Shape::Tupled(1, 2.5, vec![Unit])).unwrap(),
        r#"{"Tupled":[1,2.5,[null]]}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Wrapped(Newtype(3))).unwrap(),
        "{\n  \"Wrapped\": 3\n}"
    );

    // What the writer wrote reads back as what was written.
    let back: Named = serde_json::from_str(&serde_json::to_string(&named).unwrap()).unwrap();
    assert_eq!(back, named);
}

/// A small faulty trial: it alarms and localizes, so every optional part
/// of its result is filled.
fn small_trial() -> (TrialSpec, TrialResult) {
    let spec = TrialSpec {
        leaves: 4,
        spines: 2,
        bytes_per_node: 2 * 1024 * 1024,
        iterations: 3,
        fault: Some(drop_fault(0.05, 1)),
        ..Default::default()
    };
    let result = run_trial(&spec);
    assert!(result.detected, "the 5 % drop must alarm");
    (spec, result)
}

#[test]
fn the_types_the_tree_writes_out_write_their_trees() {
    same_as_tree("TrialSpec::default()", &TrialSpec::default());
    let (spec, r) = small_trial();
    same_as_tree("spec", &spec);
    same_as_tree("stats", &r.stats);
    same_as_tree("sched", &r.sched);
    assert!(!r.alarms.is_empty());
    same_as_tree("alarms", &r.alarms);
    for a in &r.alarms {
        same_as_tree("alarm", a);
    }
    assert!(r.localization.is_some());
    same_as_tree("localization", &r.localization);
    same_as_tree("iter_max_dev", &r.iter_max_dev);
    same_as_tree("learned_events", &r.learned_events);
    same_as_tree("fault_port", &r.fault_port);
    same_as_tree("predicted", &r.predicted);
    same_as_tree("iter_goodput", &r.iter_goodput);

    let snapshot = CounterSnapshot {
        fabric: "fabric-\u{1}\"07\"".into(),
        job: 3,
        iter: 11,
        n_leaves: 16,
        n_vspines: 8,
        t_ns: u64::MAX,
        bytes: (0..128u64).map(|i| i * 104_729 % 9_999_991).collect(),
        last: true,
    };
    same_as_tree("snapshot", &snapshot);
    assert_eq!(
        fp_monitord::snapshot_line(&snapshot),
        serde_json::to_string(&snapshot.to_value()).unwrap()
    );

    let cfg = RunConfig::from_vars(|_| None).unwrap();
    let manifest = fp_telemetry::Manifest {
        name: "json_writer".into(),
        git: "abc1234-dirty".into(),
        config: cfg.to_value(),
        host_parallelism: 2,
        trials: 1,
        seeds: vec![spec.seed],
        wall_us_total: 1234,
        events_total: r.stats.events,
        events_per_sec: r.stats.events as f64 / 1.234e-3,
        memo_hits: r.memo_hits,
        memo_replayed_events: r.memo_replayed_events,
        sched: r.sched.to_value(),
        specs: vec![&spec].to_value(),
        ctrl: Value::Null,
    };
    same_as_tree("manifest", &manifest);
    same_as_tree("run config (hand-written to_value)", &cfg);
}

#[test]
fn monitord_stream_reports_write_their_trees() {
    let svc = Monitord::spawn(ServiceConfig::default());
    let handle = svc.handle();
    for iter in 0..5u32 {
        for (fabric, faulty) in [("clean", false), ("sagging", true)] {
            let mut bytes = vec![1000u64; 8];
            if faulty && iter >= 2 {
                bytes[2] = 900;
                bytes[4] = 900;
            }
            assert!(handle.push(CounterSnapshot {
                fabric: fabric.into(),
                job: 1,
                iter,
                n_leaves: 4,
                n_vspines: 2,
                t_ns: 1000 * u64::from(iter),
                bytes,
                last: iter == 4,
            }));
        }
    }
    drop(handle);
    let report = svc.shutdown();
    assert_eq!(report.streams.len(), 2);
    let sagging = &report.streams[1];
    assert!(!sagging.alarms.is_empty() && sagging.localization.is_some());
    same_as_tree("stream reports", &report.streams);
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed `results/<name>.json`, read as `T` and written back as
/// `RunConfig::save_json` writes it (pretty, then a newline), is the
/// committed text.
fn rewrites<T: Serialize + Deserialize>(name: &str) {
    let path = repo().join("results").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let rows: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let written = serde_json::to_string_pretty(&rows).unwrap() + "\n";
    assert!(
        written == text,
        "results/{name}.json does not rewrite to its bytes"
    );
}

#[test]
fn committed_results_rewrite_to_their_bytes() {
    use fp_bench::results::*;
    rewrites::<Vec<fig2::Row>>("fig2");
    rewrites::<Vec<fig3::Row>>("fig3");
    rewrites::<Vec<fig5a::Row>>("fig5a");
    rewrites::<Vec<fig5b::Row>>("fig5b");
    rewrites::<Vec<fig5c::Row>>("fig5c");
    rewrites::<Vec<preexisting::Row>>("preexisting");
    rewrites::<headline::Row>("headline");
    rewrites::<Vec<threelevel::Row>>("threelevel");
    rewrites::<Vec<mitigation::Row>>("mitigation");
    rewrites::<Vec<e11_spray::Row>>("e11_spray");
    rewrites::<Vec<ablate_spray::Row>>("ablate_spray");
    rewrites::<Vec<ablate_jitter::Row>>("ablate_jitter");
    rewrites::<Vec<ablate_priority::Row>>("ablate_priority");
    rewrites::<Vec<ablate_localize_ring::Row>>("ablate_localize_ring");
    rewrites::<Vec<ablate_localize_alltoall::Row>>("ablate_localize_alltoall");
    rewrites::<Vec<ablate_model::Row>>("ablate_model");
}
