//! Every type writes its JSON straight into the vendored serde's one
//! writer (`Serialize::write_json`). The derive shapes write the literal
//! texts below, compact and pretty; a type's `Value` tree, its compact
//! text parsed back, writes that text again in both layouts; and every
//! committed results file, read into its rows and written back the way
//! `RunConfig::save_json` writes, must come back unchanged.

use flowpulse::prelude::*;
use fp_bench::{drop_fault, RunConfig};
use fp_monitord::{Monitord, ServiceConfig};
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// `x` writes `compact` and `pretty`.
fn writes<T: Serialize>(x: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(x).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(x).unwrap(), pretty);
}

/// `x`'s tree, its text parsed back, writes `x`'s text in both layouts.
fn tree_writes_its_text<T: Serialize>(what: &str, x: &T) {
    let tree = x.to_value();
    assert_eq!(
        serde_json::to_string(&tree).unwrap(),
        serde_json::to_string(x).unwrap(),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        serde_json::to_string_pretty(x).unwrap(),
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
fn every_derive_shape_writes_its_text() {
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
    writes(
        &named,
        r#"{"a":42,"b":[0.1,1e16,2.0,-0.0,5e-324],"c":"quote \" tab \t","d":{"Fielded":{"x":-3,"y":["Plain",{"Wrapped":-9223372036854775808},{"Tupled":[7,-0.0,[null,null]]},{"Fielded":{"x":0,"y":[],"z":[255,null]}}],"z":[1,true]}}}"#,
        r#"{
  "a": 42,
  "b": [
    0.1,
    1e16,
    2.0,
    -0.0,
    5e-324
  ],
  "c": "quote \" tab \t",
  "d": {
    "Fielded": {
      "x": -3,
      "y": [
        "Plain",
        {
          "Wrapped": -9223372036854775808
        },
        {
          "Tupled": [
            7,
            -0.0,
            [
              null,
              null
            ]
          ]
        },
        {
          "Fielded": {
            "x": 0,
            "y": [],
            "z": [
              255,
              null
            ]
          }
        }
      ],
      "z": [
        1,
        true
      ]
    }
  }
}"#,
    );
    writes(&Pair(9, Some(false)), "[9,false]", "[\n  9,\n  false\n]");
    writes(&Newtype(-5), "-5", "-5");
    writes(&Unit, "null", "null");
    writes(&Empty {}, "{}", "{}");
    writes(
        &[f64::NAN, f64::INFINITY, -f64::INFINITY],
        "[null,null,null]",
        "[\n  null,\n  null,\n  null\n]",
    );
    writes(&Shape::Plain, r#""Plain""#, r#""Plain""#);
    writes(
        &Shape::Wrapped(Newtype(1)),
        r#"{"Wrapped":1}"#,
        "{\n  \"Wrapped\": 1\n}",
    );
    writes(
        &Shape::Tupled(1, 2.5, vec![]),
        r#"{"Tupled":[1,2.5,[]]}"#,
        "{\n  \"Tupled\": [\n    1,\n    2.5,\n    []\n  ]\n}",
    );
    writes(
        &Shape::Fielded {
            x: 1,
            y: vec![Shape::Plain],
            z: Pair(0, None),
        },
        r#"{"Fielded":{"x":1,"y":["Plain"],"z":[0,null]}}"#,
        r#"{
  "Fielded": {
    "x": 1,
    "y": [
      "Plain"
    ],
    "z": [
      0,
      null
    ]
  }
}"#,
    );
    tree_writes_its_text("named struct", &named);
    // A non-finite float is written `null`, so that is its tree too.
    assert_eq!(
        [f64::NAN, f64::INFINITY].to_value(),
        Value::Seq(vec![Value::Null, Value::Null])
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
fn workspace_types_parse_back_to_their_text() {
    tree_writes_its_text("TrialSpec::default()", &TrialSpec::default());
    let (spec, r) = small_trial();
    tree_writes_its_text("spec", &spec);
    tree_writes_its_text("stats", &r.stats);
    tree_writes_its_text("sched", &r.sched);
    assert!(!r.alarms.is_empty());
    tree_writes_its_text("alarms", &r.alarms);
    for a in &r.alarms {
        tree_writes_its_text("alarm", a);
    }
    assert!(r.localization.is_some());
    tree_writes_its_text("localization", &r.localization);
    tree_writes_its_text("iter_max_dev", &r.iter_max_dev);
    tree_writes_its_text("learned_events", &r.learned_events);
    tree_writes_its_text("fault_port", &r.fault_port);
    tree_writes_its_text("predicted", &r.predicted);
    tree_writes_its_text("iter_goodput", &r.iter_goodput);

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
    tree_writes_its_text("snapshot", &snapshot);
    assert_eq!(
        fp_monitord::snapshot_line(&snapshot),
        serde_json::to_string(&snapshot).unwrap()
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
    tree_writes_its_text("manifest", &manifest);
    tree_writes_its_text("run config", &cfg);
}

#[test]
fn monitord_stream_reports_parse_back_to_their_text() {
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
    tree_writes_its_text("stream reports", &report.streams);
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
