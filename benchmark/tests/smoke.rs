//! Schema of `/BENCHMARK.json` and a quick end-to-end set.

use fpbench::decl::{self, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    fpbench::json::get(v, key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_what_the_code_declares_and_fits_the_schema() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(repo.join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        decl::benchmark_json(),
        "regenerate with `benchmark/run.sh declare > BENCHMARK.json`"
    );
    assert!(text.len() <= 64 * 1024);

    let doc: Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        get(&doc, "paths").as_seq().unwrap(),
        [Value::Str("benchmark".into())]
    );
    let seconds = get(&doc, "run_seconds").as_u64().unwrap();
    assert!((1..=60).contains(&seconds));

    let workloads = get(&doc, "workloads").as_seq().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = get(w, "why").as_str().unwrap();
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        names.push(get(w, "name").as_str().unwrap().to_string());
    }

    let e2e = get(&doc, "end_to_end").as_seq().unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = get(m, "bound").as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        names.push(get(m, "name").as_str().unwrap().to_string());
    }
    let setup = e2e
        .iter()
        .find(|m| get(m, "name").as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(get(setup, "unit").as_str(), Some("s"));
    assert_eq!(get(setup, "better").as_str(), Some("lower"));
    let largest = e2e
        .iter()
        .map(|m| get(m, "bound").as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(
        get(setup, "bound").as_f64(),
        Some(largest),
        "setup_s has the largest bound"
    );

    let layers = get(&doc, "per_layer").as_seq().unwrap();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(get(m, "name").as_str().unwrap().to_string());
    }
    for m in e2e.iter().chain(layers) {
        assert!(valid_unit(get(m, "unit").as_str().unwrap()), "{m:?}");
        assert!(
            matches!(get(m, "better").as_str(), Some("higher" | "lower")),
            "{m:?}"
        );
    }
    for n in &names {
        assert!(valid_name(n), "bad name {n}");
    }
    let unique: std::collections::BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn every_layer_metric_names_the_end_to_end_metric_it_should_move() {
    for d in PER_LAYER {
        let known = |part: &str| {
            let mut words = part.trim().splitn(3, ' ');
            let (metric, on) = (words.next().unwrap_or(""), words.next());
            let workloads_ok = words.next().is_some_and(|list| {
                list.split(", ")
                    .all(|w| WORKLOADS.iter().any(|x| x.name == w))
            });
            END_TO_END.iter().any(|m| m.name == metric) && on == Some("on") && workloads_ok
        };
        assert!(
            d.moves == "-" || d.moves.split(';').all(known),
            "{}: '{}' does not name a declared metric and workload",
            d.name,
            d.moves
        );
    }
    for m in END_TO_END {
        assert!(!m.on.is_empty());
        assert!(m.on.iter().all(|w| WORKLOADS.iter().any(|x| x.name == *w)));
    }
}

#[test]
fn gitignore_covers_build_and_run_outputs() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(".gitignore")).unwrap();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    assert!(lines.contains(&"out/") && lines.contains(&"target/"));
}

/// `suite --quick`: three units per workload, every output check on.
#[test]
fn quick_set_runs_checks_outputs_and_reports_every_pair() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_out");
    let out = Command::new(env!("CARGO_BIN_EXE_fpbench"))
        .args(["suite", "--quick", "--out-dir"])
        .arg(&out_dir)
        // Must be scrubbed by fpbench itself: no accelerator comes from the environment.
        .env("FP_MEMO", "1")
        .env("FP_SHARDS", "2")
        .output()
        .expect("fpbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().last(), Some("\"claim\": null"));

    let text = std::fs::read_to_string(out_dir.join("summary.json")).unwrap();
    let doc: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(get(&doc, "correct"), &Value::Bool(true));
    assert_eq!(get(&doc, "failed").as_u64(), Some(0));
    assert_eq!(get(&doc, "claim"), &Value::Null);
    for key in ["git", "rustc", "cpu", "nproc", "seed", "rounds", "paired"] {
        get(get(&doc, "provenance"), key);
    }
    let rows = get(&doc, "rows").as_seq().unwrap();
    // One row per pair a metric is measured on; the others appear nowhere.
    assert_eq!(
        rows.len(),
        END_TO_END.iter().map(|m| m.on.len()).sum::<usize>()
    );
    for r in rows {
        for key in [
            "workload", "metric", "unit", "better", "bound", "n", "q1", "median", "q3",
        ] {
            get(r, key);
        }
        let median = get(r, "median").as_f64().unwrap();
        assert!(
            median > 0.0 && median != decl::NOT_APPLICABLE,
            "a metric read zero or not-applicable: {r:?}"
        );
    }
}
