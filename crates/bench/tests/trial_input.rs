//! The `trial` binary reads its spec from outside the program: a spec it
//! cannot read or parse ends the run with status 2 and one line naming the
//! file and what is wrong, never a panic.

use flowpulse::prelude::{ModelKind, TrialSpec};
use std::path::PathBuf;
use std::process::Command;

/// Write `spec` to a file named `name`, run `trial` on it, and return the
/// exit code and the last line of stderr (the one before is the `[config …]`
/// echo every fp-bench binary prints).
fn run_trial_on(name: &str, spec: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, spec).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trial"))
        .arg(&path)
        .env("FP_RESULTS", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("trial starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let last = stderr.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

#[test]
fn malformed_json_exits_2_naming_the_file_and_the_parse_error() {
    let (code, line) = run_trial_on("trial_cut_short.json", r#"{ "leaves": 4,"#);
    assert_eq!(code, Some(2), "{line}");
    assert!(
        line.starts_with("malformed TrialSpec in ") && line.contains("trial_cut_short.json: "),
        "{line}"
    );
}

#[test]
fn a_straggler_jitter_spec_is_malformed_input() {
    let spec = serde_json::to_string(&TrialSpec::default()).unwrap();
    let uniform = r#""jitter":{"Uniform":{"max":1000}}"#;
    assert!(spec.contains(uniform), "{spec}");
    let spec = spec.replace(uniform, r#""jitter":{"Straggler":{"delay":1000}}"#);
    let (code, line) = run_trial_on("trial_straggler.json", &spec);
    assert_eq!(code, Some(2), "{line}");
    assert!(
        line.contains("trial_straggler.json: ") && line.contains("unknown variant `Straggler`"),
        "{line}"
    );
}

/// A small spec as a build from before the transport settings became
/// constants wrote it: its `sim` map carries all nine, at their values.
fn spec_with_fixed_keys() -> String {
    let spec = TrialSpec {
        leaves: 4,
        spines: 2,
        bytes_per_node: 256 * 1024,
        iterations: 2,
        ..Default::default()
    };
    let spec = serde_json::to_string(&spec).unwrap();
    let fixed = r#""sim":{"mtu":4096,"wire_overhead":64,"ack_size":64,"rto":5000,
        "rto_backoff":2.0,"rto_backoff_cap":8,"ack_coalesce":8,"ack_flush_delay":500,
        "ecn_threshold":65536,"#;
    assert!(spec.contains(r#""sim":{"#), "{spec}");
    spec.replace(r#""sim":{"#, fixed)
}

#[test]
fn a_spec_carrying_the_fixed_keys_at_their_values_runs() {
    let (code, line) = run_trial_on("trial_fixed_keys.json", &spec_with_fixed_keys());
    assert_eq!(code, Some(0), "{line}");
}

#[test]
fn a_fixed_key_at_another_value_exits_2_naming_it() {
    let spec = spec_with_fixed_keys().replace(r#""mtu":4096"#, r#""mtu":9000"#);
    let (code, line) = run_trial_on("trial_jumbo_mtu.json", &spec);
    assert_eq!(code, Some(2), "{line}");
    assert!(
        line.starts_with("invalid TrialSpec in ")
            && line.ends_with("trial_jumbo_mtu.json: sim.mtu is fixed at 4096"),
        "{line}"
    );
}

/// A spec that parses but cannot run: rejected by `TrialSpec::validate`
/// before the simulation, naming the field, where it once panicked inside
/// the run (exit 101).
#[test]
fn an_unrunnable_spec_exits_2_naming_the_field() {
    let base = TrialSpec {
        leaves: 8,
        spines: 4,
        bytes_per_node: 1024 * 1024,
        ..Default::default()
    };
    let cases = [
        (
            "preexisting",
            TrialSpec {
                preexisting: 100,
                ..base.clone()
            },
        ),
        (
            "bytes_per_node",
            TrialSpec {
                bytes_per_node: 0,
                ..base.clone()
            },
        ),
        (
            "bytes_per_node",
            TrialSpec {
                bytes_per_node: 3,
                ..base.clone()
            },
        ),
        (
            "model.Learned.warmup",
            TrialSpec {
                model: ModelKind::Learned { warmup: 0 },
                ..base.clone()
            },
        ),
    ];
    for (i, (field, spec)) in cases.into_iter().enumerate() {
        let name = format!("trial_unrunnable_{i}.json");
        let (code, line) = run_trial_on(&name, &serde_json::to_string(&spec).unwrap());
        assert_eq!(code, Some(2), "{field}: {line}");
        assert!(
            line.starts_with("invalid TrialSpec in ") && line.contains(field),
            "{field}: {line}"
        );
    }
}
