//! The `trial` binary reads its spec from outside the program: a spec it
//! cannot read or parse ends the run with status 2 and one line naming the
//! file and what is wrong, never a panic.

use flowpulse::prelude::TrialSpec;
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
