//! `fpbench` — the repository benchmark.
//!
//! ```text
//! fpbench run --workload W --seed N --seconds S --trace 0|1   one measured run (what BENCHMARK.json's command calls)
//! fpbench suite [--quick] [--rounds R] [--seconds S] [--seed N] [--out FILE]
//!             every workload, interleaved rounds, pooled medians
//! fpbench trace [--seed N] [--seconds S]                      traced run of every workload: per-layer table + Chrome traces
//! fpbench compare A.json B.json                               one row per (metric, workload); A is the parent
//! fpbench pairs PARENT_FPBENCH [--rounds R] [--seconds S]     parent and this build in alternating rounds, then compare
//! fpbench selfcheck [--quick] [--seed N]                      two sets of the same build must agree
//! fpbench expected                                            print expected.json (default-seed counts) from this build
//! fpbench declare                                             print BENCHMARK.json as the code declares it
//! fpbench map                                                 per-layer metric -> end-to-end metric it should move
//! ```

use fpbench::workloads::Workload;
use fpbench::{decl, expected, hostclock, json, layers, measure, suite};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--key value` pairs, bare flags and positionals after the subcommand.
struct Args {
    named: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => {
                    named.insert("quick".to_string(), "1".to_string());
                }
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    named.insert(key.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { named, positional })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.named.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.named.contains_key(key)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.named.get("workload").ok_or("--workload is required")?;
        Workload::parse(name).ok_or_else(|| {
            let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })
    }

    fn out_dir(&self) -> PathBuf {
        self.named
            .get("out-dir")
            .map_or_else(suite::default_out_dir, PathBuf::from)
    }

    fn plan(&self) -> Result<suite::Plan, String> {
        let base = if self.flag("quick") {
            suite::Plan::quick()
        } else {
            suite::Plan::full()
        };
        Ok(suite::Plan {
            rounds: self.get("rounds", base.rounds)?,
            seconds: self.get("seconds", base.seconds)?,
            ..base
        })
    }
}

/// The last stdout line of `fpbench run`: exactly these four keys.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let v = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted.max(1))),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&v).expect("result serializes")
}

/// Everything a run measured, for `suite` to pool: one line before the
/// result line when `--detail 1` is given.
fn detail_line(run: &measure::Run) -> String {
    let r = &run.reference;
    let q = run.unit_quartiles();
    let v = Value::Map(vec![
        ("provenance".into(), suite::provenance(run.seed)),
        ("workload".into(), Value::Str(run.workload.name().into())),
        // At reference host speed, and as the wall clock read them.
        ("unit_s".into(), json::floats(&run.unit_s())),
        (
            "unit_wall_s".into(),
            json::floats(&run.units.iter().map(|u| u.wall_s).collect::<Vec<_>>()),
        ),
        (
            "setup_s".into(),
            json::floats(&hostclock::scaled_s(&run.setup)),
        ),
        (
            "unit_s_quartiles".into(),
            Value::Map(vec![
                ("n".into(), Value::U64(q.n as u64)),
                ("q1".into(), Value::F64(q.q1)),
                ("median".into(), Value::F64(q.median)),
                ("q3".into(), Value::F64(q.q3)),
            ]),
        ),
        (
            "work_per_unit".into(),
            Value::Map(vec![
                ("sim_pkts_per_s".into(), Value::U64(r.pkts)),
                ("trials_per_s".into(), Value::U64(r.trials)),
                ("snapshots_per_s".into(), Value::U64(r.snapshots)),
            ]),
        ),
    ]);
    serde_json::to_string(&v).expect("detail serializes")
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.workload()?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", decl::RUN_SECONDS as f64)?;
    let detail = args.get("detail", 0u8)? != 0;
    if args.get("trace", 0u8)? != 0 {
        let t = layers::traced_run(
            workload,
            seed,
            seconds,
            &args.out_dir(),
            suite::provenance(seed),
        )?;
        let metrics: Vec<_> = decl::PER_LAYER
            .iter()
            .map(|d| (d.name, t.metrics[d.name], d.unit))
            .collect();
        if detail {
            println!("{}", detail_line(&t.run));
        }
        println!(
            "{}",
            result_line(t.correct, t.run.attempted, t.run.failed, &metrics)
        );
        return Ok(ExitCode::SUCCESS);
    }
    let protocol = if args.flag("quick") {
        measure::Protocol::QUICK
    } else {
        measure::Protocol::for_seconds(seconds)
    };
    let run = measure::run(workload, seed, seconds, &protocol)?;
    for c in &run.complaints {
        eprintln!("fpbench: {c}");
    }
    let q = run.unit_quartiles();
    eprintln!(
        "fpbench: {} seed={} units={} unit_ms at reference host speed q1/median/q3 = {:.3}/{:.3}/{:.3} (wall median {:.3}, host speed {:.3}) setup probes={}",
        workload.name(),
        seed,
        q.n,
        q.q1 * 1e3,
        q.median * 1e3,
        q.q3 * 1e3,
        run.unit_wall_ms(),
        run.host_speed(),
        run.setup.len()
    );
    let e2e = run.end_to_end();
    let metrics: Vec<_> = decl::END_TO_END
        .iter()
        .map(|d| (d.name, e2e[d.name], d.unit))
        .collect();
    let not_applicable: Vec<_> = decl::END_TO_END
        .iter()
        .filter(|d| !d.on.contains(&workload.name()))
        .map(|d| d.name)
        .collect();
    eprintln!(
        "fpbench: not measured on {} (printed as {:?}): {}",
        workload.name(),
        decl::NOT_APPLICABLE,
        not_applicable.join(", ")
    );
    if detail {
        println!("{}", detail_line(&run));
    }
    println!(
        "{}",
        result_line(run.correct, run.attempted, run.failed, &metrics)
    );
    Ok(ExitCode::SUCCESS)
}

fn pass(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = raw
        .split_first()
        .ok_or("no subcommand (see benchmark/README.md)")?;
    let args = Args::parse(rest)?;
    let seed: u64 = args.get("seed", 1)?;
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "probe" => Ok(pass(measure::probe(args.workload()?, seed))),
        "suite" => {
            let out_dir = args.out_dir();
            let out_file = args
                .named
                .get("out")
                .map_or_else(|| out_dir.join("summary.json"), PathBuf::from);
            let (_, correct) = suite::suite(&args.plan()?, seed, &out_dir, &out_file)?;
            Ok(pass(correct))
        }
        "trace" => {
            let seconds = args.get("seconds", 6.0)?;
            Ok(pass(suite::trace_all(seed, seconds, &args.out_dir())?))
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare needs two summary files".into());
            };
            let verdicts = suite::compare(a.as_ref(), b.as_ref())?;
            Ok(pass(!verdicts.contains(&suite::Verdict::Regressed)))
        }
        "pairs" => {
            let [parent] = args.positional.as_slice() else {
                return Err("pairs needs the parent build's fpbench executable".into());
            };
            // The claim rule wants ten pairs or more.
            let plan = suite::Plan {
                rounds: args.get("rounds", 10)?,
                ..args.plan()?
            };
            Ok(pass(suite::pairs(
                &plan,
                seed,
                parent.as_ref(),
                &args.out_dir(),
            )?))
        }
        "selfcheck" => Ok(pass(suite::selfcheck(
            &args.plan()?,
            seed,
            &args.out_dir(),
        )?)),
        "expected" => {
            println!("{}", expected::document());
            Ok(ExitCode::SUCCESS)
        }
        "declare" => {
            print!("{}", decl::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "map" => {
            for d in decl::PER_LAYER {
                println!("{:42} {:>6}  {}", d.name, d.unit, d.moves);
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    // Accelerators are set through spec fields only; an inherited FP_*
    // variable must not reach the crates' `*_from_env` fallbacks. Done
    // before any thread exists; children inherit the scrubbed environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FP_") {
            std::env::remove_var(&key);
        }
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fpbench: {e}");
            ExitCode::from(2)
        }
    }
}
