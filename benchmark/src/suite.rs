//! The full set: every workload in its own child process, rounds
//! interleaved over the workloads so slow host phases hit all of them,
//! unit samples pooled over the rounds. Also `compare` and `selfcheck`.

use crate::decl::{self, Better, E2eDecl};
use crate::json;
use crate::stats::{quartiles, Quartiles};
use crate::workloads::Workload;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Rounds x seconds of one full set; the quick set is the smoke test's.
pub struct Plan {
    pub rounds: usize,
    pub seconds: f64,
    /// Children run the smoke test's short protocol.
    pub quick: bool,
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            rounds: 4,
            seconds: 3.0,
            quick: false,
        }
    }

    pub fn quick() -> Plan {
        Plan {
            rounds: 1,
            seconds: 0.5,
            quick: true,
        }
    }
}

pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn capture(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Who measured, on what, from which tree. Stamped into every output.
pub fn provenance(seed: u64) -> Value {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let unknown = || "unknown".to_string();
    let git = capture("git", &["describe", "--always", "--dirty"], &repo).unwrap_or_else(unknown);
    // A tree changed outside the benchmark's own files cannot be named by
    // its commit; `compare` refuses such a set as the baseline side.
    let dirty_outside = capture(
        "git",
        &[
            "status",
            "--porcelain",
            "--",
            ".",
            ":!benchmark",
            ":!BENCHMARK.json",
        ],
        &repo,
    )
    .map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Map(vec![
        ("git".to_string(), Value::Str(git)),
        (
            "dirty_outside_benchmark".to_string(),
            dirty_outside.map_or(Value::Null, Value::Bool),
        ),
        (
            "rustc".to_string(),
            Value::Str(capture("rustc", &["-V"], &repo).unwrap_or_else(unknown)),
        ),
        ("cpu".to_string(), Value::Str(cpu)),
        ("nproc".to_string(), Value::U64(nproc)),
        ("seed".to_string(), Value::U64(seed)),
    ])
}

/// One `run --detail 1` child of `exe`; returns (detail, result).
fn run_child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: u8,
    quick: bool,
    out_dir: &Path,
) -> Result<(Value, Value), String> {
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name(), "--detail", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .arg("--out-dir")
        .arg(out_dir)
        .args(quick.then_some("--quick"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} child run failed: {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let mut parse = |what: &str| -> Result<Value, String> {
        let line = lines
            .next()
            .ok_or(format!("child printed no {what} line"))?;
        serde_json::from_str(line).map_err(|e| format!("child {what} line: {e}"))
    };
    let result = parse("result")?;
    let detail = parse("detail")?;
    Ok((detail, result))
}

fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))
}

/// One (metric, workload) row of a summary.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub q: Quartiles,
    /// The metric as each round reported it.
    pub rounds: Vec<f64>,
}

impl Row {
    fn to_value(&self, d: &E2eDecl) -> Value {
        Value::Map(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("metric".into(), Value::Str(self.metric.clone())),
            ("unit".into(), Value::Str(d.unit.into())),
            ("better".into(), Value::Str(d.better.name().into())),
            ("bound".into(), Value::F64(d.bound)),
            ("n".into(), Value::U64(self.q.n as u64)),
            ("q1".into(), Value::F64(self.q.q1)),
            ("median".into(), Value::F64(self.q.median)),
            ("q3".into(), Value::F64(self.q.q3)),
            ("rounds".into(), json::floats(&self.rounds)),
        ])
    }
}

/// What the rounds of one workload gave, on one side.
#[derive(Default)]
struct Acc {
    unit_s: Vec<f64>,
    setup_s: Vec<f64>,
    work: Vec<(String, f64)>,
    per_round: Vec<Vec<(String, f64)>>,
}

/// One build under measurement: `suite` has one side, `pairs` two.
struct Side {
    exe: PathBuf,
    /// As the side's own children stamped it.
    provenance: Value,
    acc: Vec<Acc>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Side {
    fn new(exe: PathBuf) -> Side {
        Side {
            exe,
            provenance: Value::Null,
            acc: Workload::ALL.iter().map(|_| Acc::default()).collect(),
            correct: true,
            attempted: 0,
            failed: 0,
        }
    }

    fn absorb(&mut self, workload: usize, detail: &Value, result: &Value) {
        let count = |key| json::get(result, key).and_then(Value::as_u64).unwrap_or(0);
        self.correct &= json::get(result, "correct") == Some(&Value::Bool(true));
        self.attempted += count("attempted");
        self.failed += count("failed");
        if let Some(p) = json::get(detail, "provenance") {
            self.provenance = p.clone();
        }
        let a = &mut self.acc[workload];
        a.unit_s.extend(json::f64s(json::get(detail, "unit_s")));
        a.setup_s.extend(json::f64s(json::get(detail, "setup_s")));
        a.work = json::get(detail, "work_per_unit")
            .and_then(Value::as_map)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        let metrics = json::get(result, "metrics")
            .and_then(Value::as_map)
            .unwrap_or(&[]);
        a.per_round.push(
            metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), json::get(v, "value")?.as_f64()?)))
                .collect(),
        );
    }

    /// One row per (metric, workload) pair the metric is measured on.
    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        for (w, a) in Workload::ALL.iter().zip(&self.acc) {
            for d in decl::END_TO_END.iter().filter(|d| d.on.contains(&w.name())) {
                let rounds: Vec<f64> = a
                    .per_round
                    .iter()
                    .filter_map(|r| r.iter().find(|(k, _)| k == d.name).map(|(_, v)| *v))
                    .collect();
                // Host-time metrics pool the samples of every round; the
                // rest (memory, simulated results) have one value per round.
                let pooled: Vec<f64> = if d.name == decl::SETUP_S {
                    a.setup_s.clone()
                } else if let Some((_, work)) = a.work.iter().find(|(k, _)| k == d.name) {
                    a.unit_s.iter().map(|t| work / t).collect()
                } else {
                    rounds.clone()
                };
                rows.push(Row {
                    workload: w.name().to_string(),
                    metric: d.name.to_string(),
                    q: quartiles(&pooled),
                    rounds,
                });
            }
        }
        rows
    }

    /// Write the side's summary; returns its rows.
    fn write(&self, plan: &Plan, paired: &Value, out_file: &Path) -> Result<Vec<Row>, String> {
        let rows = self.rows();
        let mut provenance = self
            .provenance
            .as_map()
            .map(<[_]>::to_vec)
            .unwrap_or_default();
        provenance.extend([
            ("rounds".into(), Value::U64(plan.rounds as u64)),
            ("seconds_per_round".into(), Value::F64(plan.seconds)),
            ("quick".into(), Value::Bool(plan.quick)),
            // Set by `pairs` only: the two files of one alternating run.
            ("paired".into(), paired.clone()),
        ]);
        let doc = Value::Map(vec![
            ("provenance".into(), Value::Map(provenance)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            (
                "rows".into(),
                Value::Seq(
                    rows.iter()
                        .map(|r| {
                            r.to_value(decl::e2e(&r.metric).expect("row of a declared metric"))
                        })
                        .collect(),
                ),
            ),
            // This benchmark measures; it never claims a gain by itself.
            ("claim".into(), Value::Null),
        ]);
        if let Some(dir) = out_file.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&doc).expect("summary serializes");
        std::fs::write(out_file, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out_file.display()))?;
        print_rows(&rows);
        println!(
            "correct={} attempted={} failed={} fail_share={}",
            self.correct,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!("wrote {}", out_file.display());
        Ok(rows)
    }
}

/// The rounds: every workload once per round and side, one child process
/// each. With two sides, which one goes first alternates round by round.
fn run_rounds(plan: &Plan, seed: u64, sides: &mut [Side], out_dir: &Path) -> Result<(), String> {
    for round in 0..plan.rounds {
        for (i, w) in Workload::ALL.iter().enumerate() {
            let mut order: Vec<usize> = (0..sides.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for s in order {
                eprintln!(
                    "fpbench: round {}/{} {} ({})",
                    round + 1,
                    plan.rounds,
                    w.name(),
                    sides[s].exe.display()
                );
                let (detail, result) = run_child(
                    &sides[s].exe,
                    *w,
                    seed,
                    plan.seconds,
                    0,
                    plan.quick,
                    out_dir,
                )?;
                sides[s].absorb(i, &detail, &result);
            }
        }
    }
    Ok(())
}

/// Run the full set and write `out_file`. Returns the rows and whether
/// every run was correct.
pub fn suite(
    plan: &Plan,
    seed: u64,
    out_dir: &Path,
    out_file: &Path,
) -> Result<(Vec<Row>, bool), String> {
    let mut sides = [Side::new(own_exe()?)];
    run_rounds(plan, seed, &mut sides, out_dir)?;
    let rows = sides[0].write(plan, &Value::Null, out_file)?;
    println!("\"claim\": null");
    Ok((rows, sides[0].correct))
}

/// The alternating pairs a claimed gain needs: `parent_exe` (side A) and
/// this build (side B) measured in the same rounds, then compared. Only
/// summaries written here can read *improved* in `compare`.
pub fn pairs(plan: &Plan, seed: u64, parent_exe: &Path, out_dir: &Path) -> Result<bool, String> {
    let mut sides = [Side::new(parent_exe.to_path_buf()), Side::new(own_exe()?)];
    run_rounds(plan, seed, &mut sides, out_dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let paired = Value::Str(format!("pairs-{stamp}"));
    let (a_path, b_path) = (out_dir.join("pairs_a.json"), out_dir.join("pairs_b.json"));
    sides[0].write(plan, &paired, &a_path)?;
    sides[1].write(plan, &paired, &b_path)?;
    let verdicts = compare(&a_path, &b_path)?;
    Ok(sides.iter().all(|s| s.correct) && !verdicts.contains(&Verdict::Regressed))
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:20} {:18} {:>8} {:>16} {:>16} {:>16} {:>5}",
        "workload", "metric", "unit", "q1", "median", "q3", "n"
    );
    for r in rows {
        let d = decl::e2e(&r.metric).expect("row of a declared metric");
        println!(
            "{:20} {:18} {:>8} {:>16.4} {:>16.4} {:>16.4} {:>5}",
            r.workload, r.metric, d.unit, r.q.q1, r.q.median, r.q.q3, r.q.n
        );
    }
}

/// Every traced run in a fresh child (monitord's retention figure needs an
/// unused heap); prints the per-layer table and writes `layers.json`.
pub fn trace_all(seed: u64, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let exe = own_exe()?;
    let mut correct = true;
    let mut table: Vec<(String, Value)> = Vec::new();
    for w in Workload::ALL {
        eprintln!("fpbench: traced run of {}", w.name());
        let (_, result) = run_child(&exe, w, seed, seconds, 1, false, out_dir)?;
        correct &= json::get(&result, "correct") == Some(&Value::Bool(true));
        table.push((
            w.name().to_string(),
            json::get(&result, "metrics")
                .cloned()
                .unwrap_or(Value::Null),
        ));
    }
    print!("{:42} {:>6}", "per-layer metric", "unit");
    for w in Workload::ALL {
        print!(" {:>18}", w.name());
    }
    println!();
    for d in decl::PER_LAYER {
        print!("{:42} {:>6}", d.name, d.unit);
        for (_, metrics) in &table {
            let v = json::get(metrics, d.name)
                .and_then(|m| json::get(m, "value"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            print!(" {v:>18.4}");
        }
        println!();
    }
    let doc = Value::Map(vec![
        ("provenance".into(), provenance(seed)),
        ("correct".into(), Value::Bool(correct)),
        ("layers".into(), Value::Map(table)),
        ("claim".into(), Value::Null),
    ]);
    let path = out_dir.join("layers.json");
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("layers serialize") + "\n",
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} and one trace_<workload>.json per workload",
        path.display()
    );
    println!("\"claim\": null");
    Ok(correct)
}

/// A summary file: its provenance and the rows of pairs this build declares.
fn load(path: &Path) -> Result<(Value, Vec<Row>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = json::get(&doc, "rows")
        .and_then(Value::as_seq)
        .ok_or(format!("{}: no rows", path.display()))?
        .iter()
        .filter_map(|r| {
            let num = |k| json::get(r, k).and_then(Value::as_f64);
            Some(Row {
                workload: json::get(r, "workload")?.as_str()?.to_string(),
                metric: json::get(r, "metric")?.as_str()?.to_string(),
                q: Quartiles {
                    q1: num("q1")?,
                    median: num("median")?,
                    q3: num("q3")?,
                    n: num("n")? as usize,
                },
                rounds: json::f64s(json::get(r, "rounds")),
            })
        })
        .filter(|r| decl::e2e(&r.metric).is_some_and(|d| d.on.contains(&r.workload.as_str())))
        .collect();
    let provenance = json::get(&doc, "provenance")
        .cloned()
        .unwrap_or(Value::Null);
    Ok((provenance, rows))
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs needed before a gain may be claimed, and the share B must win.
const CLAIM_PAIRS: usize = 10;
const CLAIM_WIN_SHARE: f64 = 0.9;

/// Judge one (metric, workload) pair: A is the parent, B the change.
///
/// * either side's quartile spread wider than the bound → unresolved: the
///   data cannot tell, whichever way the medians lie;
/// * else worse by more than the bound → regressed;
/// * a gain is *improved* only by the claim rule: the rows' `rounds` are at
///   least ten pairs that alternated in time (`paired`: both files come
///   from one `pairs` run), B wins nine tenths of them (ties count for
///   neither), and the medians are further apart than A's own quartile
///   distance; anything less is unchanged.
pub fn judge(a: &Row, b: &Row, d: &E2eDecl, paired: bool) -> (Verdict, f64) {
    let sign = match d.better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    // Positive = B is better, as a share of A's median.
    let gain = sign * (b.q.median - a.q.median) / a.q.median.abs().max(f64::MIN_POSITIVE);
    if a.q.spread().max(b.q.spread()) > d.bound {
        return (Verdict::Unresolved, gain);
    }
    if gain < -d.bound {
        return (Verdict::Regressed, gain);
    }
    let pairs = a.rounds.len().min(b.rounds.len());
    let wins = a
        .rounds
        .iter()
        .zip(&b.rounds)
        .filter(|(x, y)| sign * (*y - *x) > 0.0)
        .count();
    let claimable = paired
        && pairs >= CLAIM_PAIRS
        && wins as f64 >= CLAIM_WIN_SHARE * pairs as f64
        && (b.q.median - a.q.median).abs() > a.q.q3 - a.q.q1;
    if gain > 0.0 && claimable {
        (Verdict::Improved, gain)
    } else {
        (Verdict::Unchanged, gain)
    }
}

/// Print one row per (metric, workload); returns the verdicts.
fn print_comparison(a_rows: &[Row], b_rows: &[Row], paired: bool) -> Vec<Verdict> {
    println!(
        "{:20} {:18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut verdicts = Vec::new();
    for a in a_rows {
        let Some(b) = b_rows
            .iter()
            .find(|b| b.workload == a.workload && b.metric == a.metric)
        else {
            continue;
        };
        let d = decl::e2e(&a.metric).expect("loaded rows are declared");
        let (verdict, gain) = judge(a, b, d, paired);
        println!(
            "{:20} {:18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
            a.workload,
            a.metric,
            a.q.median,
            b.q.median,
            gain * 100.0,
            d.bound * 100.0,
            verdict.name()
        );
        verdicts.push(verdict);
    }
    println!("(B vs A: positive = B better; base of every ratio is A's median)");
    if !paired {
        println!("(not one `pairs` run: no row can read improved)");
    }
    println!("\"claim\": null");
    verdicts
}

/// Compare two summaries, A the parent. Refuses an A measured on a tree
/// that was dirty outside `benchmark/`: no commit names what it measured.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<Vec<Verdict>, String> {
    let (a_prov, a_rows) = load(a_path)?;
    let (b_prov, b_rows) = load(b_path)?;
    if json::get(&a_prov, "dirty_outside_benchmark") == Some(&Value::Bool(true)) {
        return Err(format!(
            "{} was measured on a tree changed outside benchmark/: not a baseline",
            a_path.display()
        ));
    }
    let id = |p| json::get(p, "paired").and_then(Value::as_str);
    let paired = id(&a_prov).is_some() && id(&a_prov) == id(&b_prov);
    Ok(print_comparison(&a_rows, &b_rows, paired))
}

/// Two sets of the same build must agree: no pair apart by more than its
/// bound in either direction, simulated metrics exactly equal.
pub fn selfcheck(plan: &Plan, seed: u64, out_dir: &Path) -> Result<bool, String> {
    let (a_rows, a_ok) = suite(plan, seed, out_dir, &out_dir.join("selfcheck_a.json"))?;
    let (b_rows, b_ok) = suite(plan, seed, out_dir, &out_dir.join("selfcheck_b.json"))?;
    print_comparison(&a_rows, &b_rows, false);
    let mut agree = a_ok && b_ok;
    for (a, b) in a_rows.iter().zip(&b_rows) {
        let d = decl::e2e(&a.metric).expect("rows of declared metrics");
        let apart = (b.q.median - a.q.median).abs() / a.q.median.abs().max(f64::MIN_POSITIVE);
        if apart > d.bound || (d.simulated && a.rounds != b.rounds) {
            println!(
                "selfcheck: {} on {} disagrees: {} vs {}",
                a.metric, a.workload, a.q.median, b.q.median
            );
            agree = false;
        }
    }
    println!(
        "selfcheck: the two sets {}",
        if agree { "agree" } else { "DISAGREE" }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rounds: &[f64]) -> Row {
        Row {
            workload: decl::PAPER_LIVE.into(),
            metric: "sim_pkts_per_s".into(),
            q: quartiles(rounds),
            rounds: rounds.to_vec(),
        }
    }

    fn steady(centre: f64) -> Vec<f64> {
        (0..10).map(|i| centre + f64::from(i % 3)).collect()
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_even_when_the_median_fell() {
        let d = decl::e2e("sim_pkts_per_s").unwrap();
        let a = row(&steady(1000.0));
        let wide: Vec<f64> = (0..10).map(|i| 300.0 + 80.0 * f64::from(i)).collect();
        assert_eq!(judge(&a, &row(&wide), d, true).0, Verdict::Unresolved);
        assert_eq!(
            judge(&a, &row(&steady(600.0)), d, true).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn only_rounds_that_alternated_in_one_pairs_run_can_read_improved() {
        let d = decl::e2e("sim_pkts_per_s").unwrap();
        let (a, b) = (row(&steady(1000.0)), row(&steady(1100.0)));
        assert_eq!(judge(&a, &b, d, true).0, Verdict::Improved);
        assert_eq!(judge(&a, &b, d, false).0, Verdict::Unchanged);
        // Nine pairs are one too few.
        let (a9, b9) = (row(&a.rounds[..9]), row(&b.rounds[..9]));
        assert_eq!(judge(&a9, &b9, d, true).0, Verdict::Unchanged);
    }
}
