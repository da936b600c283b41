//! The rows of every `results/*.json` file and the one table each is shown
//! as. A sweep binary builds its rows, saves them and prints their table;
//! the `docs` binary reads the saved rows back and rewrites each
//! `<!-- results:NAME -->` … `<!-- /results:NAME -->` block of a Markdown
//! file ([`render_doc`]) with the same table, so a document quotes a result
//! only as the code that produced it formats it.

use crate::pct;
use serde::{Deserialize, Serialize};

const OPEN: &str = "<!-- results:";
const CLOSE: &str = "<!-- /results:";

/// A rate over whole iterations or trials, to the whole percent.
fn pct0(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Simulated nanoseconds as whole microseconds, `—` when absent.
fn us(ns: Option<u64>) -> String {
    ns.map_or("—".into(), |n| format!("{:.0} µs", n as f64 / 1e3))
}

fn yes(b: bool) -> String {
    if b { "yes" } else { "no" }.into()
}

/// A Markdown table: the header (columns separated by ` | `), its rule,
/// and one line per row.
fn markdown<R>(
    head: &str,
    rows: impl IntoIterator<Item = R>,
    cells: impl Fn(R) -> Vec<String>,
) -> String {
    let columns = head.split(" | ").count();
    let mut out = format!("| {head} |\n|{}\n", "---|".repeat(columns));
    for row in rows {
        out += &format!("| {} |\n", cells(row).join(" | "));
    }
    out
}

/// E1 / Fig. 2: per vspine port of the destination leaf, the analytical
/// and simulated predictions against what the fabric delivered.
pub mod fig2 {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub scenario: String,
        pub vspine: u32,
        pub analytical: f64,
        pub simulated: f64,
        pub observed: f64,
        pub rel_err_analytical: f64,
    }

    /// One line per scenario: its worst analytical error, and whether the
    /// simulation model matched the fabric on every port.
    pub fn table(rows: &[Row]) -> String {
        let head =
            "scenario | ports | max \\|error\\| analytical vs observed | simulated = observed";
        markdown(head, rows.chunk_by(|a, b| a.scenario == b.scenario), |s| {
            let worst = s.iter().map(|r| r.rel_err_analytical.abs());
            vec![
                s[0].scenario.clone(),
                s.len().to_string(),
                pct(worst.fold(0.0, f64::max)),
                yes(s.iter().all(|r| r.simulated == r.observed)),
            ]
        })
    }
}

/// E2 / Fig. 3: the learned model's verdict per iteration across a
/// transient fault.
pub mod fig3 {
    use super::*;
    use fp_netsim::units::fmt_bytes;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub iter: u32,
        pub faulty_port_bytes: f64,
        pub healthy_port_bytes: f64,
        pub verdict: String,
        pub alarmed: bool,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "iter | faulty port | healthy port | verdict | alarm";
        markdown(head, rows, |r| {
            vec![
                r.iter.to_string(),
                fmt_bytes(r.faulty_port_bytes as u64),
                fmt_bytes(r.healthy_port_bytes as u64),
                r.verdict.clone(),
                yes(r.alarmed),
            ]
        })
    }
}

/// E3 / Fig. 5(a): one ROC point per drop rate and threshold.
pub mod fig5a {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub drop_rate: f64,
        pub threshold: f64,
        pub fpr: f64,
        pub tpr: f64,
    }

    /// A line per drop rate, a column per threshold: TPR / FPR.
    pub fn table(rows: &[Row]) -> String {
        let rates: Vec<&[Row]> = rows.chunk_by(|a, b| a.drop_rate == b.drop_rate).collect();
        let thresholds = rates.first().copied().unwrap_or_default();
        let head: Vec<String> = std::iter::once("drop rate".into())
            .chain(thresholds.iter().map(|r| format!("@{}", pct(r.threshold))))
            .collect();
        markdown(&head.join(" | "), rates, |rate| {
            let points = rate
                .iter()
                .map(|r| format!("{} / {}", pct0(r.tpr), pct0(r.fpr)));
            std::iter::once(pct(rate[0].drop_rate))
                .chain(points)
                .collect()
        })
    }
}

/// E4 / Fig. 5(b): error rates per switch radix.
pub mod fig5b {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub radix: u32,
        pub leaves: u32,
        pub spines: u32,
        pub drop_rate: f64,
        pub fpr: f64,
        pub fnr: f64,
        pub mean_faulty_dev: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "radix | leaves×spines | drop | FPR | FNR | mean faulty deviation";
        markdown(head, rows, |r| {
            vec![
                r.radix.to_string(),
                format!("{}×{}", r.leaves, r.spines),
                pct(r.drop_rate),
                pct0(r.fpr),
                pct0(r.fnr),
                pct(r.mean_faulty_dev),
            ]
        })
    }
}

/// E5 / Fig. 5(c): error rates per collective size and drop rate.
pub mod fig5c {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub bytes_per_node: u64,
        pub drop_rate: f64,
        pub fpr: f64,
        pub fnr: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "size/node | drop | FPR | FNR";
        markdown(head, rows, |r| {
            vec![
                format!("{} MiB", r.bytes_per_node >> 20),
                pct(r.drop_rate),
                pct0(r.fpr),
                pct0(r.fnr),
            ]
        })
    }
}

/// E6: new faults on top of pre-existing ones, with the spatial-symmetry
/// baseline's false-positive rate on the clean trials.
pub mod preexisting {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub preexisting: u32,
        pub drop_rate: f64,
        pub fpr: f64,
        pub fnr: f64,
        pub spatial_baseline_fpr: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "pre-existing cables | drop | FPR | FNR | spatial-baseline FPR";
        markdown(head, rows, |r| {
            vec![
                r.preexisting.to_string(),
                pct(r.drop_rate),
                pct0(r.fpr),
                pct0(r.fnr),
                pct0(r.spatial_baseline_fpr),
            ]
        })
    }
}

/// E7: the abstract's headline run, one object.
pub mod headline {
    use super::*;
    use fp_netsim::units::fmt_bytes;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub drop_rate: f64,
        pub detected: bool,
        pub false_alarm: bool,
        pub localized_correctly: bool,
        pub faulty_iteration_dev: f64,
        pub clean_iteration_dev_max: f64,
        pub probe_bytes_for_parity: u64,
        pub flowpulse_bytes_injected: u64,
    }

    pub fn table(r: &Row) -> String {
        let head = "drop | detected | false alarm | localized | clean max deviation | faulty deviation | probe bytes to detect | FlowPulse bytes injected";
        markdown(head, [r], |r| {
            vec![
                pct(r.drop_rate),
                yes(r.detected),
                yes(r.false_alarm),
                yes(r.localized_correctly),
                pct(r.clean_iteration_dev_max),
                pct(r.faulty_iteration_dev),
                fmt_bytes(r.probe_bytes_for_parity),
                fmt_bytes(r.flowpulse_bytes_injected),
            ]
        })
    }
}

/// E8: a 3-level Clos watched at both tiers.
pub mod threelevel {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub drop_rate: f64,
        pub trials: u32,
        pub agg_detected: u32,
        pub agg_slot_localized: u32,
        pub leaf_detected: u32,
        pub false_alarms: u32,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "drop | agg tier detected | exact core slot pinned | leaf tier detected | trials with a false alarm";
        markdown(head, rows, |r| {
            let of = |n: u32| format!("{n}/{}", r.trials);
            vec![
                pct(r.drop_rate),
                of(r.agg_detected),
                of(r.agg_slot_localized),
                of(r.leaf_detected),
                of(r.false_alarms),
            ]
        })
    }
}

/// Goodput during the fault and after it, each as a share of pre-fault.
fn goodput(pre: f64, during: f64, post: f64) -> [String; 2] {
    [during, post].map(|x| format!("{:.1}%", 100.0 * x / pre))
}

/// E9: closed-loop mitigation, one case per line.
pub mod mitigation {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub label: String,
        pub controller: bool,
        pub reaction_us: u64,
        /// The offline scorer's verdict on the whole trial
        /// (`TrialResult::detected`): some alarm covered the faulty
        /// cable. Not E11's `detected`, which is the controller's.
        pub detected: bool,
        pub tt_detect_ns: Option<u64>,
        pub tt_mitigate_ns: Option<u64>,
        pub mitigate_iter: Option<u32>,
        pub false_mitigations: u32,
        pub pre_bps: f64,
        pub during_bps: f64,
        pub post_bps: f64,
        pub recovered: bool,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "case | time to detect | time to mitigate | goodput during | goodput after | recovered | false mitigations";
        markdown(head, rows, |r| {
            let [during, post] = goodput(r.pre_bps, r.during_bps, r.post_bps);
            // Recovery is judged where a controller saw a fault.
            let recovered = match r.tt_detect_ns {
                Some(_) => yes(r.recovered),
                None => "n/a".into(),
            };
            vec![
                r.label.clone(),
                us(r.tt_detect_ns),
                us(r.tt_mitigate_ns),
                during,
                post,
                recovered,
                r.false_mitigations.to_string(),
            ]
        })
    }
}

/// E11: spray backend × mitigation verb, plus a clean run per backend.
pub mod e11_spray {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub backend: String,
        pub mitigation: String,
        pub scenario: String,
        /// The controller saw the fault online (its
        /// `CtrlOutcome::time_to_detect_ns` is set). Not E9's `detected`,
        /// which is the offline scorer's.
        pub detected: bool,
        pub tt_detect_ns: Option<u64>,
        pub tt_mitigate_ns: Option<u64>,
        pub mitigate_iter: Option<u32>,
        pub false_mitigations: u32,
        /// `admin_down` verbs the controller actually scheduled.
        pub admin_downs: u32,
        /// `recycle_entropy` verbs the controller actually scheduled.
        pub recycles: u32,
        pub flows_failed: u64,
        pub pre_bps: f64,
        pub during_bps: f64,
        pub post_bps: f64,
        pub recovered: bool,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "backend | verb | scenario | time to detect | time to mitigate | verbs sent | goodput during | goodput after | failed flows";
        markdown(head, rows, |r| {
            let [during, post] = goodput(r.pre_bps, r.during_bps, r.post_bps);
            vec![
                r.backend.clone(),
                r.mitigation.clone(),
                r.scenario.clone(),
                us(r.tt_detect_ns),
                us(r.tt_mitigate_ns),
                (r.admin_downs + r.recycles).to_string(),
                during,
                post,
                r.flows_failed.to_string(),
            ]
        })
    }
}

/// A1: noise floor and detection per spray backend and collective size.
pub mod ablate_spray {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub policy: String,
        pub model: String,
        pub bytes_per_node: u64,
        pub noise_floor: f64,
        pub fpr: f64,
        pub fnr: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "policy | model | size/node | noise floor | FPR | FNR";
        markdown(head, rows, |r| {
            vec![
                r.policy.clone(),
                r.model.clone(),
                format!("{} MiB", r.bytes_per_node >> 20),
                pct(r.noise_floor),
                pct0(r.fpr),
                pct0(r.fnr),
            ]
        })
    }
}

/// A2: noise floor and detection per start-jitter magnitude.
pub mod ablate_jitter {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub jitter_us: u64,
        pub noise_floor: f64,
        pub fpr: f64,
        pub fnr: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "jitter | noise floor | FPR | FNR";
        markdown(head, rows, |r| {
            vec![
                format!("{} µs", r.jitter_us),
                pct(r.noise_floor),
                pct0(r.fpr),
                pct0(r.fnr),
            ]
        })
    }
}

/// A3: the measured collective with and without background traffic and
/// priority.
pub mod ablate_priority {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub background: bool,
        pub prioritized: bool,
        pub max_dev_vs_model: f64,
        pub collective_wall_us: u64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "background | collective prioritized | max deviation vs model | collective end";
        markdown(head, rows, |r| {
            vec![
                yes(r.background),
                yes(r.prioritized),
                pct(r.max_dev_vs_model),
                format!("{:.2} ms", r.collective_wall_us as f64 / 1e3),
            ]
        })
    }
}

/// A4.1: ring cross-leaf localization per fault direction.
pub mod ablate_localize_ring {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub bidirectional: bool,
        pub trials: u32,
        pub detected: u32,
        pub localized: u32,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "fault | detected | exactly localized";
        markdown(head, rows, |r| {
            vec![
                match r.bidirectional {
                    true => "bidirectional cable",
                    false => "spine→leaf",
                }
                .into(),
                format!("{}/{}", r.detected, r.trials),
                format!("{}/{}", r.localized, r.trials),
            ]
        })
    }
}

/// A4.2: the Fig. 4 per-sender verdict at each port of the faulty vspine.
pub mod ablate_localize_alltoall {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub port_role: String,
        pub verdict: String,
        pub correct: bool,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "port | verdict | correct";
        markdown(head, rows, |r| {
            vec![r.port_role.clone(), r.verdict.clone(), yes(r.correct)]
        })
    }
}

/// The §5.2 prediction methods on one scenario.
pub mod ablate_model {
    use super::*;

    #[derive(Serialize, Deserialize)]
    pub struct Row {
        pub model: String,
        pub drop_rate: f64,
        pub fpr: f64,
        pub fnr: f64,
    }

    pub fn table(rows: &[Row]) -> String {
        let head = "model | drop | FPR | FNR";
        markdown(head, rows, |r| {
            vec![r.model.clone(), pct(r.drop_rate), pct0(r.fpr), pct0(r.fnr)]
        })
    }
}

/// The table of `results/<name>.json`, whose text is `json`.
fn render(name: &str, json: &str) -> Result<String, String> {
    fn rows<T: Deserialize>(json: &str) -> Result<T, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
    Ok(match name {
        "fig2" => fig2::table(&rows::<Vec<_>>(json)?),
        "fig3" => fig3::table(&rows::<Vec<_>>(json)?),
        "fig5a" => fig5a::table(&rows::<Vec<_>>(json)?),
        "fig5b" => fig5b::table(&rows::<Vec<_>>(json)?),
        "fig5c" => fig5c::table(&rows::<Vec<_>>(json)?),
        "preexisting" => preexisting::table(&rows::<Vec<_>>(json)?),
        "headline" => headline::table(&rows(json)?),
        "threelevel" => threelevel::table(&rows::<Vec<_>>(json)?),
        "mitigation" => mitigation::table(&rows::<Vec<_>>(json)?),
        "e11_spray" => e11_spray::table(&rows::<Vec<_>>(json)?),
        "ablate_spray" => ablate_spray::table(&rows::<Vec<_>>(json)?),
        "ablate_jitter" => ablate_jitter::table(&rows::<Vec<_>>(json)?),
        "ablate_priority" => ablate_priority::table(&rows::<Vec<_>>(json)?),
        "ablate_localize_ring" => ablate_localize_ring::table(&rows::<Vec<_>>(json)?),
        "ablate_localize_alltoall" => ablate_localize_alltoall::table(&rows::<Vec<_>>(json)?),
        "ablate_model" => ablate_model::table(&rows::<Vec<_>>(json)?),
        _ => return Err("no table is defined for this file".into()),
    })
}

/// The name a marker line opens or closes (`prefix` tells which).
fn marker<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    line.trim_end().strip_prefix(prefix)?.strip_suffix(" -->")
}

/// `doc` cut at its result markers: each piece of text outside the blocks
/// (marker lines included) with no name, each block's body with its name.
fn pieces(doc: &str) -> Result<Vec<(Option<&str>, &str)>, String> {
    let (mut pieces, mut start, mut at, mut open) = (Vec::new(), 0, 0, None);
    for (n, line) in doc.split_inclusive('\n').enumerate() {
        let end = at + line.len();
        match (open, marker(line, OPEN), marker(line, CLOSE)) {
            (None, None, None) | (Some(_), None, None) => {}
            (None, Some(name), None) => {
                pieces.push((None, &doc[start..end]));
                (start, open) = (end, Some(name));
            }
            (Some(name), None, Some(close)) if close == name => {
                pieces.push((Some(name), &doc[start..at]));
                (start, open) = (at, None);
            }
            _ => {
                return Err(format!(
                    "line {}: misplaced marker {}",
                    n + 1,
                    line.trim_end()
                ))
            }
        }
        at = end;
    }
    if let Some(name) = open {
        return Err(format!("{OPEN}{name} --> is never closed"));
    }
    pieces.push((None, &doc[start..]));
    Ok(pieces)
}

/// Each `<!-- results:NAME -->` block of `doc`, in order: its name and the
/// text between its two marker lines.
pub fn blocks(doc: &str) -> Result<Vec<(&str, &str)>, String> {
    let pieces = pieces(doc)?.into_iter();
    Ok(pieces
        .filter_map(|(name, body)| Some((name?, body)))
        .collect())
}

/// `doc` with every block's body replaced by the table of its results
/// file, whose text `json(name)` reads; everything else is copied as it is.
pub fn render_doc(
    doc: &str,
    json: impl Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let mut out = String::with_capacity(doc.len());
    for (name, text) in pieces(doc)? {
        match name {
            None => out.push_str(text),
            Some(name) => {
                let table = json(name).and_then(|json| render(name, &json));
                out += &table.map_err(|e| format!("results/{name}.json: {e}"))?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(detected: u32) -> String {
        let row = ablate_localize_ring::Row {
            bidirectional: false,
            trials: 8,
            detected,
            localized: 8,
        };
        serde_json::to_string(&vec![row]).unwrap()
    }

    #[test]
    fn a_block_is_replaced_and_the_rest_copied() {
        let doc = "intro\n<!-- results:ablate_localize_ring -->\nstale\n<!-- /results:ablate_localize_ring -->\nend";
        let out = render_doc(doc, |_| Ok(ring(7))).unwrap();
        let want = "intro\n<!-- results:ablate_localize_ring -->\n\
            | fault | detected | exactly localized |\n|---|---|---|\n\
            | spine→leaf | 7/8 | 8/8 |\n<!-- /results:ablate_localize_ring -->\nend";
        assert_eq!(out, want);
        assert_eq!(render_doc(&out, |_| Ok(ring(7))).unwrap(), out);
        let bodies = blocks(&out).unwrap();
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].0, "ablate_localize_ring");
        assert!(bodies[0].1.ends_with("| 7/8 | 8/8 |\n"));
    }

    #[test]
    fn bad_markers_and_unknown_files_are_refused() {
        let read = |_: &str| Ok(ring(8));
        for doc in [
            "<!-- results:fig2 -->\nno end\n",
            "<!-- /results:fig2 -->\n",
            "<!-- results:fig2 -->\n<!-- results:fig3 -->\n",
            "<!-- results:fig2 -->\n<!-- /results:fig3 -->\n",
        ] {
            assert!(render_doc(doc, read).is_err(), "{doc}");
        }
        let doc = "<!-- results:nothing -->\n<!-- /results:nothing -->\n";
        let err = render_doc(doc, read).unwrap_err();
        assert!(err.starts_with("results/nothing.json: "), "{err}");
        let missing = render_doc(doc, |_| Err("not found".into())).unwrap_err();
        assert_eq!(missing, "results/nothing.json: not found");
    }

    #[test]
    fn rates_and_times_format_as_the_docs_show_them() {
        assert_eq!(pct0(1.0 / 6.0), "17%");
        assert_eq!(us(Some(569_739)), "570 µs");
        assert_eq!(us(None), "—");
        assert_eq!(
            goodput(2.0, 1.0, 2.0),
            ["50.0%".to_string(), "100.0%".into()]
        );
    }
}
