//! EXPERIMENTS.md quotes results only through blocks the `docs` binary
//! renders from `results/*.json`: the committed text must equal its
//! rendering from the committed rows, a changed row must show in its one
//! block, and the doc's regeneration loop must name every binary that
//! writes results.

use fp_bench::results::{blocks, render_doc};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn experiments() -> String {
    std::fs::read_to_string(repo().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

fn committed(name: &str) -> Result<String, String> {
    let path = repo().join("results").join(format!("{name}.json"));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The names of the `results/*.json` files, or of the binaries in
/// `crates/bench/src/bin`.
fn stems(dir: &str, ext: &str) -> BTreeSet<String> {
    let entries = std::fs::read_dir(repo().join(dir)).expect(dir);
    entries
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn committed_doc_is_its_rendering_from_the_committed_rows() {
    let doc = experiments();
    let rendered = render_doc(&doc, committed).expect("every block renders");
    for ((name, was), (_, is)) in blocks(&doc).unwrap().iter().zip(blocks(&rendered).unwrap()) {
        assert_eq!(
            *was, is,
            "block results:{name} is stale; re-render EXPERIMENTS.md with the docs binary"
        );
    }
    assert!(doc == rendered, "EXPERIMENTS.md differs from its rendering");
}

#[test]
fn one_changed_cell_changes_exactly_its_block() {
    use fp_bench::results::fig5b::Row;
    let mut rows: Vec<Row> = serde_json::from_str(&committed("fig5b").unwrap()).unwrap();
    rows[1].fnr += 0.5;
    let edited = serde_json::to_string_pretty(&rows).unwrap();
    let read = |name: &str| match name {
        "fig5b" => Ok(edited.clone()),
        _ => committed(name),
    };
    let doc = experiments();
    let (was, is) = (
        render_doc(&doc, committed).unwrap(),
        render_doc(&doc, read).unwrap(),
    );
    let (was, is) = (blocks(&was).unwrap(), blocks(&is).unwrap());
    let changed: Vec<&str> = was
        .iter()
        .zip(&is)
        .filter(|(a, b)| a != b)
        .map(|(a, _)| a.0)
        .collect();
    assert_eq!(changed, ["fig5b"]);
    let (a, b) = was.iter().zip(&is).find(|(a, _)| a.0 == "fig5b").unwrap();
    let lines = a.1.lines().zip(b.1.lines()).filter(|(x, y)| x != y).count();
    assert_eq!(lines, 1, "one row, one table line:\n{}\n{}", a.1, b.1);
}

#[test]
fn regenerate_loop_and_blocks_cover_every_results_binary_and_file() {
    let doc = experiments();
    let start = doc.find("\nfor b in ").expect("the regenerate loop") + 1;
    let list = &doc[start..start + doc[start..].find("; do").expect("loop's `; do`")];
    let looped: BTreeSet<String> = list
        .trim_start_matches("for b in ")
        .split(|c: char| c.is_whitespace() || c == '\\')
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect();
    let mut writers = stems("crates/bench/src/bin", "rs");
    writers.retain(|b| b != "trial" && b != "docs");
    assert_eq!(
        looped, writers,
        "the loop must name exactly the binaries that write results"
    );

    let mut shown: Vec<String> = blocks(&doc).unwrap().iter().map(|b| b.0.into()).collect();
    let rows_only = doc.lines().filter_map(|l| {
        let l = l.trim().strip_prefix("<!-- rows-only:")?;
        Some(l.strip_suffix(" -->")?.to_string())
    });
    shown.extend(rows_only);
    let files = stems("results", "json");
    let unique: BTreeSet<String> = shown.iter().cloned().collect();
    assert_eq!(
        unique.len(),
        shown.len(),
        "a file is quoted twice: {shown:?}"
    );
    assert_eq!(
        unique, files,
        "every results file is rendered once or named rows-only"
    );
}
