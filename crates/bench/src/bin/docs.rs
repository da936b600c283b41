//! Renders EXPERIMENTS.md's result blocks: reads Markdown on stdin and
//! writes it to stdout with every `<!-- results:NAME -->` …
//! `<!-- /results:NAME -->` block rewritten from `NAME.json` in the
//! results directory (`FP_RESULTS`, default `results/`), as
//! [`fp_bench::results`] formats it. Each block whose text changed is named
//! on stderr. After a deliberate change to `results/`:
//!
//! ```sh
//! cargo run --release -q -p fp-bench --bin docs <EXPERIMENTS.md >EXPERIMENTS.md.new && mv EXPERIMENTS.md.new EXPERIMENTS.md
//! ```
//!
//! A marker without its partner, or a block whose file is missing or has
//! no table, ends the run with status 1 and nothing on stdout.

use fp_bench::results::{blocks, render_doc};
use fp_bench::RunConfig;
use std::io::Read;

fn fail<T>(e: String) -> T {
    eprintln!("docs: {e}");
    std::process::exit(1)
}

fn main() {
    let cfg = RunConfig::from_env();
    let mut doc = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut doc) {
        fail::<()>(format!("stdin: {e}"));
    }
    let read = |name: &str| {
        let path = cfg.results.join(format!("{name}.json"));
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let out = render_doc(&doc, read).unwrap_or_else(fail);
    let (old, new) = (
        blocks(&doc).unwrap_or_else(fail),
        blocks(&out).unwrap_or_else(fail),
    );
    for ((name, was), (_, is)) in old.iter().zip(&new) {
        if was != is {
            eprintln!("docs: block results:{name} differs from its rows");
        }
    }
    print!("{out}");
}
