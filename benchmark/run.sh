#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last stdout line is the JSON result
#       (this is the command BENCHMARK.json names)
#   benchmark/run.sh
#       the full set: every workload in interleaved rounds with output
#       checks, every end-to-end metric printed by name and unit, then the
#       traced run with every per-layer metric and one Chrome trace per
#       workload; results land in benchmark/out/
#   benchmark/run.sh compare A.json B.json | pairs PARENT_FPBENCH |
#                    selfcheck | expected | declare | map
#       passed through to fpbench
#
# Builds offline from ../crates and ../vendor into CARGO_TARGET_DIR (or
# benchmark/target); the root manifest and lock file are not touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/fpbench"

case "${1:-}" in
"")
    "$bin" suite --out-dir "$here/out"
    "$bin" trace --out-dir "$here/out"
    ;;
--*)
    exec "$bin" run --out-dir "$here/out" "$@"
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
