#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, a campaign-determinism smoke
# run of every Campaign-ported sweep binary (FP_QUICK, 1 vs 4 threads must
# produce byte-identical JSON), and a full regeneration of results/*.json
# compared with the committed bytes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> benchmark/ builds against the changed crates"
# benchmark/ is a package of its own (frozen for most PRs) that links
# public symbols of every crate and that nothing else here builds: the
# first thing a refactor breaks, so it comes before the tests.
(cd benchmark && cargo build --offline --release)

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --release --workspace: the tests again, as optimized code"
# Every results file and benchmark number comes from optimized code, and
# an optimizer bug need not show in a debug build: rustc 1.95.0 at
# opt-level >= 2 double-frees a closure called twice with a by-value
# argument, which once aborted an engine unit test in release builds only.
cargo test --release --workspace -q

echo "==> tier-1 tests with every fp-bench knob exported: no library reads the environment"
# The same test binaries (cached build), so this costs test time only.
FP_SPRAY=ecmp FP_QUICK=1 FP_THREADS=1 cargo test -q

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> agenda boundary: where a pending event waits is pipeline.rs's business"
# Only the agenda (pipeline.rs), the scheduler under it and in-crate test
# modules may name the containers (pipes, their ring), reserve a sequence
# number or make up a reserved slot. The bracket keeps this line from
# matching itself.
inside='reserve_se[q]|CLASS_PIP[E]|ClassPipe[s]|FrontHea[p]|Rin[g]<|Reserve[d] \{'
if git grep --untracked -nE "$inside" -- crates/netsim/src |
    grep -vE '^crates/netsim/src/(pipeline|engine|[a-z_]*_tests)\.rs:'; then
    echo "    a container leaked out of the agenda (lines above)" >&2
    exit 1
fi
echo "    clean outside pipeline.rs, engine.rs and *_tests.rs"

echo "==> host boundary: a NIC's fresh-segment deques are host.rs's business"
# `Hosts::active` is pub(crate) for the tests; the event loop goes through
# host.rs's methods and memo shifts and fingerprints the deques through
# them too.
if git grep --untracked -nE '\.active([^A-Za-z0-9_]|$)' -- crates/netsim/src |
    grep -vE '^crates/netsim/src/(host\.rs|sim/memo/[a-z_]+\.rs|[a-z_]*_tests\.rs):'; then
    echo "    a fresh-segment deque leaked out of host.rs (lines above)" >&2
    exit 1
fi
echo "    clean outside host.rs, sim/memo/ and *_tests.rs"

echo "==> one door: the harness, the sweeps and the examples run a Scenario"
# `Scenario::run` (eval/run.rs) is the one place they build a `Simulator`.
# Left out: baselines.rs's unit tests and headline's probe mesh, which
# drive a live engine of their own. Tests and the engine crates are free.
tests_at="$(grep -n '^mod tests' crates/core/src/baselines.rs | cut -d: -f1)"
if git grep --untracked -nF 'Simulator::new(' -- crates/core/src crates/bench/src/bin examples |
    awk -F: -v t="$tests_at" '$1 != "crates/core/src/eval/run.rs" &&
        $1 != "crates/bench/src/bin/headline.rs" &&
        !($1 == "crates/core/src/baselines.rs" && $2 > t)' | grep .; then
    echo "    a simulator built outside Scenario::run (lines above)" >&2
    exit 1
fi
echo "    clean outside eval/run.rs, baselines.rs's tests and headline.rs"

echo "==> non-test lines per crate (each file up to its 'mod tests', *_tests.rs left out)"
# Every file of fp-netsim, where the carving happens; a subtotal for each
# crate, so the next simplicity PR starts from a number. A gate too: no
# file of fp-netsim over 1 000 (ROADMAP 8(a) carved sim.rs and memo.rs
# under it; a file that grows past it gets split, not waved through).
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' ! -name '*_tests.rs' | sort | while read -r f; do
        echo "$(awk '/^(pub\(crate\) )?mod tests/{exit} {n++} END{print n+0}' "$f") $f"
    done | sort -rn | awk -v crate="${crate%/}" '
        { s += $1; if (crate == "crates/netsim") printf "    %5d %s\n", $1, $2 }
        crate == "crates/netsim" && $1 > 1000 { big = big " " $2 }
        END {
            printf "    %5d %s/src total\n", s, crate
            if (big != "") { print "    over 1 000 non-test lines:" big > "/dev/stderr"; exit 1 }
        }'
done

echo "==> dead surface: pub items, fields and variants nothing outside their own file names (report only)"
# A `pub` fn / struct / enum / trait / type / const / static, `pub` struct
# field or variant of a `pub` enum of a library file (up to its `mod
# tests`) that no other file of the workspace names in code: crates, root
# tests and examples, and benchmark/, so whatever benchmark/ names is
# allowlisted (`QueueStats::parked`, always 0, stays only for it, and so
# do the names the deleted timing wheel left inert: `SchedKind::{Heap,
# Wheel}`, `SimConfig::sched`, `EventQueue::new`'s kind and
# `SchedStats::cascaded_entries`, always 0). Other
# files are read as code only — comments, doc comments and `use` /
# `pub use` lists (one line or many) are cut out first — so a name that
# is only mentioned, or only imported and re-exported, is not a use. An
# item named by another `pub` line of its own file (a type in a public
# signature) counts as used. Matching is by name, so a common name hides
# its item. What is listed either goes, goes private, or is kept here:
#   simulated.rs known_gray: the one demonstration of paper §5.2's claim
#     that a simulated prediction can include known gray faults;
#   learned.rs Warming, Consistent, localizer.rs Inconclusive, sim.rs
#     EventLimit: outcomes a caller receives that only their own tests
#     spell out (LearnedUpdate's are written to results/fig3.json);
#   baselines.rs rel_to_mean, collection_bytes: what the comparison
#     baselines report;
#   runner.rs compute_gap, ctrl lib.rs max_mitigations: the compute phase
#     between iterations and the control loop's mitigation budget, which
#     their own tests vary;
#   score.rs GoodputPhases: the return type of `goodput_phases`, whose
#     signature spans lines, so its own-file `pub` line is not found;
#   telemetry lib.rs parse_setting: imported as `get` by the two doors
#     that read the environment, and called under that name;
#   wire.rs decode_line: the one-line decoder of fp-monitord's library
#     surface; its proptests pin the in-place scanner to serde_json;
#   engine.rs Scheduler: inert since the timing wheel went (one
#     implementor); benchmark/ imports it to call the heap's methods.
code="$(mktemp -d)"
git ls-files --cached --others --exclude-standard -- \
    'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' 'benchmark/src/*.rs' |
    while read -r f; do
        mkdir -p "$code/$(dirname "$f")"
        perl -0777 -pe 's{/\*.*?\*/}{}gs; s{//[^\n]*}{}g;
            s{^[ \t]*(pub(\([a-z:]+\))? )?use [^;]*;}{}gm' "$f" >"$code/$f"
    done
dead=0
for f in $(git ls-files --cached --others --exclude-standard -- 'crates/*/src/*.rs' |
    grep -v '_tests\.rs$'); do
    own="$(awk '/^(pub\(crate\) )?mod tests/{exit} {print}' "$f")"
    while read -r what name; do
        if [[ $what == item && $(grep -cE "^\s*pub .*\b$name\b" <<<"$own") -gt 1 ]] ||
            [[ -n $(grep -rlw -- "$name" "$code" | grep -vxF "$code/$f") ]]; then
            continue
        fi
        echo "    $f: $what $name"
        dead=$((dead + 1))
    done < <(awk '/^(pub\(crate\) )?mod tests/{exit}
        inenum && index($0, ind "}") == 1 { inenum = 0 }
        inenum && match($0, "^" ind "    [A-Z][A-Za-z0-9_]*") {
            s = substr($0, RSTART, RLENGTH); sub(/^ +/, "", s); print "variant", s }
        match($0, /^[ \t]*pub (const fn|fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
            s = substr($0, RSTART, RLENGTH); sub(/.* /, "", s); print "item", s
            if ($0 ~ /^[ \t]*pub enum /) { inenum = 1; match($0, /^[ \t]*/); ind = substr($0, 1, RLENGTH) } }
        match($0, /^[ \t]+pub [a-z_][a-z0-9_]*:/) {
            s = substr($0, RSTART, RLENGTH - 1); sub(/.* /, "", s); print "field", s }' "$f")
done
rm -rf "$code"
echo "    $dead item(s) named nowhere else"

echo "==> benchmark/: its own tests, then 3-s checked runs of all six workloads"
# Seed 1 also compares event, packet, retransmit, drop and alarm counts
# with benchmark/expected.json, so a change in simulated behaviour fails
# here — on the paper's own fabric (paper_live) and through the 2-thread
# campaign pool (sweep_small) as well; monitord_ingest checks the live
# service against an offline Monitor stream by stream (every snapshot
# processed, every stream closed, alarm JSON equal).
(cd benchmark && cargo test --offline -q)
for w in paper_live steady_adaptive steady_leastloaded fault_loop sweep_small monitord_ingest; do
    # stderr stays on the terminal so a build failure or panic is visible.
    line="$(benchmark/run.sh --workload "$w" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    if [[ "$line" == *'"correct":true'* && "$line" == *'"failed":0'* ]]; then
        echo "    $w: correct, 0 failed"
    else
        echo "    $w: benchmark run not clean: ${line:-<no output>}" >&2
        exit 1
    fi
done

BINARIES=(fig5a fig5b fig5c preexisting ablate_spray ablate_jitter ablate_model ablate_localize mitigation)
t1="$(mktemp -d)"
t4="$(mktemp -d)"
tt="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt"' EXIT

echo "==> FP_QUICK smoke: ${BINARIES[*]} at FP_THREADS=1 and FP_THREADS=4"
for bin in "${BINARIES[@]}"; do
    FP_QUICK=1 FP_THREADS=1 FP_RESULTS="$t1" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    FP_QUICK=1 FP_THREADS=4 FP_RESULTS="$t4" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    # ablate_localize writes two files, one per localization path.
    for out in "$t1/$bin"*.json; do
        cmp "$out" "$t4/$(basename "$out")"
    done
    echo "    $bin: JSON byte-identical across thread counts"
done

echo "==> FP_SPRAY smoke: spray policies byte-identical across thread counts"
tsp="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp"' EXIT
# fig5a does not pin `sim.spray`, so the knob (through `cfg.base_spec()`)
# drives the whole sweep; `rr` and `random` are the arms the engine sends
# through `Sprayer::pick` with no load signal, and `reps` exercises the
# ACK-fed feedback path end to end. Each policy's bytes must also differ
# from the Adaptive run above, or the knob no longer reaches the trials.
for pol in rr random ecmp prime reps; do
    FP_QUICK=1 FP_SPRAY="$pol" FP_THREADS=1 FP_RESULTS="$tsp/s1" \
        cargo run --release -q -p fp-bench --bin fig5a >/dev/null
    FP_QUICK=1 FP_SPRAY="$pol" FP_THREADS=4 FP_RESULTS="$tsp/s4" \
        cargo run --release -q -p fp-bench --bin fig5a >/dev/null
    cmp "$tsp/s1/fig5a.json" "$tsp/s4/fig5a.json"
    if cmp -s "$tsp/s1/fig5a.json" "$t1/fig5a.json"; then
        echo "    fig5a FP_SPRAY=$pol: same bytes as the Adaptive run, the knob did not apply" >&2
        exit 1
    fi
    echo "    fig5a FP_SPRAY=$pol: JSON byte-identical across thread counts, unlike Adaptive's"
done

echo "==> FP_* typos: a mistyped knob must stop every fp-bench binary with status 2"
# Each binary resolves the whole configuration first thing in main, so any
# of them refuses any knob, before a trial runs or a file is written.
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    for bad in FP_SPRAY=ecpm FP_QUICK=ture FP_THREADS=four FP_TELEMETRY_INTERVAL_NS=1ms; do
        rc=0
        env FP_QUICK=1 FP_RESULTS="$tsp/typo" "$bad" "target/release/$bin" \
            </dev/null >/dev/null 2>"$tsp/typo.err" || rc=$?
        if [[ $rc -ne 2 ]] || ! grep -qF "${bad%%=*}=\"${bad#*=}\" not recognized" "$tsp/typo.err"; then
            echo "    $bad: $bin exit $rc, stderr: $(cat "$tsp/typo.err")" >&2
            exit 1
        fi
    done
done
test ! -e "$tsp/typo"
echo "    exit 2 naming variable and value: FP_SPRAY=ecpm, FP_QUICK=ture," \
    "FP_THREADS=four, FP_TELEMETRY_INTERVAL_NS=1ms ($(ls crates/bench/src/bin/*.rs | wc -l) binaries each)"

echo "==> FP_RESULTS= (set but empty) means the default directory, not the current one"
fig5a="$PWD/target/release/fig5a"
mkdir "$tsp/empty_results"
(cd "$tsp/empty_results" && FP_QUICK=1 FP_RESULTS= "$fig5a" >/dev/null)
test -s "$tsp/empty_results/results/fig5a.json"
test ! -e "$tsp/empty_results/fig5a.json"
echo "    fig5a rows landed under results/ of its working directory"

echo "==> E11 smoke: quick spray x mitigation cross, 1 vs 4 threads"
# The binary itself asserts the headline E11 claims on every run: healthy
# fabrics are never mitigated (zero false mitigations, zero verbs) and
# entropy recycling restores the REPS fabric's goodput.
FP_QUICK=1 FP_THREADS=1 FP_RESULTS="$tsp/e1" \
    cargo run --release -q -p fp-bench --bin e11_spray_mitigation >/dev/null
FP_QUICK=1 FP_THREADS=4 FP_RESULTS="$tsp/e4" \
    cargo run --release -q -p fp-bench --bin e11_spray_mitigation >/dev/null
cmp "$tsp/e1/e11_spray.json" "$tsp/e4/e11_spray.json"
echo "    e11_spray: clean rows untouched, recycle recovers, JSON byte-identical"

echo "==> headline smoke: telemetry on vs off, scheduler-push guard"
# The binary itself asserts that at most 1 % of its events reach the
# scheduler (an exact count; constant-delay events ride the delay-class
# pipes), so a plain quick run is that check.
FP_QUICK=1 FP_RESULTS="$t4" \
    cargo run --release -q -p fp-bench --bin headline >/dev/null
FP_QUICK=1 FP_TELEMETRY="$tt" FP_RESULTS="$t1" \
    cargo run --release -q -p fp-bench --bin headline >/dev/null
cmp "$t1/headline.json" "$t4/headline.json"
echo "    headline: JSON byte-identical with telemetry on vs off"
for f in events.jsonl samples.jsonl histograms.json trace.json manifest.json; do
    test -s "$tt/headline/$f"
done
FP_TELEMETRY_CHECK="$tt/headline" \
    cargo test --release -q -p fp-bench --test telemetry_schema
echo "    telemetry artifacts validate (JSONL schema + Chrome trace)"

echo "==> golden results: every committed results/*.json regenerates to its bytes"
# Full mode, every fp-bench binary but the spec-driven `trial` (about
# 3 min on two cores; fig5a, fig5c and preexisting are two thirds of it).
# The thread-count comparisons above only compare runs with each
# other; this one compares with what is committed, so a change in simulated
# behaviour shows up as a diff in results/ to be explained, and a binary
# whose output nobody committed fails too. monitord_metrics_*.jsonl carry
# host time and are not compared (nor committed).
tg="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp" "$tg"' EXIT
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    [[ "$bin" == trial ]] && continue
    env -u FP_QUICK -u FP_SPRAY FP_RESULTS="$tg" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
done
for f in results/*.json "$tg"/*.json; do
    name="$(basename "$f")"
    if ! cmp "results/$name" "$tg/$name"; then
        echo "    $name: committed and regenerated bytes differ (or one is missing)" >&2
        exit 1
    fi
done
echo "    $(ls results/*.json | wc -l) files byte-identical to a full regeneration"

echo "==> quickstart example: fault-free fast-forward must engage (memo_hits > 0)"
cargo run --release -q --example quickstart >/dev/null
echo "    quickstart: memoized steady state replayed, byte-identical to live"

echo "==> clos3_tour example: the agg tier must pin the faulty core slot"
# The 3-level builder and routing rule end to end, outside threelevel's
# golden file: the example asserts its own verdict.
cargo run --release -q --example clos3_tour >/dev/null
echo "    clos3_tour: leaf tier detected, agg tier pinned the core slot"

echo "==> learning_demo and fault_hunt examples: each asserts its own story"
# multi_job asserts too, but fails today: job 1 raises a false alarm at
# leaf 4 next to the real one at leaf 2 (ROADMAP item 10).
cargo run --release -q --example learning_demo >/dev/null
echo "    learning_demo: one heal rebaseline, no alarm around it, the new fault caught"
cargo run --release -q --example fault_hunt >/dev/null
echo "    fault_hunt: every injected fault of the zoo detected"

echo "==> monitord smoke: quick E10 sweep through the live service"
tm1="$(mktemp -d)"
tm4="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp" "$tg" "$tm1" "$tm4"' EXIT
# The sweep itself asserts zero drops + all streams closed under the
# blocking policy; verify.sh additionally checks the metrics.jsonl schema
# and that per-stream verdicts are byte-identical across producer thread
# counts (and hence match the offline monitor — the sweep's alarm JSON is
# derived from the same incremental-scan state the byte-identity unit
# test pins against run_trial).
FP_QUICK=1 FP_THREADS=1 FP_RESULTS="$tm1" \
    cargo run --release -q -p fp-bench --bin monitord_sweep >/dev/null
FP_QUICK=1 FP_THREADS=4 FP_RESULTS="$tm4" \
    cargo run --release -q -p fp-bench --bin monitord_sweep >/dev/null
cmp "$tm1/monitord_alarms.json" "$tm4/monitord_alarms.json"
echo "    monitord_alarms.json byte-identical across producer thread counts"
python3 - "$tm4" <<'EOF'
import json, sys, os
d = sys.argv[1]
for policy in ("block", "drop"):
    path = os.path.join(d, f"monitord_metrics_monitord32_{policy}.jsonl")
    lines = [json.loads(l) for l in open(path) if l.strip()]
    if not lines:
        sys.exit(f"{path}: no metrics emitted")
    for i, m in enumerate(lines):
        for k in ("seq", "uptime_us", "counters", "gauges", "histograms"):
            if k not in m:
                sys.exit(f"{path}:{i}: missing key '{k}'")
    final = lines[-1]
    for c in ("ingest_offered", "ingest_accepted", "ingest_dropped",
              "snapshots_processed", "streams_closed", "alarms_raised",
              "shape_errors"):
        if c not in final["counters"]:
            sys.exit(f"{path}: final line missing counter '{c}'")
    for g in ("queue_depth", "streams_active", "ingest_per_sec", "open_iters",
              "spare_buffers"):
        if g not in final["gauges"]:
            sys.exit(f"{path}: final line missing gauge '{g}'")
    for h in ("batch_size", "queue_depth_at_batch", "queue_wait_ns",
              "scan_latency_ns", "verdict_latency_ns"):
        if h not in final["histograms"]:
            sys.exit(f"{path}: final line missing histogram '{h}'")
        b = final["histograms"][h]
        if b["count"] and sum(x["count"] for x in b["buckets"]) != b["count"]:
            sys.exit(f"{path}: histogram '{h}' bucket counts != count")
    if policy != "drop" and final["counters"]["ingest_dropped"] != 0:
        sys.exit(f"{path}: lossless policy '{policy}' dropped snapshots")
print("    metrics.jsonl schema valid for block/drop; "
      "the lossless policy reports zero drops")
EOF

echo "==> monitord stdin: bad bytes and a cut-off line must not stop the daemon"
# Two streams, one sagging from iteration 2 on, fed to the real binary
# twice: clean, and with a line of non-UTF-8 bytes in the middle plus a
# last line cut short. Both runs must exit 0 and report the same streams.
python3 - "$tm1" <<'EOF'
import json, sys, os
lines = []
for it in range(5):
    for fabric, sag in (("pipe-a", 0), ("pipe-b", 80)):
        cells = [1000 - (sag if it >= 2 else 0), 1000, 1000, 1000]
        lines.append(json.dumps(
            {"fabric": fabric, "job": 1, "iter": it, "n_leaves": 2,
             "n_vspines": 2, "t_ns": 100 * it, "bytes": cells,
             "last": it == 4}, separators=(",", ":")).encode())
clean = b"".join(l + b"\n" for l in lines)
dirty = (b"".join(l + b"\n" for l in lines[:5]) + b"\xff\xfe garbage\n"
         + b"".join(l + b"\n" for l in lines[5:]) + lines[0][:40])
open(os.path.join(sys.argv[1], "stdin_clean.ndjson"), "wb").write(clean)
open(os.path.join(sys.argv[1], "stdin_dirty.ndjson"), "wb").write(dirty)
EOF
for kind in clean dirty; do
    # `set -e`: a non-zero exit (the old panic) fails the gate right here.
    target/release/fp-monitord <"$tm1/stdin_$kind.ndjson" \
        >"$tm1/stdin_$kind.out" 2>/dev/null
    grep '^stream ' "$tm1/stdin_$kind.out" >"$tm1/stdin_$kind.streams"
done
grep -q '^stream pipe-b/job1: 5 snapshots, 3 alarms' "$tm1/stdin_clean.streams"
cmp "$tm1/stdin_clean.streams" "$tm1/stdin_dirty.streams"
grep -q '(wire: 10 lines, 0 malformed, 0 rejected)' "$tm1/stdin_clean.out"
grep -q '(wire: 12 lines, 2 malformed, 0 rejected)' "$tm1/stdin_dirty.out"
echo "    exit 0, 2 malformed counted, stream verdicts equal to the clean run's"

echo "==> monitord settings: a mistyped value must stop the daemon with status 2"
for bad in FP_MONITORD_POLICY=dorp FP_MONITORD_POLICY=park FP_MONITORD_THRESHOLD=1% FP_MONITORD_CAP=1k; do
    rc=0
    env "$bad" target/release/fp-monitord </dev/null >/dev/null 2>"$tm1/bad_setting.err" || rc=$?
    if [[ $rc -ne 2 ]] || ! grep -qF "${bad%%=*}=\"${bad#*=}\"" "$tm1/bad_setting.err"; then
        echo "    $bad: exit $rc, stderr: $(cat "$tm1/bad_setting.err")" >&2
        exit 1
    fi
done
echo "    exit 2 naming variable and value for a bad or removed policy, threshold and capacity"

echo "==> monitord ingest: allocator-counted steady state of decoder and worker (release)"
# Debug ran above with the workspace tests; optimised code is what ships,
# and inlining is what could turn a reused buffer back into a fresh one.
cargo test --release -q -p fp-monitord --test alloc_steady

echo "==> flow table: simulator peak heap flat from 24 to 96 iterations (release)"
cargo test --release -q --test flow_memory

echo "==> counters: a ring iteration hands back at most 2 kB, 24 to 96 iterations (release)"
cargo test --release -q --test counter_memory

echo "verify: OK"
