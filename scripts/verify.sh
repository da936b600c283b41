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

echo "==> tier-1 tests with every fp-bench knob exported: no library reads the environment"
# The same test binaries (cached build), so this costs test time only.
FP_SPRAY=ecmp FP_MEMO=1 FP_QUICK=1 FP_THREADS=1 cargo test -q

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> agenda boundary: where a pending event waits is pipeline.rs's business"
# Only the agenda (pipeline.rs), the schedulers under it and in-crate test
# modules may name the containers (pipes, their ring, the head-of-line
# timer set), reserve a sequence number or make up a reserved slot. The
# bracket keeps this line from matching itself.
inside='reserve_se[q]|CLASS_PIP[E]|ClassPipe[s]|FrontHea[p]|Rin[g]<|HEAD_PIP[E]|Reserve[d] \{'
if git grep --untracked -nE "$inside" -- crates/netsim/src |
    grep -vE '^crates/netsim/src/(pipeline|engine|wheel|[a-z_]*_tests)\.rs:'; then
    echo "    a container leaked out of the agenda (lines above)" >&2
    exit 1
fi
echo "    clean outside pipeline.rs, engine.rs, wheel.rs and *_tests.rs"

echo "==> non-test lines per crate (each file up to its 'mod tests', *_tests.rs left out)"
# Every file of fp-netsim, where the carving happens; a subtotal for each
# crate, so the next simplicity PR starts from a number.
for crate in crates/*/; do
    find "${crate}src" -name '*.rs' ! -name '*_tests.rs' | sort | while read -r f; do
        echo "$(awk '/^mod tests/{exit} {n++} END{print n+0}' "$f") $f"
    done | sort -rn | awk -v crate="${crate%/}" '
        { s += $1; if (crate == "crates/netsim") printf "    %5d %s\n", $1, $2 }
        END { printf "    %5d %s/src total\n", s, crate }'
done

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

BINARIES=(fig5a fig5b fig5c preexisting ablate_spray ablate_jitter mitigation)
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
    cmp "$t1/$bin.json" "$t4/$bin.json"
    echo "    $bin: JSON byte-identical across thread counts"
done

echo "==> FP_SPRAY smoke: pluggable backends byte-identical across thread counts"
tsp="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp"' EXIT
# fig5a does not pin `sim.spray`, so the knob (through `cfg.base_spec()`)
# drives the whole sweep; `reps` exercises the ACK-fed feedback path end to
# end. Each backend's bytes must also differ from the Adaptive run above,
# or the knob no longer reaches the trials.
for pol in ecmp prime reps; do
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
    for bad in FP_SPRAY=ecpm FP_MEMO=On FP_QUICK=ture FP_THREADS=four FP_TELEMETRY_INTERVAL_NS=1ms; do
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
echo "    exit 2 naming variable and value: FP_SPRAY=ecpm, FP_MEMO=On, FP_QUICK=ture," \
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

echo "==> FP_MEMO smoke: memoized runs byte-identical to live"
tmo="$(mktemp -d)"
tmm="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp" "$tmo" "$tmm"' EXIT
for bin in headline fig2 mitigation; do
    FP_QUICK=1 FP_RESULTS="$tmo" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    FP_QUICK=1 FP_MEMO=1 FP_RESULTS="$tmm" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    cmp "$tmo/$bin.json" "$tmm/$bin.json"
    echo "    $bin: JSON byte-identical FP_MEMO=1 vs off"
done

echo "==> golden results: every committed results/*.json regenerates to its bytes"
# Full mode, every fp-bench binary but the spec-driven `trial` (about
# 3 min on two cores; fig5a, fig5c and preexisting are two thirds of it).
# The thread-count and memo comparisons above only compare runs with each
# other; this one compares with what is committed, so a change in simulated
# behaviour shows up as a diff in results/ to be explained, and a binary
# whose output nobody committed fails too. monitord_metrics_*.jsonl carry
# host time and are not compared (nor committed).
tg="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp" "$tmo" "$tmm" "$tg"' EXIT
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    [[ "$bin" == trial ]] && continue
    env -u FP_QUICK -u FP_SPRAY -u FP_MEMO FP_RESULTS="$tg" \
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

echo "==> monitord smoke: quick E10 sweep through the live service"
tm1="$(mktemp -d)"
tm4="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$tsp" "$tmo" "$tmm" "$tg" "$tm1" "$tm4"' EXIT
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
for policy in ("block", "drop", "park"):
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
print("    metrics.jsonl schema valid for block/drop/park; "
      "lossless policies report zero drops")
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
for bad in FP_MONITORD_POLICY=dorp FP_MONITORD_THRESHOLD=1% FP_MONITORD_CAP=1k; do
    rc=0
    env "$bad" target/release/fp-monitord </dev/null >/dev/null 2>"$tm1/bad_setting.err" || rc=$?
    if [[ $rc -ne 2 ]] || ! grep -qF "${bad%%=*}=\"${bad#*=}\"" "$tm1/bad_setting.err"; then
        echo "    $bad: exit $rc, stderr: $(cat "$tm1/bad_setting.err")" >&2
        exit 1
    fi
done
echo "    exit 2 naming variable and value for a bad policy, threshold and capacity"

echo "==> monitord return lane: allocator-counted steady state (release)"
# Debug ran above with the workspace tests; optimised code is what ships,
# and inlining is what could turn a reused buffer back into a fresh one.
cargo test --release -q -p fp-monitord --test alloc_steady

echo "verify: OK"
