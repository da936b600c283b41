#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, and a campaign-determinism smoke
# run of every Campaign-ported sweep binary (FP_QUICK, 1 vs 4 threads must
# produce byte-identical JSON).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> git stamp"
desc="$(git describe --always --dirty 2>/dev/null || echo unknown)"
case "$desc" in
*-dirty)
    echo "    WARNING: worktree is dirty — bench entries recorded now carry a" \
        "'$desc' stamp unless the dirt is only results/ or BENCH_*.json artifacts"
    ;;
*)
    echo "    clean at $desc"
    ;;
esac

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --workspace --no-run (benches must keep compiling)"
cargo bench --workspace --no-run -q

echo "==> removed subsystem stays removed: no intra-trial sharding left behind"
# Intra-trial sharding was deleted (DESIGN.md §9). The bracket in each
# alternative keeps these lines from matching themselves. One mention is
# allowed: eval.rs's inert-field test sets the old shard-count variable to
# show that nothing reads it.
gone='FP_SHAR[D]|run_sharde[d]|ShardPla[n]|attach_shar[d]|shard_scalin[g]'
if git grep -nE "$gone" -- crates src examples tests scripts |
    grep -v '^crates/core/src/eval.rs:.*_var("FP_SHAR[D]S"'; then
    echo "    sharding identifiers are back (lines above)" >&2
    exit 1
fi
python3 - <<'EOF'
import json, sys
for name, e in json.load(open("BENCH_netsim.json")).items():
    keys = [k for k in e if k.startswith("shard")]
    if keys or name.startswith("shard"):
        sys.exit(f"BENCH_netsim.json[{name}]: shard row or keys {keys}")
EOF
echo "    none under crates/ src/ examples/ tests/ scripts/, no shard row or key in BENCH_netsim.json"

echo "==> benchmark/: its own tests, then 3-s checked runs of four workloads"
# benchmark/ is a package of its own that links public symbols of every
# crate; nothing above builds it. Seed 1 also compares event, packet,
# retransmit and alarm counts with benchmark/expected.json, so a change in
# simulated behaviour fails here; monitord_ingest checks the live service
# against an offline Monitor stream by stream (every snapshot processed,
# every stream closed, alarm JSON equal).
(cd benchmark && cargo test --offline -q)
for w in steady_adaptive steady_leastloaded fault_loop monitord_ingest; do
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
# Smoke runs must never clobber the committed BENCH_netsim.json.
export FP_BENCH_JSON=""

echo "==> FP_QUICK smoke: ${BINARIES[*]} at FP_THREADS=1 and FP_THREADS=4"
for bin in "${BINARIES[@]}"; do
    FP_QUICK=1 FP_THREADS=1 FP_RESULTS="$t1" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    FP_QUICK=1 FP_THREADS=4 FP_RESULTS="$t4" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    cmp "$t1/$bin.json" "$t4/$bin.json"
    echo "    $bin: JSON byte-identical across thread counts"
done

echo "==> FP_SCHED=heap smoke: scheduler backend must not change output bytes"
th="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$th"' EXIT
for bin in fig5a preexisting mitigation; do
    FP_QUICK=1 FP_THREADS=4 FP_SCHED=heap FP_RESULTS="$th" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    cmp "$t4/$bin.json" "$th/$bin.json"
    echo "    $bin: JSON byte-identical heap vs wheel"
done

echo "==> FP_SPRAY smoke: pluggable backends byte-identical across thread counts"
tsp="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$th" "$tsp"' EXIT
# fig5a does not pin `sim.spray`, so the env knob drives the whole sweep;
# `reps` exercises the ACK-fed feedback path end to end.
for pol in ecmp prime reps; do
    FP_QUICK=1 FP_SPRAY="$pol" FP_THREADS=1 FP_RESULTS="$tsp/s1" \
        cargo run --release -q -p fp-bench --bin fig5a >/dev/null
    FP_QUICK=1 FP_SPRAY="$pol" FP_THREADS=4 FP_RESULTS="$tsp/s4" \
        cargo run --release -q -p fp-bench --bin fig5a >/dev/null
    cmp "$tsp/s1/fig5a.json" "$tsp/s4/fig5a.json"
    echo "    fig5a FP_SPRAY=$pol: JSON byte-identical across thread counts"
done

echo "==> FP_* typos: a mistyped toggle must stop a sweep, not run the default"
for bad in FP_SPRAY=ecpm FP_MEMO=On FP_THREADS=four FP_SCHED=wheeel; do
    if env FP_QUICK=1 FP_RESULTS="$tsp/typo" "$bad" target/release/fig5a >/dev/null 2>"$tsp/typo.err"; then
        echo "    $bad: fig5a ran anyway" >&2
        exit 1
    fi
    grep -qF "${bad%%=*}=\"${bad#*=}\" not recognized" "$tsp/typo.err"
done
echo "    fig5a refuses FP_SPRAY=ecpm, FP_MEMO=On, FP_THREADS=four, FP_SCHED=wheeel by name and value"

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

echo "==> bench json schema: BENCH_netsim.json parses with required keys"
python3 - <<'EOF'
import json, sys
d = json.load(open("BENCH_netsim.json"))
required = ["name", "git", "scheduler", "threads", "host_parallelism",
            "quick", "trials", "wall_us", "events",
            "events_per_sec", "sched_pushes", "memo_hits",
            "memo_replayed_events"]
for name in ("headline", "baseline", "telemetry_overhead", "mitigation",
             "e11_spray", "memo_headline", "memo_mitigation",
             "monitord32_block", "monitord64_block",
             "monitord32_drop", "monitord32_park"):
    e = d.get(name)
    if e is None:
        sys.exit(f"BENCH_netsim.json: missing entry '{name}'")
    missing = [k for k in required if k not in e]
    if missing:
        sys.exit(f"BENCH_netsim.json[{name}]: missing keys {missing}")
# `sched_pushes` is whatever still reaches the wheel/heap. Since the
# delay-class pipes (DESIGN.md §6) that is only absolute-time events and
# overflow past the class bound, so rows recorded after that change read
# close to 0 while older rows read millions: both are valid, any count up
# to one push per event plus its stale timers is. (monitord rows reuse the
# key for snapshots offered and are checked further down.)
for name, e in d.items():
    if name.startswith("monitord"):
        continue
    p = e["sched_pushes"]
    if not isinstance(p, int) or p < 0 or p > 2 * e["events"]:
        sys.exit(f"BENCH_netsim.json[{name}]: sched_pushes {p!r} outside "
                 f"[0, 2 x events = {2 * e['events']}]")
for name in ("memo_headline", "memo_mitigation"):
    if d[name]["memo_hits"] == 0:
        sys.exit(f"BENCH_netsim.json[{name}]: memoized campaign recorded 0 hits")
ctrl_keys = ["tt_detect_ns", "tt_mitigate_ns", "false_mitigations"]
m = d["mitigation"]
missing = [k for k in ctrl_keys if m.get(k) is None]
if missing:
    sys.exit(f"BENCH_netsim.json[mitigation]: closed-loop keys null/missing: {missing}")
if m["false_mitigations"] != 0:
    sys.exit(f"BENCH_netsim.json[mitigation]: {m['false_mitigations']} false mitigations")
e11 = d["e11_spray"]
missing = [k for k in ctrl_keys if e11.get(k) is None]
if missing:
    sys.exit(f"BENCH_netsim.json[e11_spray]: closed-loop keys null/missing: {missing}")
if e11["false_mitigations"] != 0:
    sys.exit(f"BENCH_netsim.json[e11_spray]: {e11['false_mitigations']} false "
             "mitigations across the backend x verb cross")
# monitord rows carry the service's own stage latencies, other rows none.
latency_keys = ["queue_wait_p50_us", "queue_wait_p99_us",
                "scan_p50_us", "scan_p99_us"]
for name, e in d.items():
    have = [k for k in latency_keys if isinstance(e.get(k), (int, float))]
    want = latency_keys if name.startswith("monitord") else []
    if have != want:
        sys.exit(f"BENCH_netsim.json[{name}]: service latency keys {have}, "
                 f"expected {want}")
mb = d["monitord32_block"]
if mb["events"] != mb["sched_pushes"]:
    sys.exit("BENCH_netsim.json[monitord32_block]: blocking policy lost "
             f"snapshots ({mb['events']} processed of {mb['sched_pushes']} offered)")
print("    headline + baseline + overhead + mitigation + e11_spray + memo + "
      "monitord entries carry all required keys")
EOF

echo "==> memo perf canary (warn-only): committed memo rows vs live rates"
python3 - <<'EOF'
import json
d = json.load(open("BENCH_netsim.json"))
memo = d["memo_mitigation"]
live = d["mitigation"]
ratio = memo["events_per_sec"] / live["events_per_sec"]
print(f"    memo_mitigation: {memo['events_per_sec']/1e6:.1f} Mev/s counting "
      f"replayed events vs mitigation sweep {live['events_per_sec']/1e6:.1f} "
      f"Mev/s ({ratio:.1f}x; {memo['memo_replayed_events']} of "
      f"{memo['events']} events replayed)")
if ratio < 3.0:
    print("    WARNING: memoized rate < 3x the mitigation sweep — the "
          "fast-forward win regressed; worth a full re-measure")
mh = d["memo_headline"]
hl = d["headline"]
print(f"    memo_headline: {mh['events_per_sec']/1e6:.1f} Mev/s vs live "
      f"headline {hl['events_per_sec']/1e6:.1f} Mev/s")
EOF

echo "==> perf smoke: quick headline vs committed BENCH_netsim.json"
# A quick run is a different workload than the committed full campaign, so
# the absolute events/sec are not comparable run-to-run on shared hardware;
# print the delta as a canary but never fail the gate on it. The share of
# events that reach the scheduler is an exact count and does gate.
pb="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$th" "$tsp" "$pb"' EXIT
FP_QUICK=1 FP_BENCH_JSON="$pb/bench.json" FP_RESULTS="$pb" \
    cargo run --release -q -p fp-bench --bin headline >/dev/null
python3 - "$pb/bench.json" <<'EOF'
import json, sys
probe = json.load(open(sys.argv[1]))["headline"]
committed = json.load(open("BENCH_netsim.json"))["headline"]
delta = probe["events_per_sec"] / committed["events_per_sec"] - 1.0
print(f"    quick headline: {probe['events_per_sec']/1e6:.2f} Mev/s "
      f"({probe['scheduler']}), committed full campaign "
      f"{committed['events_per_sec']/1e6:.2f} Mev/s ({delta:+.1%})")
if delta < -0.30:
    print("    WARNING: quick headline >30% below the committed rate — "
          "worth a full re-measure before merging perf-sensitive changes")
# Not host noise but an exact count, so this one fails: constant-delay
# events ride the delay-class pipes, and a quick headline that pushes more
# than 1 % of its events through the scheduler has lost them.
share = probe["sched_pushes"] / probe["events"]
print(f"    quick headline: {probe['sched_pushes']} scheduler pushes for "
      f"{probe['events']} events ({share:.3%})")
if share > 0.01:
    sys.exit("quick headline: scheduler pushes above 1 % of events — "
             "constant-delay events are reaching the wheel again")
EOF
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

echo "==> FP_MEMO smoke: memoized runs byte-identical to live (wheel + heap)"
tmo="$(mktemp -d)"
tmm="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$th" "$tsp" "$pb" "$tmo" "$tmm"' EXIT
for bin in headline fig2 mitigation; do
    FP_QUICK=1 FP_RESULTS="$tmo" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    FP_QUICK=1 FP_MEMO=1 FP_RESULTS="$tmm" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    cmp "$tmo/$bin.json" "$tmm/$bin.json"
    FP_QUICK=1 FP_SCHED=heap FP_RESULTS="$tmo/heap" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    FP_QUICK=1 FP_MEMO=1 FP_SCHED=heap FP_RESULTS="$tmm/heap" \
        cargo run --release -q -p fp-bench --bin "$bin" >/dev/null
    cmp "$tmo/heap/$bin.json" "$tmm/heap/$bin.json"
    echo "    $bin: JSON byte-identical FP_MEMO=1 vs off (wheel + heap)"
done

echo "==> quickstart example: fault-free fast-forward must engage (memo_hits > 0)"
cargo run --release -q --example quickstart >/dev/null
echo "    quickstart: memoized steady state replayed, byte-identical to live"

echo "==> monitord smoke: quick E10 sweep through the live service"
tm1="$(mktemp -d)"
tm4="$(mktemp -d)"
trap 'rm -rf "$t1" "$t4" "$tt" "$th" "$tsp" "$pb" "$tmo" "$tmm" "$tm1" "$tm4"' EXIT
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
