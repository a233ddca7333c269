#!/usr/bin/env bash
# Standard pre-PR gate: the tier-1 verify plus lint, a smoke run of every
# bench harness, a shape-check of the machine-readable bench output, the
# experiment smokes and the benchmark of record's quick bodies — all fully
# offline (the hermetic-build policy in DESIGN.md — no crates.io
# dependency anywhere, so --offline must always succeed).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== lint: clippy, warnings are errors (offline) =="
cargo clippy --offline --workspace -- -D warnings

echo "== bench harnesses in smoke mode (1 iteration each) =="
TESTKIT_BENCH_SMOKE=1 cargo bench --offline -p ecf-bench

echo "== sim_throughput smoke + BENCH JSON shape check =="
tmp_json="$(mktemp /tmp/bench-smoke.XXXXXX.json)"
trap 'rm -f "$tmp_json"' EXIT
TESTKIT_BENCH_JSON="$tmp_json" TESTKIT_BENCH_SMOKE=1 \
    cargo bench --offline -p ecf-bench --bench sim_throughput

check_bench_json() {
    # $1: path; $2: label; $3...: extra required benchmark names beyond the
    # baselined set. Fails if missing, unparseable, or lacking the
    # sim_throughput results / required fields. New benchmarks are listed as
    # extras on the fresh-output check only until scripts/bench_update.sh
    # next regenerates BENCH.json (the perf gate iterates the names present
    # in the committed baseline, so an un-baselined bench is shape-checked
    # but not yet perf-gated).
    local path="$1" label="$2"
    shift 2
    if [ ! -s "$path" ]; then
        echo "verify.sh: $label missing or empty: $path" >&2
        return 1
    fi
    python3 - "$path" "$label" "$@" <<'PY'
import json, sys
path, label = sys.argv[1], sys.argv[2]
extra = tuple(sys.argv[3:])
try:
    doc = json.load(open(path))
except Exception as e:
    sys.exit(f"verify.sh: {label} is not valid JSON: {e}")
if doc.get("schema") != 1:
    sys.exit(f"verify.sh: {label}: unexpected schema {doc.get('schema')!r}")
results = doc.get("results")
if not isinstance(results, list) or not results:
    sys.exit(f"verify.sh: {label}: no results array")
names = {r.get("name") for r in results}
for want in (
    "sim_throughput/streaming_0.3_8.6",
    "sim_throughput/streaming_0.3_8.6_telemetry",
    "sim_throughput/streaming_0.3_8.6_scenario",
    "sim_throughput/browse_6conn",
    "sim_throughput/browse_24conn",
    "sim_throughput/browse_1k",
    "sim_throughput/streaming_onoff",
    "sim_throughput/quic_web_107stream",
) + extra:
    if want not in names:
        sys.exit(f"verify.sh: {label}: missing benchmark {want}")
for r in results:
    for field in ("name", "median_ns", "p95_ns", "samples", "iters_per_sample"):
        if field not in r:
            sys.exit(f"verify.sh: {label}: result {r.get('name')!r} lacks {field}")
    if r["name"].startswith("sim_throughput/") and "elements_per_sec" not in r:
        sys.exit(f"verify.sh: {label}: {r['name']} lacks elements_per_sec")
print(f"verify.sh: {label}: ok ({len(results)} results)")
PY
}

check_bench_json "$tmp_json" "smoke bench JSON"
check_bench_json "BENCH.json" "committed BENCH.json" \
    "sharded/browse_coupled" "sharded/browse_coupled_mono"

echo "== perf gate: sim_throughput vs committed BENCH.json =="
# A 1-iteration smoke run is not a measurement, so the gate only runs on a
# full bench pass. `TESTKIT_BENCH_SMOKE=1 scripts/verify.sh` keeps the whole
# gate cheap for quick pre-push loops; CI and pre-merge runs leave it unset.
if [ "${TESTKIT_BENCH_SMOKE:-0}" = "1" ]; then
    echo "verify.sh: TESTKIT_BENCH_SMOKE=1 — skipping perf gate" \
        "(smoke numbers are not comparable to the committed baseline)"
else
    # Interference on a shared box only ever slows a run down, so the best
    # of three fresh runs is the closest observable to the machine's true
    # speed; that is what gets compared. BENCH.json records MEDIAN-of-three
    # (scripts/bench_update.sh) — comparing a fresh best against a committed
    # typical with 10% slack means a failure is a real regression, not noise.
    gate_a="$(mktemp /tmp/bench-gate-a.XXXXXX.json)"
    gate_b="$(mktemp /tmp/bench-gate-b.XXXXXX.json)"
    gate_c="$(mktemp /tmp/bench-gate-c.XXXXXX.json)"
    trap 'rm -f "$tmp_json" "$gate_a" "$gate_b" "$gate_c"' EXIT
    for gate_json in "$gate_a" "$gate_b" "$gate_c"; do
        TESTKIT_BENCH_JSON="$gate_json" \
            cargo bench --offline -p ecf-bench --bench sim_throughput
    done
    python3 - BENCH.json "$gate_a" "$gate_b" "$gate_c" <<'PY'
import json, sys

base_doc = json.load(open(sys.argv[1]))
fresh = {}
for path in sys.argv[2:]:
    doc = json.load(open(path))
    if doc.get("smoke"):
        sys.exit("verify.sh: perf gate got a smoke run; cannot compare")
    for r in doc["results"]:
        if "elements_per_sec" in r:
            cur = fresh.get(r["name"], 0.0)
            fresh[r["name"]] = max(cur, r["elements_per_sec"])
failed = False
for base in base_doc["results"]:
    name = base["name"]
    if "elements_per_sec" not in base or name not in fresh:
        continue
    now, then = fresh[name], base["elements_per_sec"]
    ratio = now / then
    mark = "ok"
    if ratio < 0.9:
        mark, failed = "REGRESSION", True
    print(f"verify.sh: perf {name}: best {now:,.0f} el/s vs baseline "
          f"{then:,.0f} ({ratio:.2f}x) {mark}")
if failed:
    sys.exit("verify.sh: perf gate failed — a benchmark regressed >10% vs "
             "BENCH.json (rerun on an idle machine to rule out noise; "
             "regenerate the baseline with scripts/bench_update.sh only for "
             "an intended change)")
print("verify.sh: perf gate ok")
PY
fi

echo "== telemetry trace smoke (repro --trace, quick) =="
tmp_trace="$(mktemp /tmp/trace-smoke.XXXXXX.jsonl)"
trap 'rm -f "$tmp_json" "$tmp_trace"' EXIT
cargo run --offline --release -p experiments --bin repro -- \
    --trace "$tmp_trace" --quick > /dev/null
python3 - "$tmp_trace" <<'PY'
import json, sys
path = sys.argv[1]
lines = open(path).read().splitlines()
if not lines:
    sys.exit("verify.sh: trace file is empty")
decisions = 0
for i, line in enumerate(lines):
    try:
        ev = json.loads(line)
    except Exception as e:
        sys.exit(f"verify.sh: trace line {i + 1} is not valid JSON: {e}")
    if "t_us" not in ev or "ev" not in ev:
        sys.exit(f"verify.sh: trace line {i + 1} lacks t_us/ev: {line[:80]}")
    if ev["ev"] == "sched_decision":
        decisions += 1
        for field in ("sched", "decision", "why", "queued_pkts", "paths"):
            if field not in ev:
                sys.exit(f"verify.sh: sched_decision line {i + 1} lacks {field}")
        if not ev["paths"] or "srtt_us" not in ev["paths"][0]:
            sys.exit(f"verify.sh: sched_decision line {i + 1} lacks path inputs")
if decisions == 0:
    sys.exit("verify.sh: trace has no sched_decision events")
print(f"verify.sh: trace ok ({len(lines)} events, {decisions} decisions)")
PY

echo "== scenario dynamics smoke (dyn_handover, quick) =="
# --no-save: the committed results/dyn_handover.txt is the full-effort run.
dyn_out="$(cargo run --offline --release -p experiments --bin repro -- dyn_handover --quick --no-save)"
echo "$dyn_out" | grep -q "outage_s" \
    || { echo "verify.sh: dyn_handover output lacks the ladder header" >&2; exit 1; }
echo "$dyn_out" | grep -q "ladder means: default=" \
    || { echo "verify.sh: dyn_handover output lacks the summary line" >&2; exit 1; }
[ -s results/dyn_handover.txt ] \
    || { echo "verify.sh: results/dyn_handover.txt missing or empty" >&2; exit 1; }

echo "== quic transport smoke (quic_web, quick) =="
# --no-save: the committed results/quic_web.txt is the full-effort run.
# Exercises the second transport end to end: 107 streams on one MPQUIC
# connection through the same scheduler seam as MPTCP, both transports in
# one report.
quic_out="$(cargo run --offline --release -p experiments --bin repro -- quic_web --quick --no-save)"
echo "$quic_out" | grep -q "107-object page" \
    || { echo "verify.sh: quic_web output lacks the comparison header" >&2; exit 1; }
for col in "plt_s" "ooo_p99_s"; do
    echo "$quic_out" | grep -q "$col" \
        || { echo "verify.sh: quic_web output lacks the $col column" >&2; exit 1; }
done
for transport in "quic" "mptcp"; do
    echo "$quic_out" | grep -Eq "^ *$transport  " \
        || { echo "verify.sh: quic_web output lacks $transport rows" >&2; exit 1; }
done
[ -s results/quic_web.txt ] \
    || { echo "verify.sh: results/quic_web.txt missing or empty" >&2; exit 1; }

echo "== coupled co-sim smoke (repro sweep --coupled, quick) =="
# A shared-bottleneck population must actually span engine groups in
# lockstep (DESIGN.md §13): the run reports its lookahead window and
# sync-round/boundary-message telemetry, and every unit still finishes.
coupled_out="$(cargo run --offline --release -p experiments --bin repro -- \
    sweep --coupled --quick 2>/dev/null)"
for field in "window:" "sync rounds:" "boundary:" "digest:"; do
    echo "$coupled_out" | grep -q "$field" \
        || { echo "verify.sh: coupled sweep output lacks $field" >&2; exit 1; }
done
shards="$(echo "$coupled_out" | awk '/^shards:/ {print $2}')"
[ "${shards:-0}" -ge 2 ] \
    || { echo "verify.sh: coupled sweep ran on $shards engine group(s)," \
         "expected >= 2 (co-sim did not engage)" >&2; exit 1; }
rounds="$(echo "$coupled_out" | awk '/^sync rounds:/ {print $3}')"
[ "${rounds:-0}" -ge 1 ] \
    || { echo "verify.sh: coupled sweep reports no sync rounds" >&2; exit 1; }
echo "verify.sh: coupled co-sim smoke ok ($shards groups, $rounds rounds)"

echo "== experiment-matrix smoke (repro matrix, quick, twice) =="
# Cold run into a throwaway cache, then a warm re-run: the second pass must
# be 100% cache hits (0 executed) and byte-identical — the determinism +
# caching contract of crates/experiments/src/expmatrix.
matrix_cache="$(mktemp -d /tmp/matrix-smoke.XXXXXX)"
trap 'rm -f "$tmp_json" "$tmp_trace"; rm -rf "$matrix_cache"' EXIT
matrix_spec="crates/experiments/specs/smoke.json"
cold_out="$(mktemp /tmp/matrix-cold.XXXXXX.txt)"
warm_out="$(mktemp /tmp/matrix-warm.XXXXXX.txt)"
warm_err="$(mktemp /tmp/matrix-warm.XXXXXX.err)"
trap 'rm -f "$tmp_json" "$tmp_trace" "$cold_out" "$warm_out" "$warm_err"; rm -rf "$matrix_cache"' EXIT
cargo run --offline --release -p experiments --bin repro -- \
    matrix "$matrix_spec" --quick --no-save --cache-dir "$matrix_cache" \
    > "$cold_out"
cargo run --offline --release -p experiments --bin repro -- \
    matrix "$matrix_spec" --quick --no-save --cache-dir "$matrix_cache" \
    > "$warm_out" 2> "$warm_err"
grep -q "0 misses (0 invalid), executed 0" "$warm_err" \
    || { echo "verify.sh: warm matrix run was not 100% cache hits:" >&2; \
         cat "$warm_err" >&2; exit 1; }
cmp -s "$cold_out" "$warm_out" \
    || { echo "verify.sh: warm matrix output differs from cold run" >&2; exit 1; }
echo "verify.sh: matrix smoke ok (warm run: 100% hits, output unchanged)"

echo "== benchmark of record: quick bodies (digests, completeness, cross-mode equality) =="
# Seconds, not a measurement: each workload's quick body must reproduce its
# digest pinned in benchmark/expected.json, complete every cell/unit/page,
# and agree across modes (sharded == one engine, coupled == its monolith);
# the harness exits non-zero otherwise. An engine change that moves a
# benchmark digest therefore fails here, before the driver finds it.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --quick > /dev/null

echo "verify.sh: all green"
