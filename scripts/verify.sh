#!/usr/bin/env bash
# Standard pre-PR gate: the tier-1 verify plus lint, the experiment smokes
# and the benchmark of record's quick bodies — all fully offline (the
# hermetic-build policy in DESIGN.md — no crates.io dependency anywhere, so
# --offline must always succeed). It decides correctness only: speed is a
# relative, paired measurement (scripts/ab.sh), not a gate against a
# committed number.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== lint: clippy on every target (tests, examples, bins), warnings are errors (offline) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== docs: rustdoc, warnings are errors (offline) =="
# A public doc that links to a private item (or to nothing) fails here: a
# demoted item takes its doc links with it.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "== format: the tree is rustfmt-clean (rustfmt.toml) =="
cargo fmt --all -- --check

echo "== one testbed skeleton: the drain loop and apply_control live in one file =="
# Two transports, one harness (DESIGN.md §12). A second file matching either
# marker is a second copy of the skeleton growing back. (`Action::RateBps`
# would also match the scenario rewriter in experiments/src/common.rs.)
for marker in 'claim_dispatch' 'Action::PathUp'; do
    n="$(grep -rl "$marker" crates/mptcp/src crates/quic/src crates/experiments/src | wc -l)"
    [ "$n" -eq 1 ] || { echo "verify.sh: '$marker' matches $n files under" \
        "crates/{mptcp,quic,experiments}/src, expected exactly 1" >&2; exit 1; }
done

echo "== one sweep run loop: the lockstep executor's advance is the only run_until =="
# Every population runs on cosim::CoupledRun (DESIGN.md §11, §13); an
# uncoupled shard is one lockstep round at the horizon. A second
# `run_until(` in the non-test part of sharding.rs + cosim.rs (up to each
# file's `#[cfg(test)]`, as scripts/loc.sh splits them) is a second run
# loop growing back.
n="$(for f in crates/experiments/src/sharding.rs crates/experiments/src/cosim.rs; do
    awk '/^#\[cfg\(test\)\]/ {exit} {print}' "$f"; done | grep -o 'run_until(' | wc -l)"
[ "$n" -eq 1 ] || { echo "verify.sh: run_until( appears $n times in the non-test part of" \
    "crates/experiments/src/{sharding,cosim}.rs, expected exactly 1" >&2; exit 1; }

echo "== one reorder buffer: both transports' receivers hold out-of-order data in ReorderRing =="
# Both MPTCP reassembly levels and every QUIC stream park out-of-order data
# in `mptcp::ReorderRing` (DESIGN.md §7, §12). A `BTreeMap` in the non-test
# part of crates/{mptcp,quic}/src (up to each file's `#[cfg(test)]`, as
# scripts/loc.sh splits them), or `VecDeque<Option<` in a second file there,
# is a second reorder buffer growing back.
nontest_rx() {
    for f in crates/mptcp/src/*.rs crates/quic/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} {print f ": " $0}' "$f"
    done
}
maps="$(nontest_rx | grep 'BTreeMap' | cut -d: -f1 | sort -u || true)"
[ -z "$maps" ] || { echo "verify.sh: BTreeMap is named in the non-test part of:" \
    $maps >&2; exit 1; }
rings="$(nontest_rx | { grep -F 'VecDeque<Option<' || true; } | cut -d: -f1 | sort -u)"
[ "$(echo "$rings" | grep -c .)" -le 1 ] || { echo "verify.sh: VecDeque<Option< appears" \
    "in more than one file under crates/{mptcp,quic}/src:" $rings >&2; exit 1; }

echo "== one scheduler decision method: schedulers implement select_explained only =="
# `Scheduler::select` is a provided method, the verdict of `select_explained`
# without its provenance (DESIGN.md §2). A `fn select(` in the non-test part
# of crates/core/src outside types.rs (up to each file's `#[cfg(test)]`, as
# scripts/loc.sh splits them) is a second decision path growing back.
selects="$(for f in crates/core/src/*.rs; do
    [ "$f" = crates/core/src/types.rs ] \
        || awk -v f="$f" '/^#\[cfg\(test\)\]/ {exit} /fn select\(/ {print f}' "$f"
done | sort -u)"
[ -z "$selects" ] || { echo "verify.sh: fn select( is defined in the non-test part of:" \
    $selects >&2; exit 1; }

echo "== one OOO reader: single runs take the recorder's pool, none copies it =="
# `Recorder::take_ooo_secs` hands the samples over in place (DESIGN.md §9,
# "A streaming cell"); `ooo_delays_secs` copies them beside the pool and
# stays only for the benchmark's traced runner (benchmark/ is not searched).
copiers="$(grep -rl 'ooo_delays_secs(' crates src examples tests \
    | grep -vx 'crates/mptcp/src/trace.rs' || true)"
[ -z "$copiers" ] || { echo "verify.sh: ooo_delays_secs( is called outside" \
    "crates/mptcp/src/trace.rs, in:" $copiers >&2; exit 1; }

echo "== one sweep digest: merged reports are never re-digested =="
# The sweep merge folds each unit's request summaries into the digest and
# drops them (DESIGN.md §11), so `digest_units` over a merged report's units
# gives a different number than its `digest`. Only hand-built reports may
# be digested that way: sharding.rs's own tests and the benchmark's traced
# runner (benchmark/ is not searched).
digesters="$(grep -rl 'digest_units(' crates src examples tests \
    | grep -vx 'crates/experiments/src/sharding.rs' || true)"
[ -z "$digesters" ] || { echo "verify.sh: digest_units( is called outside" \
    "crates/experiments/src/sharding.rs, in:" $digesters >&2; exit 1; }

echo "== no unsafe: every crate root forbids it =="
# The compiler enforces "no unsafe" only where a crate root says so.
for root in src/lib.rs crates/*/src/lib.rs crates/*/src/bin/*.rs; do
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" \
        || { echo "verify.sh: $root lacks #![forbid(unsafe_code)]" >&2; exit 1; }
done

echo "== memory guards: RSS growth over live bytes, bytes requested and live (release) =="
# Both pass or fail in the workspace tests above too (debug); the release
# run is the allocator pattern the benchmark of record sees, and the ratio,
# the bytes a sweep keeps per unit and the five footprint readings (among
# them what the coupled body holds after its last window) are
# printed so a drift towards a bound shows before it trips. Beside them,
# the coupled body's recorder pools: OOO entries per sample (a zero run is
# one entry) and slots per entry (the growth rule's slack).
mem_out="$(cargo test --release --offline -p experiments --test rss --test footprint \
    -- --nocapture 2>&1)" || { echo "$mem_out" >&2; exit 1; }
echo "$mem_out" | grep -E "rss growth|live per unit|requested|last window|streaming:" || true
pool_out="$(cargo test --release --offline -p experiments --lib -- --nocapture \
    recorder_pools_hold_bounded_slack report_vectors_are_exact_sized 2>&1)" \
    || { echo "$pool_out" >&2; exit 1; }
echo "$pool_out" | grep "coupled pools:"
# The engine's per-connection records, pinned in mptcp::trace's tests, and
# the object record every unit report keeps one of per object, pinned in
# sharding's: a widening shows here in every log before it moves a peak.
rec_out="$(cargo test --release --offline -p mptcp --lib \
    engine_records_are_at_their_information_size -- --nocapture 2>&1)" \
    || { echo "$rec_out" >&2; exit 1; }
echo "$(echo "$rec_out" | grep "records:") $(echo "$pool_out" | grep -o "object=[0-9]*")"

echo "== config knobs: pub fields of pub struct *Config =="
# Printed, not gated: a field that only ever holds its default should be a
# constant (scripts/knobs.sh <rev> compares against a revision).
scripts/knobs.sh

echo "== pub surface: every pub item is named outside its crate's library =="
# scripts/pubs.sh prints the non-test pub items per crate (<rev> compares),
# then fails on any pub item no code outside its crate's library names —
# another crate, the crate's own tests/ or src/bin/, the facade src/,
# examples/ or benchmark/ — nor a used item's signature. Such an item is
# crate-local: pub(crate) or private says so, and rustc's dead_code lint
# then sees it.
#
# The benchmark-only items pubs.sh counts, pub only because benchmark/ names
# them; kept while benchmark/ is frozen, to go with it:
#   experiments: BW_SET, parallel_map_workers, QUIC_WEB_SCHEDULERS,
#     browse_10k_coupled, digest_units, web::CONFIGS
#   mptcp: Connection::server_write, Receiver::take_delayed_ack,
#     Subflow::register_send, Recorder::ooo_delays_secs
#   testkit: digest::from_hex16, Rng::next_u64
#   telemetry: the field PathObs::queue_bytes, always written 0 (no
#     transport samples its queues), because benchmark/src/rigs.rs builds a
#     PathObs field by field
# and two the name scan cannot tell apart, because the other transport has
# a method of the same name: Connection::try_send_into with Transmission
# (mptcp), QuicConn::try_send_into with QuicTx (quic).
scripts/pubs.sh
scripts/pubs.sh --check

echo "== every registered experiment, Full, through the CLI: results/ must not drift =="
# `repro all` writes results/<name>.txt relative to its working directory,
# so it runs in a throwaway one with a throwaway cache (a developer's
# .expcache/ would serve cells without executing them). Every report it
# writes must equal the committed file byte for byte, and it must write
# every committed file: a change that moves a figure regenerates its
# results/*.txt in the same commit. About 45 s on 2 cores.
all_dir="$(mktemp -d "${TMPDIR:-/tmp}"/repro-all.XXXXXX)"
trap 'rm -rf "$all_dir"' EXIT
all_cache="$all_dir/cache"
manifest="$PWD/Cargo.toml"
repro_all() {
    (cd "$all_dir" && cargo run --offline --release --manifest-path "$manifest" \
        -p experiments --bin repro -- all --cache-dir "$all_cache" "$@")
}
repro_all > /dev/null 2> "$all_dir/cold.err" \
    || { cat "$all_dir/cold.err" >&2; exit 1; }
diff <(cd "$all_dir/results" && ls) <(cd results && ls) > /dev/null \
    || { echo "verify.sh: repro all writes a different set of reports than results/ holds:" >&2; \
         diff <(cd "$all_dir/results" && ls) <(cd results && ls) >&2; exit 1; }
drift=""
for f in results/*.txt; do
    cmp -s "$f" "$all_dir/$f" || drift="$drift $f"
done
[ -z "$drift" ] || { echo "verify.sh: repro all drifted from the committed$drift" >&2; exit 1; }

echo "== repro all again on the same cache: every cell is a hit =="
repro_all --no-save > /dev/null 2> "$all_dir/warm.err" \
    || { cat "$all_dir/warm.err" >&2; exit 1; }
summaries="$(grep -c '^matrix ' "$all_dir/warm.err" || true)"
[ "$summaries" -eq "$(ls results | wc -l)" ] \
    || { echo "verify.sh: warm repro all printed $summaries matrix summaries" >&2; exit 1; }
not_warm="$(grep '^matrix ' "$all_dir/warm.err" | grep -v ', executed 0$' || true)"
[ -z "$not_warm" ] || { echo "verify.sh: warm repro all executed cells:" >&2; \
    echo "$not_warm" >&2; exit 1; }
echo "verify.sh: repro all ok ($summaries reports equal results/, warm run executed 0 cells)"

echo "== telemetry trace smoke (repro trace --trace DIR, quick) =="
# --no-save: results/trace.txt is the Full report. A traced run executes
# its cell whatever the cache holds and writes DIR/<spec>-<cell>.jsonl plus
# DIR/<spec>-<cell>.counters.
trace_dir="$all_dir/traces"
cargo run --offline --release -p experiments --bin repro -- \
    trace --quick --no-save --cache-dir "$all_cache" --trace "$trace_dir" > /dev/null
python3 - "$trace_dir/trace-0.jsonl" "$trace_dir/trace-0.counters" <<'PY'
import json, sys
path, counters_path = sys.argv[1], sys.argv[2]
counters = dict(l.split("=", 1) for l in open(counters_path).read().splitlines() if "=" in l)
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
# Completeness: the log holds every decision the counters saw.
if counters.get("events_overflowed") != "0":
    sys.exit(f"verify.sh: trace lost events: events_overflowed={counters.get('events_overflowed')}")
if counters.get("decisions") != str(decisions):
    sys.exit(f"verify.sh: {decisions} sched_decision lines, but decisions={counters.get('decisions')}")
print(f"verify.sh: trace ok ({len(lines)} events, {decisions} decisions)")
PY

echo "== scenario dynamics smoke (dyn_handover, quick) =="
# --no-save: results/dyn_handover.txt is the Full report.
dyn_out="$(cargo run --offline --release -p experiments --bin repro -- \
    dyn_handover --quick --no-save --cache-dir "$all_cache")"
echo "$dyn_out" | grep -q "outage_s" \
    || { echo "verify.sh: dyn_handover output lacks the ladder header" >&2; exit 1; }
echo "$dyn_out" | grep -q "ladder means: default=" \
    || { echo "verify.sh: dyn_handover output lacks the summary line" >&2; exit 1; }
[ -s results/dyn_handover.txt ] \
    || { echo "verify.sh: results/dyn_handover.txt missing or empty" >&2; exit 1; }

echo "== quic transport smoke (quic_web, quick) =="
# --no-save: results/quic_web.txt is the Full report.
# Exercises the second transport end to end: 107 streams on one MPQUIC
# connection through the same scheduler seam as MPTCP, both transports in
# one report.
quic_out="$(cargo run --offline --release -p experiments --bin repro -- \
    quic_web --quick --no-save --cache-dir "$all_cache")"
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

echo "== coupled co-sim smoke (coupled_browse, quick) =="
# --no-save: results/coupled_browse.txt is the Full report. A
# shared-bottleneck population must actually span engine groups in lockstep
# (DESIGN.md §13): every row reports >= 2 groups and >= 1 sync round, and
# every unit still loads its page.
coupled_out="$(cargo run --offline --release -p experiments --bin repro -- \
    coupled_browse --quick --no-save --cache-dir "$all_cache" 2>/dev/null)"
# Columns are found by their header names, so a column added to or dropped
# from the report cannot shift the checks onto the wrong numbers.
echo "$coupled_out" | awk '
    $1 == "units" { for (i = 1; i <= NF; i++) col[$i] = i; cols = NF; next }
    /^-+$/ {table = 1; next}
    table && NF == cols {
        rows++
        u = $col["units"]; g = $col["groups"]; p = $col["pages"]; r = $col["rounds"]
        if (g < 2) { print "verify.sh: coupled_browse ran " u " units on " g \
            " engine group(s), expected >= 2 (co-sim did not engage)"; bad = 1 }
        if (r < 1) { print "verify.sh: coupled_browse reports no sync rounds for " u " units"; bad = 1 }
        if (p != u) { print "verify.sh: coupled_browse loaded " p " of " u " pages"; bad = 1 }
        groups = g; rounds = r
    }
    END {
        if (rows == 0) { print "verify.sh: coupled_browse printed no population rows"; exit 1 }
        if (bad) exit 1
        print "verify.sh: coupled co-sim smoke ok (" rows " populations, last: " groups " groups, " rounds " rounds)"
    }'

echo "== experiment-matrix smoke (repro matrix, quick, twice) =="
# Cold run into a throwaway cache, then a warm re-run: the second pass must
# be 100% cache hits (0 executed) and byte-identical — the determinism +
# caching contract of crates/experiments/src/expmatrix.
matrix_cache="$(mktemp -d "${TMPDIR:-/tmp}"/matrix-smoke.XXXXXX)"
trap 'rm -rf "$all_dir" "$matrix_cache"' EXIT
matrix_spec="crates/experiments/specs/smoke.json"
cold_out="$(mktemp "${TMPDIR:-/tmp}"/matrix-cold.XXXXXX.txt)"
warm_out="$(mktemp "${TMPDIR:-/tmp}"/matrix-warm.XXXXXX.txt)"
warm_err="$(mktemp "${TMPDIR:-/tmp}"/matrix-warm.XXXXXX.err)"
trap 'rm -f "$cold_out" "$warm_out" "$warm_err"; rm -rf "$all_dir" "$matrix_cache"' EXIT
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

echo "== benchmark of record: lib and tests still compile against these crates =="
# benchmark/ is frozen to a PR that claims a gain and the run above builds
# only its bin; a crate change that breaks what its lib or tests use (a
# struct literal, a field's type) must fail here, not in the pipeline.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --no-run

echo "verify.sh: all green"
