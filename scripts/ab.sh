#!/usr/bin/env bash
# Paired A/B of two committed revisions on the benchmark of record: export
# and build each one's benchmark/ in a temp dir, run N pairs in the
# BENCHMARK.json driver form (one seed per pair, first side alternating) and
# print, per workload x end-to-end metric, both medians, the delta, how many
# pairs <rev-b> won, both sides' inter-quartile ranges and each side's best run
# (a side's fastest run repeats far better than its median on a box whose
# medians drift between sessions; it informs, it decides nothing). Each
# workload also gets a `cpu_us_per_op` row: the run's child CPU time (user +
# sys, from getrusage(RUSAGE_CHILDREN) around it) over its attempted
# operations, a diagnostic beside the BENCHMARK.json metrics, under the same
# verdict rule (an A/A run is `ab.sh --aa REV`, shorthand for `ab.sh REV
# REV`). `resolved` needs >= 10 pairs, one side winning >= 9/10 of them and
# a median gap wider than the IQR of either side (an A/A run resolved a
# time metric that way while the gap was within one side's IQR only);
# `equal` means every pair tied (simulated-time metrics);
# everything else is `unresolved` — the box drifts 10-20 % in 10-60 s
# phases. Exits non-zero if any run is incorrect or has failures. Writes
# nothing into the repo. 2 x N x workloads x ~27 s (~36 min at defaults).
#
# --ledger runs `benchmark trace --workload W` once per side instead and
# prints the per-layer counts that are exact functions of config and seed —
# simnet.engine.events, core.decide.calls, cosim.rounds,
# cosim.boundary_msgs — as `equal`, `fewer` or `more` (b against a): a
# change that claims to move only memory or time must read `equal`.
# Allocation counts are left out until an A/A run shows they are exact too.
# 2 x workloads x ~15 s.
#
# Usage: scripts/ab.sh <rev-a> <rev-b> [--pairs N | --ledger] [--workload W]...
#        scripts/ab.sh --aa <rev> [--pairs N | --ledger] [--workload W]...
set -euo pipefail
cd "$(dirname "$0")/.."
usage() {
    echo "usage: scripts/ab.sh {<rev-a> <rev-b> | --aa <rev>} [--pairs N | --ledger]" \
        "[--workload W]..." >&2
    exit 2
}
[ $# -ge 2 ] || usage
if [ "$1" = --aa ]; then
    revs=("$2" "$2")
else
    revs=("$1" "$2")
fi
shift 2
pairs=10 workloads="" ledger=0
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a number}"; shift 2 ;;
        --workload) workloads+=" ${2:?--workload needs a name}"; shift 2 ;;
        --ledger) ledger=1; shift ;;
        *) usage ;;
    esac
done

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
for i in 0 1; do
    mkdir "$tmp/src$i"
    git archive "${revs[$i]}" | tar -x -C "$tmp/src$i"
    (cd "$tmp/src$i" && cargo build --release --offline --manifest-path benchmark/Cargo.toml)
    cp "$tmp/src$i/benchmark/target/release/benchmark" "$tmp/bench$i"
done

if [ "$ledger" -eq 1 ]; then
python3 - "$tmp" $workloads <<'PY'
import json, subprocess, sys
tmp, names = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
names = names or [w["name"] for w in spec["workloads"]]
exact = ["simnet.engine.events", "core.decide.calls", "cosim.rounds", "cosim.boundary_msgs"]
bad = False
rows = []
for w in names:
    got = []
    for side in (0, 1):
        print(f"ab.sh: {w} trace side {'ab'[side]}", file=sys.stderr)
        out = subprocess.run([f"{tmp}/bench{side}", "trace", "--workload", w],
                             cwd=tmp, stdout=subprocess.PIPE, text=True).stdout
        res = json.loads(out.splitlines()[-1])
        if not res["correct"] or res["failed"] > 0:
            print(f"ab.sh: BAD RUN {w} side {'ab'[side]}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
            bad = True
        got.append(res["metrics"])
    for m in exact:
        a, b = (got[side][m]["value"] for side in (0, 1))
        rows.append((w, m, a, b, "equal" if a == b else "fewer" if b < a else "more"))
print(f"{'workload':<15} {'metric':<22} {'a':>14} {'b':>14}  verdict")
for w, m, a, b, verdict in rows:
    print(f"{w:<15} {m:<22} {a:>14.0f} {b:>14.0f}  {verdict}")
sys.exit(1 if bad else 0)
PY
exit
fi

python3 - "$tmp" "$pairs" $workloads <<'PY'
import json, resource, statistics, subprocess, sys
tmp, pairs, names = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
names = names or [w["name"] for w in spec["workloads"]]
verb = spec["command"][spec["command"].index("--") + 1:]
got = {}  # (workload, metric) -> ([a values], [b values])
bad = False
def child_cpu_s():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime
for w in names:
    for pair in range(pairs):
        for side in ((0, 1), (1, 0))[pair % 2]:
            print(f"ab.sh: {w} pair {pair + 1}/{pairs} side {'ab'[side]}", file=sys.stderr)
            cpu_before = child_cpu_s()
            out = subprocess.run(
                [f"{tmp}/bench{side}", *verb, "--workload", w, "--seed", str(101 + pair),
                 "--seconds", str(spec["run_seconds"])],
                cwd=tmp, stdout=subprocess.PIPE, text=True).stdout
            cpu_s = child_cpu_s() - cpu_before
            res = json.loads(out.splitlines()[-1])
            if not res["correct"] or res["failed"] > 0:
                print(f"ab.sh: BAD RUN {w} side {'ab'[side]}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
                bad = True
            for m in spec["end_to_end"]:
                got.setdefault((w, m["name"]), ([], []))[side].append(
                    res["metrics"][m["name"]]["value"])
            got.setdefault((w, "cpu_us_per_op"), ([], []))[side].append(
                cpu_s * 1e6 / max(res["attempted"], 1))
lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
lower["cpu_us_per_op"] = True
def iqr(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[2] - q[0]
print(f"{'workload':<15} {'metric':<13} {'median a':>12} {'median b':>12} {'delta':>8} "
      f"{'b wins':>7} {'IQR a':>10} {'IQR b':>10} {'best a':>12} {'best b':>12}  verdict")
for (w, m), (a, b) in got.items():
    med_a, med_b = statistics.median(a), statistics.median(b)
    iqr_a, iqr_b = iqr(a), iqr(b)
    wins = sum((y < x) if lower[m] else (y > x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    if ties == pairs:
        verdict = "equal"
    elif (pairs >= 10 and max(wins, pairs - ties - wins) >= 0.9 * pairs
          and abs(med_b - med_a) > max(iqr_a, iqr_b)):
        verdict = "resolved"
    else:
        verdict = "unresolved"
    delta = (med_b - med_a) / med_a * 100 if med_a else 0.0
    best = min if lower[m] else max
    print(f"{w:<15} {m:<13} {med_a:>12.6g} {med_b:>12.6g} {delta:>+7.1f}% "
          f"{wins:>4}/{pairs:<2} {iqr_a:>10.3g} {iqr_b:>10.3g} {best(a):>12.6g} {best(b):>12.6g}"
          f"  {verdict}")
sys.exit(1 if bad else 0)
PY
