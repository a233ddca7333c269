#!/usr/bin/env bash
# The benchmark checks itself: offline build, the quick-size runs, the
# honesty tests, then two full sets of runs of this commit through `agree`
# (host-time metrics within their bounds, simulated time and exact counts
# bit-equal, nothing failed). About ten minutes on the reference box.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
bench=(cargo run --release --offline --quiet --manifest-path "$manifest" --)

cargo build --release --offline --manifest-path "$manifest"
"${bench[@]}" run --quick
"${bench[@]}" trace --quick
cargo test --release --offline --manifest-path "$manifest"

for set in a b; do
    "${bench[@]}" run --seed 1 --out "benchmark/out/run-$set.json"
    "${bench[@]}" trace --seed 1 --out "benchmark/out/trace-$set.json"
done
"${bench[@]}" agree benchmark/out/run-a.json benchmark/out/run-b.json
"${bench[@]}" agree benchmark/out/trace-a.json benchmark/out/trace-b.json
echo "selfcheck: ok"
