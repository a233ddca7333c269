#!/usr/bin/env bash
# Lines of Rust now vs <rev>, the figure every PR reports in CHANGES.md:
# `src` is crates/*/src up to each file's `#[cfg(test)]` line, `tests` is
# everything after that line plus crates/*/tests and tests/. Prints
# before -> after (net) per class, then git's raw +added/-removed under
# crates/*/src (test modules included). Untracked files count as "now".
#
# Usage: scripts/loc.sh <rev>
set -euo pipefail
cd "$(dirname "$0")/.."
rev="${1:?usage: scripts/loc.sh <rev>}"
# stdin: paths; $@: command printing one path's contents. Prints "src tests".
tally() {
    while read -r f; do
        "$@" "$f" | awk -v t="$([[ $f == crates/*/src/* ]] && echo 0 || echo 1)" \
            '/^#\[cfg\(test\)\]/ {t = 1} {n[t]++} END {print n[0] + 0, n[1] + 0}'
    done | awk '{s += $1; t += $2} END {print s + 0, t + 0}'
}
at_rev() { git show "$rev:$1"; }
read -r s0 t0 < <(git ls-tree -r --name-only "$rev" -- crates tests | grep '\.rs$' | tally at_rev)
read -r s1 t1 < <(git ls-files -co --exclude-standard -- crates tests | grep '\.rs$' \
    | while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done | tally cat)
echo "src   (crates/*/src, non-test): $s0 -> $s1 (net $((s1 - s0)))"
echo "tests (#[cfg(test)] + tests/):  $t0 -> $t1 (net $((t1 - t0)))"
git diff --numstat "$rev" -- 'crates/*/src/*' | awk '{a += $1; r += $2} END {print "crates/*/src raw: +" a + 0 " -" r + 0}'
