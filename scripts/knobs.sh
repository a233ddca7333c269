#!/usr/bin/env bash
# Config knobs now vs <rev>: the `pub` fields of every `pub struct *Config`
# in crates/*/src, up to each file's `#[cfg(test)]` line (the split
# scripts/loc.sh makes). A field that only ever holds its default is a
# constant waiting to happen; this is the count a change reports beside
# its line count. Untracked files count as "now".
#
# Usage: scripts/knobs.sh [<rev>]   (without <rev>, prints only the count now)
set -euo pipefail
cd "$(dirname "$0")/.."
# stdin: paths; $@: command printing one path's contents. Prints the count.
tally() {
    while read -r f; do
        "$@" "$f" | awk '
            /^#\[cfg\(test\)\]/ {tests = 1}
            tests {next}
            /^pub struct [A-Za-z0-9_]*Config[ <{].*\{$/ {in_cfg = 1; next}
            in_cfg && /^}/ {in_cfg = 0}
            in_cfg && /^    pub [a-z_][a-z0-9_]*:/ {n++}
            END {print n + 0}'
    done | awk '{s += $1} END {print s + 0}'
}
now="$(git ls-files -co --exclude-standard -- 'crates/*/src/*' | grep '\.rs$' \
    | while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done | tally cat)"
if [ $# -eq 0 ]; then
    echo "config fields (pub fields of pub struct *Config, crates/*/src): $now"
    exit 0
fi
rev="$1"
at_rev() { git show "$rev:$1"; }
before="$(git ls-tree -r --name-only "$rev" -- crates | grep '^crates/[^/]*/src/.*\.rs$' \
    | tally at_rev)"
echo "config fields (pub fields of pub struct *Config, crates/*/src): $before -> $now" \
    "(net $((now - before)))"
