#!/usr/bin/env bash
# Mutation check: for each mutant of scripts/mutants.txt (or only the named
# ones), copy the working tree into a temp dir, apply the mutant's one edit,
# build and run the workspace tests in release, and print `killed` with the
# tests that failed, or `survived`. A mutant whose edit does not apply (its
# `from:` text is not in the file exactly once) prints `stale`; one whose
# tree does not compile prints `killed (build)`. Exits non-zero if any
# mutant survived or is stale. Every mutant's copy lands at the same path
# and shares one target dir, so only the first build is cold (~10 min on 2
# cores); each later mutant rebuilds the crates its edit reaches, then runs
# the tests (~4 min). Writes nothing into the repo. Run on demand; it is
# not a scripts/verify.sh step.
#
# Usage: scripts/mutants.sh [<name>...]
set -euo pipefail
cd "$(dirname "$0")/.."
list=scripts/mutants.txt

# One mutant per line: name<TAB>file<TAB>from<TAB>to<TAB>rule.
mutants="$(awk '
    function flush() {
        if (name != "") print name "\t" file "\t" from "\t" to "\t" rule
        name = file = from = to = rule = ""
    }
    /^#/ { next }
    /^[[:space:]]*$/ { flush(); next }
    {
        key = $0; sub(/:.*/, "", key)
        val = $0; sub(/^[a-z]+: ?/, "", val)
        if (key == "name") name = val
        else if (key == "file") file = val
        else if (key == "from") from = val
        else if (key == "to") to = val
        else if (key == "rule") rule = val
        else { print "mutants.txt: unknown key " key > "/dev/stderr"; exit 2 }
    }
    END { flush() }
' "$list")"

declare -A wanted=()
for want in "$@"; do
    if ! awk -F'\t' -v w="$want" '$1 == w { found = 1 } END { exit !found }' <<<"$mutants"; then
        echo "unknown mutant: $want (see $list)" >&2
        exit 2
    fi
    wanted[$want]=1
done

tmp="$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
tree="$tmp/tree"
export CARGO_TARGET_DIR="$tmp/target"
stale_built=() failed=0
while IFS=$'\t' read -r name file from to rule; do
    if [ $# -gt 0 ] && [ -z "${wanted[$name]:-}" ]; then
        continue
    fi
    # A fresh copy that keeps every file's mtime, so cargo rebuilds only
    # what the edit reaches. A file an earlier mutant edited is touched
    # until a build has seen it restored: its restored text is older than
    # the build made from the mutant.
    rm -rf "$tree"
    mkdir -p "$tree"
    git ls-files -co --exclude-standard -z | while IFS= read -r -d '' f; do
        [ -f "$f" ] && printf '%s\0' "$f"
    done | xargs -0 cp -p --parents -t "$tree"
    for f in "${stale_built[@]}"; do touch "$tree/$f"; done
    stale_built+=("$file")

    if ! FROM="$from" TO="$to" perl -0777 -i -pe '
        my $n = () = /\Q$ENV{FROM}\E/g;
        die "found $n times\n" unless $n == 1;
        s/\Q$ENV{FROM}\E/$ENV{TO}/;
    ' "$tree/$file" 2>"$tmp/apply.err"; then
        printf '%-26s stale  %s: `%s` %s' "$name" "$file" "$from" "$(cat "$tmp/apply.err")"
        echo
        failed=1
        continue
    fi

    log="$tmp/$name.log"
    stale_built=("$file")
    status=0
    (cd "$tree" && cargo test --workspace --release --offline --no-fail-fast) </dev/null >"$log" 2>&1 \
        || status=$?
    if [ "$status" -eq 0 ]; then
        printf '%-26s survived  (%s)\n' "$name" "$rule"
        failed=1
    elif ! grep -q '^     Running ' "$log"; then
        printf '%-26s killed (build)\n' "$name"
        grep -m3 '^error' "$log" | sed 's/^/    /'
    else
        # `Running [unittests] <src> (<exe>)` names the test binary (its
        # exe minus the hash, and its source), `test <name> ... FAILED` the
        # test; a failed doctest runs under `Doc-tests <crate>`.
        killers="$(awk '
            /^     Running / {
                src = ($2 == "unittests") ? $3 : $2
                exe = $NF; gsub(/[()]/, "", exe); sub(/.*\//, "", exe); sub(/-[0-9a-f]+$/, "", exe)
                bin = exe ":" src
            }
            /^   Doc-tests / { bin = "doc:" $2 }
            /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print "    " bin "::" $0 }
        ' "$log")"
        if [ -n "$killers" ]; then
            printf '%-26s killed by %d test(s)\n' "$name" "$(grep -c . <<<"$killers")"
            echo "$killers"
        else
            printf '%-26s killed (tests exited %d)\n' "$name" "$status"
            tail -n3 "$log" | sed 's/^/    /'
        fi
    fi
done <<<"$mutants"
exit "$failed"
