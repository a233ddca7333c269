#!/usr/bin/env bash
# The `pub` surface now vs <rev>: every `pub fn/struct/enum/trait/type/const/
# static` item (methods included) in a crate library (crates/*/src outside
# src/bin/), up to each file's `#[cfg(test)]` line (the split scripts/loc.sh
# makes), counted per crate.
#
# A name scan (identifiers in code, not in comments or strings) sorts the
# items by who needs them `pub`. An item is *used* when code outside its
# crate's library names it — another crate, the crate's own tests/ or
# src/bin/, the facade src/, examples/ — or when the signature of a used item
# of its crate names it (a type a used method returns stays `pub` with that
# method). It is *benchmark-only* when only benchmark/ makes it used, and
# *crate-local* otherwise.
#
# `--check` is the gate scripts/verify.sh runs: it names every crate-local
# item and exits 1 if there is one. `pub(crate)` or private says what such
# an item is, and lets rustc's dead_code lint see it. Untracked files count
# as "now".
#
# Usage: scripts/pubs.sh [<rev>]   (without <rev>, prints only the counts now)
#        scripts/pubs.sh --check
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - "$@" <<'PY'
import re, subprocess, sys

ITEM = re.compile(
    r"^\s*pub\s+(?:const\s+|unsafe\s+|async\s+)*(fn|struct|enum|trait|type|const|static)\s+"
    r"([A-Za-z_][A-Za-z0-9_]*)", re.M)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Comments, string and char literals are not code naming an item (a `'"'`
# read as the start of a string would hide the items after it).
NOISE = re.compile(r'//[^\n]*|/\*.*?\*/|r#+".*?"#+|"(?:\\.|[^"\\])*"'
                   r"|'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^'\\\n])'", re.S)
# A binding's name (`cfg: Config`) is not a name the signature exposes.
BINDING = re.compile(r"\b[a-z_][A-Za-z0-9_]*\s*:(?!:)")

def files(rev):
    if rev is None:
        cmd = ["git", "ls-files", "-co", "--exclude-standard"]
    else:
        cmd = ["git", "ls-tree", "-r", "--name-only", rev]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return [f for f in out.splitlines() if f.endswith(".rs")]

def read(rev, path):
    if rev is None:
        try:
            return open(path, encoding="utf-8").read()
        except FileNotFoundError:  # deleted but not yet staged
            return None
    return subprocess.run(["git", "show", f"{rev}:{path}"], check=True,
                          capture_output=True, text=True).stdout

def crate_of(path):
    parts = path.split("/")
    return parts[1] if parts[0] == "crates" and len(parts) > 2 else None

def is_lib(path):
    parts = path.split("/")
    return crate_of(path) is not None and parts[2] == "src" and parts[3] != "bin"

def signature(kind, code, end):
    """What the item ending its name at code[end] shows its users: a fn's
    parameter and return types, a const's type, a struct's pub fields, a
    whole enum or trait body."""
    if kind not in ("struct", "enum", "trait"):
        stop = {"fn": "{;", "type": ";"}.get(kind, "=")
        cut = min((i for i in (code.find(c, end) for c in stop) if i >= 0), default=len(code))
        return BINDING.sub(" ", code[end:cut])
    start = min((i for i in (code.find(c, end) for c in "{(;") if i >= 0), default=len(code))
    if code[start:start + 1] in ("", ";"):
        return ""
    pair = {"{": "{}", "(": "()"}[code[start]]
    depth = 0
    for stop in range(start, len(code)):
        depth += {pair[0]: 1, pair[1]: -1}.get(code[stop], 0)
        if depth == 0:
            break
    body = code[start:stop + 1]
    if kind == "struct":
        body = " ".join(re.findall(r"\bpub\s+(?:[a-z_][A-Za-z0-9_]*\s*:)?([^,\n]*)", body))
    return body

def scan(rev):
    """(items, names): items are (crate, name, where, exposed) of every
    non-test pub item in a crate library; names maps each file to its set of
    identifiers."""
    items, names = [], {}
    for path in files(rev):
        text = read(rev, path)
        if text is None:
            continue
        names[path] = set(IDENT.findall(NOISE.sub(" ", text)))
        if is_lib(path):
            head = re.split(r"^#\[cfg\(test\)\]", text, maxsplit=1, flags=re.M)[0]
            code = NOISE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), head)
            for m in ITEM.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                exposed = set(IDENT.findall(signature(m.group(1), code, m.end())))
                items.append((crate_of(path), m.group(2), f"{path}:{line}", exposed))
    return items, names

def sort(rev):
    """The items as (crate, name, where, verdict), the verdict "used",
    "bench" or "local"."""
    items, names = scan(rev)
    verdict = [None] * len(items)
    for crate in {it[0] for it in items}:
        mine = [i for i, it in enumerate(items) if it[0] == crate]
        for label, keep in (
                ("used", lambda p: not p.startswith("benchmark/")
                 and (crate_of(p) != crate or not is_lib(p))),
                ("bench", lambda p: p.startswith("benchmark/"))):
            seen = set().union(*(ids for path, ids in names.items() if keep(path)))
            grew = True
            while grew:
                grew = False
                for i in mine:
                    if verdict[i] is None and items[i][1] in seen:
                        verdict[i], grew = label, True
                        seen |= items[i][3]
        for i in mine:
            verdict[i] = verdict[i] or "local"
    return [(c, n, w, v) for (c, n, w, _), v in zip(items, verdict)]

def tally(rev):
    counts, per = {"total": 0, "local": 0, "bench": 0}, {}
    for crate, _, _, v in sort(rev):
        counts["total"] += 1
        counts[v] = counts.get(v, 0) + 1
        per[crate] = per.get(crate, 0) + 1
    return counts, per

args = sys.argv[1:]
if args == ["--check"]:
    local = [(w, n) for _, n, w, v in sort(None) if v == "local"]
    for where, name in local:
        print(f"pubs.sh: {where}: pub item {name} is named by no code outside its"
              " crate's library", file=sys.stderr)
    sys.exit(1 if local else 0)
label = {"total": "pub items (non-test, crate libraries)", "local": "crate-local",
         "bench": "benchmark-only"}
now, per_now = tally(None)
if not args:
    print(f"{label['total']}: {now['total']} ({label['local']}: {now['local']};"
          f" {label['bench']}: {now['bench']})")
    for crate in sorted(per_now):
        print(f"  {crate:<12} {per_now[crate]}")
    sys.exit(0)
before, per_before = tally(args[0])
for key, what in label.items():
    print(f"{what}: {before[key]} -> {now[key]} (net {now[key] - before[key]})")
for crate in sorted(set(per_before) | set(per_now)):
    b, a = per_before.get(crate, 0), per_now.get(crate, 0)
    print(f"  {crate:<12} {b} -> {a} (net {a - b})")
PY
