#!/usr/bin/env python3
"""Count the `pub fn` under crates/*/src that something outside their crate calls.

Run by hand ON A SCRATCH COPY (`git clone . /tmp/census && cd /tmp/census`):
it rewrites every `pub fn` / `pub const fn` to `pub(crate)`, then restores
`pub` wherever the compiler reports a private item or a failed re-export,
until the workspace, benchmark/ and the doctests all build. What is still
`pub(crate)` at the end has no caller outside its crate.

    scripts/pub_census.py                     callers of any kind (--all-targets + doctests)
    scripts/pub_census.py --bins --examples   production callers only

`cargo check --offline --workspace --bins --examples` on the result then
names, as dead code, what only a crate's own unit tests reach.
"""
import collections, glob, json, os, re, subprocess, sys

targets = sys.argv[1:] or ["--all-targets"]
PUB = re.compile(r"^(\s*)pub ((?:const )?fn (\$?\w+))")
demoted = {}  # (absolute path, line number) -> function name
for path in glob.glob("crates/*/src/**/*.rs", recursive=True):
    lines = open(path).read().split("\n")
    for i, line in enumerate(lines):
        if m := PUB.match(line):
            demoted[os.path.abspath(path), i + 1] = m[3]
            lines[i] = PUB.sub(r"\1pub(crate) \2", line)
    open(path, "w").write("\n".join(lines))
crate_of = lambda path: path.split("/crates/")[1].split("/")[0]
declared = collections.Counter(crate_of(p) for p, _ in demoted)

def spans(msg):
    yield from msg.get("spans", [])
    for child in msg.get("children", []):
        yield from spans(child)

def check(manifest):
    """Demoted functions that `cargo check` on `manifest` says an outsider needs."""
    cmd = ["cargo", "check", "--offline", "--keep-going", "--workspace", "--message-format=json", "--manifest-path", manifest]
    out = subprocess.run(cmd + targets, capture_output=True, text=True).stdout
    root, hits = os.path.dirname(os.path.abspath(manifest)), set()
    for msg in (json.loads(l)["message"] for l in out.splitlines() if l.startswith('{"reason":"compiler-message"')):
        if msg["level"] != "error":
            continue
        sites = {(os.path.normpath(os.path.join(root, s["file_name"])), s["line_start"]) for s in spans(msg)}
        named, crates = set(re.findall(r"`(\w+)`", msg["message"])), {p.split("/src/")[0] for p, _ in sites}
        # A definition span names the item; a re-export error names it only by identifier.
        hits |= {k for k in demoted if k in sites} or {
            k for k in demoted if demoted[k] in named and k[0].split("/src/")[0] in crates}
    return hits

def doctests():
    """The same for doctests, which `cargo check` does not build: rustdoc prints spans as text."""
    cmd = ["cargo", "test", "--offline", "--workspace", "--doc", "--no-fail-fast"]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    sites = {(os.path.abspath(p), int(n)) for p, n in re.findall(r"(?:-->|:::) (\S+?):(\d+):", out)}
    return {k for k in demoted if k in sites}

rounds = 0
while hits := check("Cargo.toml") | check("benchmark/Cargo.toml") | (doctests() if "--all-targets" in targets else set()):
    rounds += 1
    for path, n in hits:
        lines = open(path).read().split("\n")
        lines[n - 1] = lines[n - 1].replace("pub(crate) ", "pub ", 1)
        open(path, "w").write("\n".join(lines))
        del demoted[path, n]
left = collections.Counter(crate_of(p) for p, _ in demoted)
print(f"{rounds} rounds, cargo check {' '.join(targets)}\n{'crate':12} declared  called-from-outside  not")
for crate in sorted(declared) + ["total"]:
    d, l = (sum(declared.values()), sum(left.values())) if crate == "total" else (declared[crate], left[crate])
    print(f"{crate:12} {d:8}  {d - l:19}  {l:3}")
for (path, n), name in sorted(demoted.items()):
    print(f"{os.path.relpath(path)}:{n}: {name}")
