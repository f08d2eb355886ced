#!/usr/bin/env python3
"""Count the `pub` items under crates/*/src that something outside their crate names.

Run by hand ON A SCRATCH COPY (`git clone . /tmp/census && cd /tmp/census`):
it rewrites every `pub` item — `fn` (also `const`/`async`/`unsafe fn`),
`struct`, `enum`, `trait`, `type`, `const`, `static`, `mod` and `use` — to
`pub(crate)`, then restores `pub` wherever the compiler reports a private
item, a failed re-export or a private type in a public interface, until
the workspace, benchmark/ and the doctests all build. What is still
`pub(crate)` at the end has nothing outside its crate that names it.

    scripts/pub_census.py                     callers of any kind (--all-targets + doctests)
    scripts/pub_census.py --bins --examples   production callers only

`cargo check --offline --workspace --bins --examples` on the result then
names, as dead code, what only a crate's own unit tests reach.
"""
import collections, glob, json, os, re, subprocess, sys

targets = sys.argv[1:] or ["--all-targets"]
KINDS = ("fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use")
PUB = re.compile(r"^(\s*)pub ((?:(?:const|async|unsafe) )*fn|struct|enum|trait|type|const|static|mod|use)\b")
demoted = {}  # (absolute path, first line) -> (kind, last line, names it declares)
for path in glob.glob("crates/*/src/**/*.rs", recursive=True):
    lines = open(path).read().split("\n")
    for i, line in enumerate(lines):
        if m := PUB.match(line):
            # A `use` may span lines; a compiler note points at the name it is about.
            last = i
            while m[2] == "use" and ";" not in lines[last]:
                last += 1
            text = " ".join(lines[i : last + 1])
            names = set(re.findall(r"(\w+)\s*[,;}]", text) if m[2] == "use" else
                        re.match(r"\s*pub (?:(?:const|async|unsafe) )*\w+ (\$?\w+)", line).groups())
            demoted[os.path.abspath(path), i + 1] = (m[2].split()[-1], last + 1, names)
            lines[i] = PUB.sub(r"\1pub(crate) \2", line)
    open(path, "w").write("\n".join(lines))
crate_of = lambda path: path.split("/crates/")[1].split("/")[0]
declared = collections.Counter((crate_of(p), kind) for (p, _), (kind, *_) in demoted.items())

def spans(msg):
    yield from msg.get("spans", [])
    for child in msg.get("children", []):
        yield from spans(child)

def covering(sites):
    """The demoted items whose lines hold one of `sites`."""
    return {k for k, (_, last, _) in demoted.items() if any(p == k[0] and k[1] <= n <= last for p, n in sites)}

# Besides errors, the lints that say a `pub` signature names a demoted type.
LINTS = {"private_interfaces", "private_bounds"}

def check(manifest):
    """Demoted items that `cargo check` on `manifest` says an outsider needs."""
    cmd = ["cargo", "check", "--offline", "--keep-going", "--workspace", "--message-format=json", "--manifest-path", manifest]
    out = subprocess.run(cmd + targets, capture_output=True, text=True).stdout
    root, hits, errors = os.path.dirname(os.path.abspath(manifest)), set(), 0
    for msg in (json.loads(l)["message"] for l in out.splitlines() if l.startswith('{"reason":"compiler-message"')):
        if msg["level"] != "error" and (msg.get("code") or {}).get("code") not in LINTS:
            continue
        sites = {(os.path.normpath(os.path.join(root, s["file_name"])), s["line_start"]) for s in spans(msg)}
        named, crates = set(re.findall(r"`(\w+)`", msg["message"])), {p.split("/src/")[0] for p, _ in sites}
        # A definition span names the item; a re-export error names it only by identifier.
        hits |= covering(sites) or {
            k for k, (_, _, names) in demoted.items() if names & named and k[0].split("/src/")[0] in crates}
        errors += msg["level"] == "error"
    if errors and not hits:
        sys.exit(f"{manifest}: {errors} errors name no demoted item; see `cargo check {' '.join(targets)}`")
    return hits

def doctests():
    """The same for doctests, which `cargo check` does not build: rustdoc prints spans as text."""
    cmd = ["cargo", "test", "--offline", "--workspace", "--doc", "--no-fail-fast"]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    return covering({(os.path.abspath(p), int(n)) for p, n in re.findall(r"(?:-->|:::) (\S+?):(\d+):", out)})

rounds = 0
while hits := check("Cargo.toml") | check("benchmark/Cargo.toml") | (doctests() if "--all-targets" in targets else set()):
    rounds += 1
    for path, n in hits:
        lines = open(path).read().split("\n")
        lines[n - 1] = lines[n - 1].replace("pub(crate) ", "pub ", 1)
        open(path, "w").write("\n".join(lines))
        del demoted[path, n]
left = collections.Counter((crate_of(p), kind) for (p, _), (kind, *_) in demoted.items())
print(f"{rounds} rounds, cargo check {' '.join(targets)}; per kind, declared/not named outside")
print(f"{'crate':12}" + "".join(f"{k:>10}" for k in KINDS + ("total",)))
for crate in sorted({c for c, _ in declared}) + ["total"]:
    cell = lambda kinds: "{}/{}".format(*(sum(n for (c, k), n in counts.items() if k in kinds and crate in (c, "total")) for counts in (declared, left)))
    print(f"{crate:12}" + "".join(f"{cell({k}):>10}" for k in KINDS) + f"{cell(set(KINDS)):>10}")
for (path, n), (kind, _, names) in sorted(demoted.items()):
    print(f"{os.path.relpath(path)}:{n}: {kind} {', '.join(sorted(names))}")
