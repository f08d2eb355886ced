#!/usr/bin/env bash
# Canonical offline verification for this repository. Run before every
# push; CI runs exactly this script.
#
# The workspace is 100 % self-contained: no network, no registry, no
# external crates. --offline makes any accidental dependency regression
# fail loudly right here.

set -euo pipefail
cd "$(dirname "$0")/.."

# Each file's lines up to its first `#[cfg(test)]`, as `file:line: text`.
non_test() {
    awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { print FILENAME ":" FNR ": " $0 }' "$@"
}

echo "== tier 1: build (release, offline)"
cargo build --release --offline --workspace

echo "== tier 1: tests (offline)"
cargo test -q --offline --workspace

echo "== determinism across thread counts (HEROES_THREADS=1 vs 4)"
HEROES_THREADS=1 cargo test -q --offline --test determinism
HEROES_THREADS=4 cargo test -q --offline --test determinism

echo "== fault matrix: lossy profile smoke (HEROES_FAULTS=lossy)"
HEROES_FAULTS=lossy HEROES_THREADS=2 cargo test -q --offline --test determinism --test fault_tolerance
cargo test -q --offline -p nsec3-core --test fault_props

echo "== allocation counts (counting allocator, one test per binary)"
# Printed, not only asserted: allocations per fresh-name NXDOMAIN reply
# and secure referral, per forwarded NXDOMAIN resolve, per warm cache hit
# and RFC 8198 synthesis, per zone a batch lab stands up (equal within
# one at 64 and 2,048 zones) and the live heap it holds per record, per
# query the serving driver serves, and the resolver study's heap
# high-water at two fleets 4x apart.
cargo test -q --offline -p dns-auth -p dns-resolver -p nsec3-core \
    --test alloc_budget --test lab_alloc_budget --test study_heap -- --nocapture | grep '^allocations'

if command -v rustfmt >/dev/null 2>&1; then
    echo "== rustfmt --check"
    cargo fmt --all -- --check
else
    echo "== rustfmt not installed; skipping"
fi

echo "== public surface and size (scripts/pub_census.py recounts who names them)"
# `pub` means something outside the crate names it; drift shows here.
# Every `pub` item kind the census demotes, classified as it classifies.
kinds=(fn struct enum trait type const static mod use)
declares() {
    case "$1" in
        fn) echo '^\s*pub ((const|async|unsafe) )*fn ' ;;
        const) echo '^\s*pub const \w+\s*:' ;;
        *) echo "^\\s*pub $1 " ;;
    esac
}
printf '%-18s' crate; printf '%7s' "${kinds[@]}"; printf '  non-test lines\n'
for crate in crates/*/; do
    printf '%-18s' "$crate"
    for kind in "${kinds[@]}"; do printf '%7d' "$(grep -rhE "$(declares "$kind")" "$crate"src | wc -l)"; done
    printf '  %d\n' "$(non_test "$crate"src/*.rs | wc -l)"
done
echo "workspace total: $(non_test crates/*/src/*.rs | wc -l) non-test lines under crates/*/src"
echo "crates/bench/src/bin/bench_*.rs: $(cat crates/bench/src/bin/bench_*.rs | wc -l) lines"

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (-D warnings): also the shape rules of Cargo.toml [workspace.lints] and the clippy.toml files"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed: these shape rules went UNCHECKED" >&2
    echo "  - unreachable_pub: a pub item no other crate can reach" >&2
    echo "  - std::env::var and std::process::exit outside their sanctioned readers (clippy.toml)" >&2
    echo "  - netsim::event::drive outside study.rs (crates/core/clippy.toml)" >&2
    echo "  - std::fs::write outside Suite::finish and write_artifact (crates/bench/clippy.toml)" >&2
fi

echo "== rustdoc (-D warnings): a doc link to a private or deleted item fails"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== bench smoke: every bench bin once, reduced samples"
# A bench bin asserts nothing and has one mode, so this only keeps rows
# from rotting; every claim is a cargo test beside its driver, run in
# tier 1. bench_census_scale (44 s; its claim is
# crates/bench/tests/census_memory.rs) is compile- and clippy-checked
# only. The JSON reports land in a scratch dir, not the repo.
SMOKE_DIR="$(mktemp -d)"
ROOT="$(pwd)"
for bin in crates/bench/src/bin/bench_*.rs; do
    bin="$(basename "$bin" .rs)"
    [ "$bin" = bench_census_scale ] && continue
    out="$(cd "$SMOKE_DIR" && MICROBENCH_SAMPLES=3 "$ROOT/target/release/$bin")"
    # bench_nsec3_hash's first line names the SHA kernels this host runs
    # (SHA unit or portable): every recorded number is read against it.
    if [ "$bin" = bench_nsec3_hash ]; then head -1 <<<"$out"; fi
done
rm -rf "$SMOKE_DIR"

echo "== EXPERIMENTS.md is paper_report's stdout, identical at --threads 1 and 4"
REPORT_DIR="$(mktemp -d)"
for n in 1 4; do target/release/paper_report --threads "$n" >"$REPORT_DIR/$n.md"; done
cmp "$REPORT_DIR/1.md" "$REPORT_DIR/4.md"
diff -u EXPERIMENTS.md "$REPORT_DIR/1.md" || {
    echo "error: EXPERIMENTS.md is stale: target/release/paper_report > EXPERIMENTS.md" >&2
    exit 1
}
rm -rf "$REPORT_DIR"
# Another fleet scale runs too: at 1/2000 the resolver rows are held to
# their test-scale tolerances and every row holds.
target/release/paper_report --fleet-scale 2000 --threads 2 >/dev/null 2>&1 ||
    { echo "error: paper_report --fleet-scale 2000 has rows outside their tolerances" >&2; exit 1; }
# README's headline sentence quotes only numbers the document carries.
grep -A2 'headline:' README.md | grep -oE '[0-9]+\.[0-9] %' | while IFS= read -r pct; do
    grep -qF "$pct" EXPERIMENTS.md || { echo "error: README's headline quotes $pct, EXPERIMENTS.md does not" >&2; exit 1; }
done

echo "== repository benchmark (BENCHMARK.json): unit tests + smoke run"
# benchmark/ is its own workspace, so the tier-1 steps above do not
# reach it. The smoke run drives every workload at tiny sizes with all
# of the benchmark's correctness checks (accounting invariants, paper
# landmarks, traced replay == driver) and exits nonzero if one fails.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null

echo "== profiler script (syntax only)"
# scripts/profile.sh builds benchmark/ with debug info and samples one
# child for seconds; here it is only parsed.
bash -n scripts/profile.sh

echo "== shape guards no compiler rule states"
# One compression-pointer follower (Reader::name, DESIGN.md §7).
pointer_arms="$(cat crates/wire/src/*.rs | grep -c '0xC0..=0xFF' || true)"
if [ "$pointer_arms" != "1" ]; then
    echo "error: compression pointers are followed in $pointer_arms places, expected 1 (Reader::name)" >&2
    exit 1
fi
# Every ordered map of names is keyed by SortKey (DESIGN.md §7): a map
# ordered by Name pays two key builds a comparison.
name_keyed="$(non_test crates/zone/src/*.rs crates/auth/src/*.rs crates/resolver/src/*.rs |
    grep -E '(BTreeMap|BTreeSet|TtlCache)<\(?Name' || true)"
if [ -n "$name_keyed" ]; then
    echo "error: an ordered map keyed by Name (key it by SortKey):" >&2
    echo "$name_keyed" >&2
    exit 1
fi
# One NSEC3 hash route (DESIGN.md §6): engine, cached, oracle.
hash_fns="$(grep -cE '^pub fn nsec3_hash' crates/zone/src/nsec3hash.rs || true)"
if [ "$hash_fns" != "3" ]; then
    echo "error: nsec3hash.rs declares $hash_fns pub fn nsec3_hash*, expected 3 (nsec3_hash, nsec3_hash_cached, nsec3_hash_reference)" >&2
    exit 1
fi
# One census driver (DESIGN.md §8): the streaming pass the paper makes,
# which keeps aggregates only.
census_fns="$(grep -rhE '^\s*pub fn run_domain_census' crates/core/src | wc -l)"
if [ "$census_fns" != "1" ]; then
    echo "error: crates/core/src declares $census_fns pub fn run_domain_census*, expected 1 (run_domain_census_stream)" >&2
    exit 1
fi
# One hash for every table (DESIGN.md §6 "One memo"): one Hasher and
# one BuildHasher impl (KeyedState) in any file under crates/*/src or
# src, both in crates/crypto/src/hash.rs, and no FNV-1a constant in a
# file of a crate with a table. Whole files, not `non_test`: a
# `#[cfg(test)]` import would hide the rest of a file from it. Exempt,
# because they pick no table slot: netsim's `hash_mix` (it keys every
# fault decision by the flow, and the fault pins hold it), the seed
# mixes of sim-rng, sim-check and popgen, and the resolver's 0x20 case
# bits.
hasher_impls="$(grep -rE --include='*.rs' '^\s*impl\b.*\b(Build)?Hasher for ' crates/*/src src |
    sed -E 's/^([^:]+):.*\b((Build)?Hasher) for .*/\1 \2/' | sort)"
if [ "$hasher_impls" != $'crates/crypto/src/hash.rs BuildHasher\ncrates/crypto/src/hash.rs Hasher' ]; then
    echo "error: Hasher/BuildHasher impls in [${hasher_impls//$'\n'/, }], expected one pair in crates/crypto/src/hash.rs" >&2
    exit 1
fi
fnv="$(grep -rn --include='*.rs' '' crates/{crypto,wire,zone,auth,resolver}/src | tr -d _ |
    grep -iE 'cbf29ce484222325|100000001b3' || true)"
if [ -n "$fnv" ]; then
    echo "error: an FNV-1a constant in a table crate (pick slots with dns_crypto::hash::KeyedState):" >&2
    echo "$fnv" >&2
    exit 1
fi
# One RFC 9276 decision (DESIGN.md §12): the resolver consults the limit
# policy in one place, the gate in `Resolver::judge`.
limit_gates="$(non_test $(ls crates/resolver/src/*.rs | grep -v '/policy.rs$') | grep -c 'action_for(' || true)"
if [ "$limit_gates" != "1" ]; then
    echo "error: crates/resolver/src calls action_for( in $limit_gates places outside policy.rs, expected 1 (the RFC 9276 gate in Resolver::judge, resolver.rs)" >&2
    exit 1
fi
# One poll adaptor (DESIGN.md §8): a flow written as `async` code waits
# on a `netsim::event::Port`, and `Port::resume` is the one place that
# polls one, with the workspace's only no-op waker outside tests.
noop_pollers="$(non_test $(find crates/*/src -name '*.rs') | grep 'Waker::noop' | cut -d: -f1 | sort -u || true)"
if [ "$noop_pollers" != "crates/netsim/src/event.rs" ]; then
    echo "error: Waker::noop in [${noop_pollers//$'\n'/, }], expected only crates/netsim/src/event.rs (Port::resume)" >&2
    exit 1
fi
# One fault model (DESIGN.md §5 "Fault model and graceful degradation"):
# every netsim fault decision hashes the schedule seed with the flow
# (`hash_mix`), so no sequential RNG may draw one.
netsim_rng="$(non_test crates/netsim/src/*.rs | grep -E 'Xoshiro256pp|gen_bool|gen_range' || true)"
if [ -n "$netsim_rng" ]; then
    echo "error: a sequential RNG draw under crates/netsim/src (key the decision by the flow with hash_mix):" >&2
    echo "$netsim_rng" >&2
    exit 1
fi
# One resolver node (DESIGN.md §3): the query copier and the flaky
# resolver are a `ResolverConfig::quirk` of `impl Node for Resolver`
# (net.rs), not nodes of their own.
resolver_nodes="$(non_test crates/resolver/src/*.rs | grep -E '^[^:]+:[0-9]+: *impl\b.*\bNode for ' | cut -d: -f1 || true)"
if [ "$resolver_nodes" != "crates/resolver/src/net.rs" ]; then
    echo "error: impl Node in [${resolver_nodes//$'\n'/, }] under crates/resolver/src, expected one (Resolver's, in net.rs)" >&2
    exit 1
fi
# One unit cut and one fault key (DESIGN.md §8 "Driver skeleton"):
# `run_study` cuts every driver's population into whole units and
# `ShardRun::schedule` derives every lab's fault seed, so no other file
# under crates/core/src cuts an index range or keys a schedule.
unit_cuts="$(non_test $(ls crates/core/src/*.rs | grep -v '/study.rs$') | grep -E 'step_by\(|chunks\(|schedule\.seed' || true)"
if [ -n "$unit_cuts" ]; then
    echo "error: a unit cut or a schedule seed outside crates/core/src/study.rs (use ShardRun::units and ShardRun::resolver):" >&2
    echo "$unit_cuts" >&2
    exit 1
fi
# `unsafe` lives in one file (DESIGN.md §6 "Hardware kernels"): the calls
# into dns-crypto's SHA-extension kernels, each under a `// SAFETY:` line;
# every other crate forbids it.
stray_unsafe="$(grep -rnwE 'unsafe' crates/*/src src --include='*.rs' |
    grep -v '^crates/crypto/src/x86.rs:' | grep -vE '^[^:]*:[0-9]+:\s*//' || true)"
if [ -n "$stray_unsafe" ]; then
    echo "error: unsafe outside crates/crypto/src/x86.rs:" >&2
    echo "$stray_unsafe" >&2
    exit 1
fi
unsafe_unexplained="$(awk '!/^[ \t]*\/\// && /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ && prev !~ /\/\/ SAFETY:/ { print FILENAME ":" FNR ": " $0 } { prev = $0 }' crates/crypto/src/x86.rs)"
if [ -n "$unsafe_unexplained" ]; then
    echo "error: an unsafe block not right after a // SAFETY: line:" >&2
    echo "$unsafe_unexplained" >&2
    exit 1
fi
for lib in crates/*/src/lib.rs src/lib.rs; do
    [ "$lib" = crates/crypto/src/lib.rs ] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || { echo "error: $lib lost #![forbid(unsafe_code)]" >&2; exit 1; }
done
# A bench row is read against the machine that recorded it.
for f in BENCH_*.json; do
    grep -q '"host_cores"' "$f" || { echo "error: $f has no host_cores" >&2; exit 1; }
done

echo "ci.sh: all checks passed"
