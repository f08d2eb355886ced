#!/usr/bin/env bash
# Canonical offline verification for this repository. Run before every
# push; CI runs exactly this script.
#
# The workspace is 100 % self-contained: no network, no registry, no
# external crates. --offline makes any accidental dependency regression
# fail loudly right here.

set -euo pipefail
cd "$(dirname "$0")/.."

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
# and secure referral, per forwarded NXDOMAIN resolve, and per zone a
# batch lab stands up (equal within one at 64 and 2,048 zones).
cargo test -q --offline -p dns-auth -p dns-resolver \
    --test alloc_budget --test lab_alloc_budget -- --nocapture | grep '^allocations'

if command -v rustfmt >/dev/null 2>&1; then
    echo "== rustfmt --check"
    cargo fmt --all -- --check
else
    echo "== rustfmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== clippy (-D warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping"
fi

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
    (cd "$SMOKE_DIR" && MICROBENCH_SAMPLES=3 "$ROOT/target/release/$bin" >/dev/null)
done
rm -rf "$SMOKE_DIR"

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

echo "== external-dependency guard"
if grep -rn --include=Cargo.toml -E '^\s*((rand|proptest|criterion|rayon|crossbeam|threadpool)\b|\[[a-z-]+\.(rand|proptest|criterion|rayon|crossbeam|threadpool)\])' . ; then
    echo "error: external dependency crept back into a manifest" >&2
    exit 1
fi

echo "== driver-shape guard (crates/core/src)"
# One study skeleton (DESIGN.md §8): the event core is entered from
# study.rs alone and the environment is read in DriverConfig::from_env
# alone. A second `drive(...)` loop or a second env-reading entry point
# fails here; the non-test line count (each file up to its first
# #[cfg(test)]) is printed so drift shows in the log.
drive_users="$(grep -lE 'netsim::event::(drive\b|\{[^}]*\bdrive\b)' crates/core/src/*.rs || true)"
if [ "$drive_users" != "crates/core/src/study.rs" ]; then
    echo "error: netsim::event::drive is named outside study.rs:" $drive_users >&2
    exit 1
fi
env_readers="$(awk '
    /^ *(pub(\([a-z]+\))? )?fn [a-z0-9_]+/ { fn = $0; sub(/^.*fn /, "", fn); sub(/[^a-z0-9_].*$/, "", fn) }
    /env::var/ { print FILENAME ":" fn }' crates/core/src/*.rs | sort -u)"
if [ "$env_readers" != "crates/core/src/experiments.rs:from_env" ]; then
    echo "error: std::env::var is read outside DriverConfig::from_env:" $env_readers >&2
    exit 1
fi
awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ }
    END { print "crates/core/src: " n " non-test lines" }' crates/core/src/*.rs

echo "== hash-path shape guard (crates/zone/src, crates/crypto/src)"
# One NSEC3 hash route (DESIGN.md §6): the engine, this thread's cache in
# front of it, and the RFC 5155 oracle — three entry points, no batch or
# wire variants; and the signer runs on the calling thread, so nothing
# under the two crates shards or reads the environment (drivers shard
# across zones, nothing shards inside one). Non-test line counts (each
# file up to its `mod tests`) are printed so drift shows in the log.
hash_fns="$(grep -cE '^pub fn nsec3_hash' crates/zone/src/nsec3hash.rs || true)"
if [ "$hash_fns" != "3" ]; then
    echo "error: nsec3hash.rs declares $hash_fns pub fn nsec3_hash*, expected 3 (nsec3_hash, nsec3_hash_cached, nsec3_hash_reference)" >&2
    exit 1
fi
if grep -rnE 'sim_par|default_threads|env::var' crates/zone/src crates/crypto/src; then
    echo "error: sharding or an environment read inside dns-zone/dns-crypto" >&2
    exit 1
fi
for f in crates/crypto/src/sha1.rs crates/crypto/src/simsig.rs crates/zone/src/nsec3hash.rs crates/zone/src/signer.rs; do
    awk '/^mod tests/ { exit } { n++ } END { print FILENAME ": " n " non-test lines" }' "$f"
done

echo "== wire-shape guard (crates/wire/src)"
# One wire parser (DESIGN.md §7): Message::decode is the only thing that
# turns bytes into a message and Reader::name the only function that
# follows a compression pointer. A second reader of untrusted bytes (a
# borrowed view that has to be kept in lockstep with decode, or any walk
# that restates the pointer rules) fails here; the non-test line count
# (each file up to its first #[cfg(test)]) is printed so drift shows in
# the log.
if [ -e crates/wire/src/view.rs ]; then
    echo "error: crates/wire/src/view.rs is back" >&2
    exit 1
fi
if grep -rnE 'MessageView|RecordView|QuestionView|skip_name' crates tests examples src; then
    echo "error: a second wire parser is named" >&2
    exit 1
fi
pointer_arms="$(cat crates/wire/src/*.rs | grep -c '0xC0..=0xFF' || true)"
if [ "$pointer_arms" != "1" ]; then
    echo "error: compression pointers are followed in $pointer_arms places, expected 1 (Reader::name)" >&2
    exit 1
fi
awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 } live { n++ }
    END { print "crates/wire/src: " n " non-test lines" }' crates/wire/src/*.rs

echo "== name-order shape guard (crates/{wire,zone,auth,resolver}/src)"
# One canonical order, one place (DESIGN.md §7): RFC 4034 §6.1 order is
# the byte order of dns_wire::name::SortKey, every ordered map of names
# is keyed by it, and name.rs alone writes a key (one fn holds the
# escape; SortKey's field is private, so nothing else can make one up).
# A map ordered by Name — which would pay two key builds a comparison —
# or a second key writer fails here, outside each file's #[cfg(test)];
# non-test line counts are printed so drift shows in the log.
name_keyed="$(awk 'FNR == 1 { live = 1 } /#\[cfg\(test\)\]/ { live = 0 }
    live && /(BTreeMap|BTreeSet|TtlCache)<\(?Name/ { print FILENAME ":" FNR ": " $0 }' \
    crates/zone/src/*.rs crates/auth/src/*.rs crates/resolver/src/*.rs)"
if [ -n "$name_keyed" ]; then
    echo "error: an ordered map keyed by Name (key it by SortKey):" >&2
    echo "$name_keyed" >&2
    exit 1
fi
key_writers="$(grep -rlE 'fn write_sort_key|SortKey\(' crates src tests examples --include='*.rs' | tr '\n' ' ')"
escapes="$(grep -c 'fn write_sort_key' crates/wire/src/name.rs || true)"
if [ "$key_writers" != "crates/wire/src/name.rs " ] || [ "$escapes" != "1" ]; then
    echo "error: sort keys are written outside name.rs's one write_sort_key: $key_writers($escapes)" >&2
    exit 1
fi
for f in crates/wire/src/name.rs crates/zone/src/zone.rs crates/resolver/src/cache.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print FILENAME ": " n " non-test lines" }' "$f"
done

echo "== bench-shape guard (crates/bench/src, BENCH_*.json)"
# One bench harness (microbench.rs): Suite::finish is the only writer of
# a BENCH_*.json and MICROBENCH_SAMPLES the only variable the crate
# reads; a bin has no gate, no reduced mode and no knob of its own
# (the crate's one process::exit is Options::parse's --help, in lib.rs).
if grep -rn 'env::var' crates/bench/src | grep -v '^crates/bench/src/microbench.rs:'; then
    echo "error: the environment is read outside microbench.rs" >&2
    exit 1
fi
writers="$(grep -rc 'fs::write' crates/bench/src | grep -v ':0$' | sort | tr '\n' ' ')"
if [ "$writers" != "crates/bench/src/lib.rs:1 crates/bench/src/microbench.rs:1 " ]; then
    echo "error: fs::write outside Suite::finish and write_artifact: $writers" >&2
    exit 1
fi
if grep -rnE 'process::exit|--smoke|--rss-ceiling-mb|env_knob|HEROES_ADV_|HEROES_REC_' crates/bench/src/bin; then
    echo "error: a gate, a reduced mode or a knob is back in a bench bin" >&2
    exit 1
fi
for f in BENCH_*.json; do
    grep -q '"host_cores"' "$f" || { echo "error: $f has no host_cores" >&2; exit 1; }
done
echo "crates/bench/src/bin/bench_*.rs: $(cat crates/bench/src/bin/bench_*.rs | wc -l) lines"

echo "ci.sh: all checks passed"
