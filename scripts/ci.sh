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

echo "== bench smoke: engine parity gate and row smoke (reduced samples)"
# bench_nsec3_hash refuses to start unless the single-block engine agrees
# with the streaming reference (digests and compression counts) across the
# salt-length boundary and every measured iteration count. bench_wire,
# bench_zone_signing and bench_denial_proofs carry no gate and run so
# their rows cannot rot: bench_wire's auth_answer_cached and
# auth_answer_{nxdomain,referral}_unique rows drive the template hit and
# the template-miss path (one decode, borrowed assembly, one encode) on
# 65,536 fresh names; bench_denial_proofs runs the warm and the cold
# (nxdomain_proof_synthesis_cold, nxdomain_verify_by_iterations_cold: a
# next closer never hashed before) proof rows. Reduced samples keep this
# a smoke test; the JSON reports land in a scratch dir, not the repo.
SMOKE_DIR="$(mktemp -d)"
ROOT="$(pwd)"
(
    cd "$SMOKE_DIR" \
        && MICROBENCH_SAMPLES=5 "$ROOT/target/release/bench_nsec3_hash" >/dev/null \
        && MICROBENCH_SAMPLES=3 "$ROOT/target/release/bench_zone_signing" >/dev/null \
        && MICROBENCH_SAMPLES=3 "$ROOT/target/release/bench_wire" >/dev/null \
        && MICROBENCH_SAMPLES=3 "$ROOT/target/release/bench_denial_proofs" >/dev/null
)
rm -rf "$SMOKE_DIR"

echo "== adversarial-workload gate (reduced sample)"
# bench_adversarial asserts the robustness claims internally and exits
# nonzero if any regresses: every attack family must cost an undefended
# resolver >= 10x the RFC 9276 baseline per query, the layered defense
# (iteration clamp + work budget) must hold every family's total bill to
# a small constant factor of baseline, and the hash-heavy families must
# show real undefended/defended compressions-per-query savings above the
# floor. One zone per family and four queries each keep this a smoke
# test; the JSON lands in a scratch dir, not the repo.
SMOKE_DIR="$(mktemp -d)"
(
    cd "$SMOKE_DIR" \
        && HEROES_ADV_ZONES=1 HEROES_ADV_QUERIES=4 \
            "$ROOT/target/release/bench_adversarial" >/dev/null
)
rm -rf "$SMOKE_DIR"

echo "== iterative-recursion gate (reduced sample)"
# bench_recursion stands the signed root→TLD→leaf hierarchy up and
# exits nonzero unless the delegation cache actually pays: warm walks
# must issue strictly fewer upstream queries than cold ones (with real
# cache hits recorded), the cached fleet must beat the cacheless
# upstream bill, and deep chains must amplify the per-walk message
# count over shallow ones. Eight TLDs with two leaves each keep it a
# smoke test; the JSON lands in a scratch dir, not the repo.
SMOKE_DIR="$(mktemp -d)"
(
    cd "$SMOKE_DIR" \
        && HEROES_REC_TLDS=8 HEROES_REC_LEAVES=2 \
            "$ROOT/target/release/bench_recursion" >/dev/null
)
rm -rf "$SMOKE_DIR"

echo "== streaming-census memory gate (100 K domains, fixed RSS ceiling)"
# The streaming census must hold memory flat regardless of population:
# shards pull domains from the O(1) generator one batch at a time and
# fold records straight into tallies. A 100 K-domain run peaks around
# 9 MB; the 128 MB ceiling is an order of magnitude of headroom, while
# any regression to materialising the population (specs, labs, or
# records) blows straight through it. Gated at 1 and 4 threads.
HEROES_THREADS=1 "$ROOT/target/release/bench_census_scale" --smoke --rss-ceiling-mb 128
HEROES_THREADS=4 "$ROOT/target/release/bench_census_scale" --smoke --rss-ceiling-mb 128

echo "== lab stand-up gate (64 vs 2,048 domains, build cost per zone)"
# bench_census --smoke builds the census batch lab for the first 64 and
# the first 2,048 domains of the population and exits nonzero if a zone
# costs more than twice as much to build in the large lab as in the
# small one (a ratio, so host speed cancels; the ratio is 1.1x, and
# wiring delegations by scanning every apex per zone read 2.7x).
"$ROOT/target/release/bench_census" --smoke

echo "== serving-driver gate (reduced sample, collapse + RSS)"
# bench_serving --smoke pushes an NXDOMAIN-heavy Zipf workload through a
# small resolver fleet twice — aggressive NSEC3 synthesis on and off —
# and exits nonzero unless RFC 8198 caching collapses upstream NXDOMAIN
# traffic by at least 2x, a no-op event-core step with 32 768 flows in
# flight costs at most 8x the step at 64 (a ratio, so host speed
# cancels; a queue that scans for its minimum reads in the hundreds),
# and peak RSS stays under the ceiling. The reduced sample (1 600
# queries) keeps it a smoke test; the full benchmark (1 M queries,
# latency and flat-memory gates) writes the committed
# BENCH_serving.json. Gated at 1 and 4 threads so the fleet merge path
# is exercised both ways.
"$ROOT/target/release/bench_serving" --smoke --rss-ceiling-mb 128 --threads 1
"$ROOT/target/release/bench_serving" --smoke --rss-ceiling-mb 128 --threads 4

echo "== repository benchmark (BENCHMARK.json): unit tests + smoke run"
# benchmark/ is its own workspace, so the tier-1 steps above do not
# reach it. The smoke run drives every workload at tiny sizes with all
# of the benchmark's correctness checks (accounting invariants, paper
# landmarks, traced replay == driver) and exits nonzero if one fails.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke >/dev/null

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
for f in crates/crypto/src/sha1.rs crates/zone/src/nsec3hash.rs crates/zone/src/signer.rs; do
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

echo "ci.sh: all checks passed"
