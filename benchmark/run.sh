#!/usr/bin/env bash
# Build the benchmark (offline, from the repository's own crates) and run
# it. Call from anywhere; it runs from the repository root.
#
#   benchmark/run.sh                      every workload: end-to-end, then traced
#   benchmark/run.sh --smoke              the same at tiny sizes (under 10 s)
#   benchmark/run.sh --selfcheck          every workload twice, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; the last line is the JSON result
#
# The build goes to $CARGO_TARGET_DIR, or to ./target when that is unset.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/heroes-benchmark" "$@"
