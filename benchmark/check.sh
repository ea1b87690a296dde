#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, unit tests, and a smoke
# of all five workloads in both passes. Run from anywhere; the repo's
# ci.sh does not call it.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
cargo build --release --offline -q

# One round of 6 s windows: the shortest that still holds the 100 ops a
# p90 needs on the slowest workload. `run` fails on any op that errors or
# mismatches the serial reference.
"${CARGO_TARGET_DIR:-target}/release/spd-benchmark" run --rounds 1 --seconds 6 --seed 7
echo "check.sh: ok"
