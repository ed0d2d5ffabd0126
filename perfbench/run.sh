#!/usr/bin/env bash
# Builds the benchmark and the `serve` edge from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result is the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
