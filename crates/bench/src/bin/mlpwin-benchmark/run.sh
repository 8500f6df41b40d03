#!/usr/bin/env bash
# Builds the worker binaries the benchmark drives (mlpwin-sim,
# mlpwin-worker) and the benchmark itself through this directory's
# manifest — one lock file, one release profile for both halves of a
# measurement — into one target directory, then runs the benchmark with
# the given arguments:
#
#   bash crates/bench/src/bin/mlpwin-benchmark/run.sh --workload sim-mem --seed 3
#
# CARGO_TARGET_DIR is honoured; it defaults to the repository's target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" \
    -p mlpwin-sim --bins -p mlpwin-benchmark
exec "$target/release/mlpwin-benchmark" "$@"
