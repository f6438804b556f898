#!/usr/bin/env bash
# Build the benchmark (both binaries) and run it. With no arguments this
# prints every end-to-end metric of every workload (`run --seed 2006`);
# the BENCHMARK.json driver appends
# `--workload W --seed N --seconds S --trace 0|1` instead.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
if [ "$#" -eq 0 ]; then
    set -- run --seed 2006
fi
exec "$target/release/moteur-benchmark" "$@"
