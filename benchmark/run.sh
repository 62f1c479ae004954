#!/usr/bin/env bash
# Build-and-run wrapper the pipeline calls:
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark offline (a no-op when it is up to date) and runs it
# with the worker pool pinned to 1 thread (POOL_THREADS in src/lib.rs says
# why). Spans and the library's spill files go to benchmark/out/, which git
# ignores. The build lands in $CARGO_TARGET_DIR, or benchmark/target/ when
# that is unset.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export RAYON_NUM_THREADS="${RAYON_NUM_THREADS:-1}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --out "$here/out" "$@"
