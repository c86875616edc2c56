#!/usr/bin/env bash
# Build the benchmark package (both binaries), then run it from the repo
# root with the arguments given. This is the `command` of /BENCHMARK.json:
#   bash benchmark/run.sh --workload bulk_fetch --seed 1 --seconds 30 --trace 0
# With no arguments it prints the full report (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# From the repo root, so cargo finds /.cargo/config.toml (target-cpu=native)
# and the binary finds benchmark/out.
cd "$here/.."
# Build chatter goes to stderr: stdout carries only the benchmark's report,
# whose last line is the result object.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
