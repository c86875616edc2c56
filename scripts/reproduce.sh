#!/usr/bin/env bash
# Regenerate every artifact under results/: each paper experiment, one
# process each, then the six examples (stdout saved to
# results/examples/<name>.txt).
#
#   bash scripts/reproduce.sh [--threads N]
#
# The arguments go to every experiment (`--threads N`; absent or 0 means one
# worker per core). The simulation is deterministic and the runner collects
# results in trial order, so the thread count changes no byte. The
# checked-in results/ were made with the default, which makes results/ the
# reference: after a run, `git status --porcelain -- results/` prints
# nothing, and whatever it does print is an artifact that moved.
#
# Each experiment checks what it wrote and exits non-zero without it (the
# paper's shape, recovery, the leak gate, each telemetry export's schema);
# so does each example, on its own outcome.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --release -p bench -p bento --bins --examples
release="${CARGO_TARGET_DIR:-target}/release"

for experiment in table1 table2 figure5 scalability cover_ablation shard_recovery \
  multipath_sweep padding_sweep scalability_sweep chaos_sweep; do
  echo "== $experiment =="
  "$release/bench" "$experiment" "$@"
done

mkdir -p results/examples
for e in quickstart browse_unlinkable anonymous_dropbox hidden_service_autoscale cover_traffic multipath_fetch; do
  echo "== example $e =="
  "$release/examples/$e" > "results/examples/$e.txt"
done

echo "done; compare with: git status --porcelain -- results/"
