#!/usr/bin/env bash
# Same bytes: show that a change moves nothing simulated.
#
#   bash scripts/same_bytes.sh <rev>
#
# Builds <rev> and the working tree (release), runs from one scratch
# directory per tree
#
#   table1 --sites 10 --visits 3, table2, figure5 (defaults and --mb 1),
#   chaos_sweep --smoke, scalability, shard_recovery, multipath_sweep,
#   cover_ablation and the six examples,
#
# and compares what the two trees wrote and printed: `diff -r` of the two
# directories, which hold every file the bins wrote under results/ (CSVs,
# text, every TELEMETRY_*.json) and each command's stdout. Only stdout lines
# that print host time are ignored. Exits 1 on any difference, 0 when none.
#
# <rev> is exported with `git archive` (not `git worktree`: an archive
# leaves nothing registered in the repository, even when a run is killed)
# into a `mktemp -d` directory and built there with its own
# CARGO_TARGET_DIR; the working tree builds into its usual target/. Set
# TMPDIR to keep the scratch directory somewhere else. ~10 min on 2 vCPUs,
# most of it the two builds.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <rev>" >&2
  exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
here=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

examples=(quickstart browse_unlinkable anonymous_dropbox hidden_service_autoscale cover_traffic multipath_fetch)
build() { # <source dir> <target dir>
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo build -q --release -p bench -p bento --bins --examples)
}

echo "same_bytes: building $rev and the working tree"
mkdir "$scratch/base"
git archive "$rev" | tar -x -C "$scratch/base"
build "$scratch/base" "$scratch/base-target"
build "$here" "$here/target"

# Stdout lines that print host time; none of the runs below prints any today.
host_time='host[ _](time|ns|ms|s)\b|wall[ _]?(time|s)\b|events/s'

run_all() { # <target dir> <output dir>
  local bin="$1/release" out="$2"
  mkdir -p "$out/stdout"
  (
    cd "$out"
    "$bin/table1" --sites 10 --visits 3 > stdout/table1.txt
    "$bin/table2" > stdout/table2.txt
    "$bin/figure5" > stdout/figure5.txt
    mkdir -p mb1 && (cd mb1 && "$bin/figure5" --mb 1 > ../stdout/figure5_mb1.txt)
    "$bin/chaos_sweep" --smoke > stdout/chaos_sweep.txt
    "$bin/scalability" > stdout/scalability.txt
    "$bin/shard_recovery" > stdout/shard_recovery.txt
    "$bin/multipath_sweep" > stdout/multipath_sweep.txt
    "$bin/cover_ablation" > stdout/cover_ablation.txt
    for e in "${examples[@]}"; do
      "$bin/examples/$e" > "stdout/$e.txt"
    done
  )
  for f in "$out"/stdout/*.txt; do
    grep -vE "$host_time" "$f" > "$f.filtered" || true
    mv "$f.filtered" "$f"
  done
}

echo "same_bytes: running $rev"
run_all "$scratch/base-target" "$scratch/out-base"
echo "same_bytes: running the working tree"
run_all "$here/target" "$scratch/out-work"

echo "same_bytes: comparing ($(find "$scratch/out-base" -type f | wc -l) files a side)"
if diff -r "$scratch/out-base" "$scratch/out-work"; then
  echo "same_bytes: no difference"
else
  echo "same_bytes: the outputs differ" >&2
  exit 1
fi
