#!/usr/bin/env bash
# Regenerate every artifact under results/: each paper bin at the size its
# checked-in output was made with, the six examples (stdout saved to
# results/examples/<name>.txt), then a schema check of every telemetry
# export.
#
#   bash scripts/reproduce.sh [--threads N]
#
# The arguments go to every bin that runs its trials through the shared
# runner (`--threads N`; absent or 0 means one worker per core). The
# simulation is deterministic and the runner collects results in trial
# order, so the thread count changes no byte. The checked-in results/ were
# made with the default, which makes results/ the reference: after a run,
# `git status --porcelain -- results/` prints nothing, and whatever it does
# print is an artifact that moved. ≈ 3.5 min on 2 vCPUs, most of it table1.
#
# Each bin also checks what it wrote and exits non-zero without it: the
# examples their own outcome, table2 and figure5 the paper's shape,
# chaos_sweep that every trial recovered, scalability_sweep that no
# connection is resident at quiescence and that a connection costs at most
# 6.1 events.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --release -p bench -p bento --bins --examples

bench() { # <bin> [args...]
  echo "== $1 =="
  cargo run -q --release -p bench --bin "$1" -- "${@:2}"
}

bench table1                   # Table 1: WF attack accuracy (the long one)
bench table2 "$@"              # Table 2: page download times
bench figure5 "$@"             # Figure 5: hidden-service LoadBalancer
bench scalability "$@"         # section 7.3: SGX scalability
bench cover_ablation "$@"      # section 9.1: Cover ablation
bench shard_recovery           # section 9.3: Shard recovery
bench multipath_sweep "$@"     # section 9.4: multipath sweep
bench padding_sweep "$@"       # padding-quantum ablation
bench scalability_sweep        # connection churn, 10^4 clients
bench chaos_sweep "$@"         # fault injection vs goodput

mkdir -p results/examples
for e in quickstart browse_unlinkable anonymous_dropbox hidden_service_autoscale cover_traffic multipath_fetch; do
  echo "== example $e =="
  cargo run -q --release -p bento --example "$e" > "results/examples/$e.txt"
done

echo "== telemetry exports: schema =="
files=()
for f in results/TELEMETRY_*.json; do
  files+=(--file "$f")
done
cargo run -q --release -p bench --bin telemetry_check -- "${files[@]}"

echo "done; compare with: git status --porcelain -- results/"
