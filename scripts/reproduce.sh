#!/usr/bin/env bash
# Regenerate every table and figure of the Bento paper from scratch.
# Results land in results/*.csv and results/*.txt; every sweep binary
# also exports its telemetry as results/TELEMETRY_<name>.json
# (schema bento-telemetry/v1; validated at the end by telemetry_check).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --release -p bench

echo "== unsafe budget: four cfg-proven calls in onion-crypto, forbid(unsafe_code) in the other nine crates =="
bash scripts/unsafe_budget.sh

echo "== static analysis: clippy with clippy.toml's determinism bans and the workspace lints, unfulfilled expectations included =="
cargo clippy --all-targets -- -D warnings

echo "== dynamic determinism check: artifacts byte-identical across hash seeds and trial-runner thread counts =="
cargo run --release -p bench --bin determinism_check

echo "== examples: the six walk-throughs, each asserting its own outcome =="
for e in quickstart browse_unlinkable anonymous_dropbox hidden_service_autoscale cover_traffic multipath_fetch; do
  cargo run --release -p bento --example $e
done

echo "== Table 1: WF attack accuracy (longest step, ~10-15 min) =="
cargo run --release -p bench --bin table1

echo "== Table 2: page download times =="
cargo run --release -p bench --bin table2

echo "== Figure 5: hidden-service LoadBalancer =="
cargo run --release -p bench --bin figure5

echo "== section 7.3: SGX scalability =="
cargo run --release -p bench --bin scalability

echo "== section 9.1: Cover ablation =="
cargo run --release -p bench --bin cover_ablation

echo "== section 9.3: Shard recovery =="
cargo run --release -p bench --bin shard_recovery

echo "== section 9.4: multipath sweep =="
cargo run --release -p bench --bin multipath_sweep

echo "== padding-quantum ablation =="
cargo run --release -p bench --bin padding_sweep

echo "== scalability sweep: connection churn (10^4 clients; aborts if a connection is still resident at quiescence or a connection costs more than 6.1 events) =="
cargo run --release -p bench --bin scalability_sweep

echo "== chaos sweep: fault injection vs goodput + recovery assertions =="
cargo run --release -p bench --bin chaos_sweep

echo "== telemetry artifacts: schema =="
cargo run --release -p bench --bin telemetry_check -- \
  --file results/TELEMETRY_table2.json \
  --file results/TELEMETRY_figure5.json \
  --file results/TELEMETRY_scalability.json \
  --file results/TELEMETRY_cover_ablation.json \
  --file results/TELEMETRY_multipath_sweep.json \
  --file results/TELEMETRY_padding_sweep.json \
  --file results/TELEMETRY_chaos_sweep.json \
  --file results/TELEMETRY_scalability_sweep.json

echo "== repo benchmark (BENCHMARK.json): its own tests, then a smoke rep of every workload =="
cargo test --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "done; see results/ and EXPERIMENTS.md"
