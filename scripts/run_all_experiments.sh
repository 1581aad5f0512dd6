#!/usr/bin/env bash
# Regenerates every table and figure of the paper, then the robustness
# sweeps. Reduced scale by default; pass `--full` (and for robustness set
# HYPERTUNE_FULL=1) for the paper's ten repetitions.
#
# Usage: scripts/run_all_experiments.sh [experiments flags...]
#   e.g. scripts/run_all_experiments.sh --budget-div 8   # quick pass
#
# Logs land in results/logs/, JSON series in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p hypertune-bench --bins
mkdir -p results/logs

echo "=== running experiments $* ==="
./target/release/experiments "$@" 2>&1 | tee results/logs/experiments.log
echo "=== running robustness ==="
./target/release/robustness 2>&1 | tee results/logs/robustness.log

echo "all experiments complete; see results/logs/"
