#!/usr/bin/env bash
# bench.sh — run the tracked benchmark sweep and write a machine-readable
# perf-trajectory report.
#
#   ./scripts/bench.sh                 # BENCH_<UTC stamp>.json in the repo root
#   ./scripts/bench.sh out/dir         # write the report under out/dir
#   SEEDS=3 TIMEOUT=60s ./scripts/bench.sh   # override sweep knobs
#
# The report (schema rulefit-bench/v1, see internal/bench/report.go and
# EXPERIMENTS.md) records the host, the workload config, and per-run
# wall time / nodes / simplex iterations. The sweep solves one instance
# at a time, and each solve's branch & bound pool runs
# min(GOMAXPROCS, 16) workers. Commit the JSON so the perf trajectory
# is comparable across PRs — but only compare wall-clock numbers taken
# on the same hardware (check the num_cpu/go_version fields first).
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-.}"
seeds="${SEEDS:-1}"
timeout="${TIMEOUT:-120s}"
stamp=$(date -u +%Y%m%dT%H%M%SZ)
out="$outdir/BENCH_${stamp}.json"

go build -o /tmp/rulefit-experiments ./cmd/experiments
/tmp/rulefit-experiments -scale small -seeds "$seeds" -timeout "$timeout" -json "$out"

echo "wrote $out"
