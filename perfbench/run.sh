#!/usr/bin/env bash
# Builds ruleplaced and the perfbench harness from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload merge-grid --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ (Go build
# cache included); the last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/ruleplaced" ./cmd/ruleplaced >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --daemon "$out/ruleplaced" --out "$out/spans" "$@"
