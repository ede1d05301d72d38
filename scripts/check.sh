#!/usr/bin/env bash
# check.sh — the full local quality gate, mirroring CI.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh quick    # skip the race detector pass
#
# Steps: gofmt, go vet (root module and the nested perfbench module),
# the repo's own static-analysis suite
# (rulefitlint — including the cross-package dataflow analyzers
# detsource/sharedmut/sinkguard — both standalone and as a vettool,
# where facts travel through .vetx files), build, tests, the race
# detector, the rulefitdebug invariant-checked test pass, a load-harness
# smoke (live daemon + fixed-RPS ruleload replay + loaddiff schema and
# self-diff gates, mirroring CI's load-smoke job), a delta smoke (live
# session replay with warm/cold byte-identity and loaddiff gates,
# mirroring CI's delta-smoke job), and a fuzz smoke (each target
# briefly, mirroring CI's fuzz-smoke job).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
fail=0

step() { printf '\n== %s\n' "$1"; }

step "gofmt"
unformatted=$(gofmt -l . 2>/dev/null | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    fail=1
fi

step "go vet"
go vet ./... || fail=1

step "go vet (perfbench, a nested module the root ./... skips)"
(cd perfbench && go vet ./...) || fail=1

step "rulefitlint (standalone)"
go build -o /tmp/rulefitlint ./cmd/rulefitlint
/tmp/rulefitlint ./... || fail=1

step "rulefitlint (as go vet tool)"
go vet -vettool=/tmp/rulefitlint ./... || fail=1

step "go build"
go build ./... || fail=1

step "go test"
go test ./... || fail=1

step "go test -tags rulefitdebug (runtime invariants)"
go test -tags rulefitdebug ./internal/ilp/ ./internal/core/ ./internal/invariant/ || fail=1

step "observability: traced -race smoke"
go test -race -run 'Trace|Determin' ./internal/ilp/ ./internal/core/ ./internal/obs/... || fail=1

step "observability: disabled-sink overhead gate"
go test -run TestDisabledSinkOverheadSmoke ./internal/ilp/ || fail=1

step "daemon: build + e2e (race)"
go build ./cmd/ruleplaced ./cmd/benchdiff || fail=1
go test -race ./internal/daemon/ || fail=1

step "benchdiff gate (baseline vs itself must be clean)"
go run ./cmd/benchdiff BENCH_20260805T141853Z.json BENCH_20260805T141853Z.json || fail=1

step "load harness: e2e (race)"
go test -race ./internal/load/ || fail=1

step "load smoke (fixed-RPS replay, schema gate, self-diff)"
go build -race -o /tmp/ruleload ./cmd/ruleload || fail=1
go build -o /tmp/loaddiff ./cmd/loaddiff || fail=1
go build -o /tmp/ruleplaced ./cmd/ruleplaced || fail=1
/tmp/ruleplaced -addr 127.0.0.1:18090 -max-inflight 2 >/tmp/ruleplaced-smoke.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
    curl -sf http://127.0.0.1:18090/readyz >/dev/null && break
    sleep 0.1
done
/tmp/ruleload -target http://127.0.0.1:18090 -seed 7 -requests 8 -rps 50 -quiet -out /tmp/load.json || fail=1
/tmp/loaddiff -check /tmp/load.json || fail=1
/tmp/loaddiff /tmp/load.json /tmp/load.json >/dev/null || fail=1
curl -sf http://127.0.0.1:18090/statusz | grep -q '"requests_1m"' || fail=1
kill -TERM "$daemon_pid" 2>/dev/null
wait "$daemon_pid" 2>/dev/null || true

step "introspection smoke (solvez mid-solve, deadline flight dump, traceview)"
go build -o /tmp/traceview ./cmd/traceview || fail=1
go run ./cmd/benchgen -k 4 -rules 8 -capacity 60 -ingresses 4 -paths-per-ingress 4 -out /tmp/introspect-problem.json || fail=1
rm -rf /tmp/flight-smoke && mkdir -p /tmp/flight-smoke
/tmp/ruleplaced -addr 127.0.0.1:18093 -max-inflight 1 -solve-delay 2s \
    -flight-dir /tmp/flight-smoke >/tmp/ruleplaced-introspect.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
    curl -sf http://127.0.0.1:18093/readyz >/dev/null && break
    sleep 0.1
done
printf '{"problem": %s, "options": {"merging": true, "timeLimitSec": 60}}' \
    "$(cat /tmp/introspect-problem.json)" > /tmp/introspect-request.json
curl -sf -X POST --data @/tmp/introspect-request.json \
    http://127.0.0.1:18093/v1/place > /tmp/introspect-place.json &
curl_pid=$!
# Scrape the live-solve endpoint while the request occupies its
# (artificially stretched) slot: a snapshot with a gap field must show.
solvez_ok=0
for _ in $(seq 1 100); do
    curl -sf http://127.0.0.1:18093/debug/solvez > /tmp/solvez.json 2>/dev/null || true
    if grep -q '"trace_id"' /tmp/solvez.json && grep -q '"gap"' /tmp/solvez.json; then
        solvez_ok=1
        break
    fi
    sleep 0.1
done
[ "$solvez_ok" = 1 ] || { echo "introspection smoke: no live /debug/solvez snapshot"; fail=1; }
wait "$curl_pid" || { echo "introspection smoke: place request failed"; fail=1; }
grep -q '"status":"optimal"' /tmp/introspect-place.json \
    || { echo "introspection smoke: place not optimal"; fail=1; }
curl -sf http://127.0.0.1:18093/debug/flightz | /tmp/traceview -check >/dev/null \
    || { echo "introspection smoke: flightz dump failed traceview -check"; fail=1; }
# Deadline-killed solve: a tight-capacity instance (the hard Fig. 7
# regime) killed at 250ms must leave its per-request flight ring in
# -flight-dir, and traceview must parse it as a partial trace.
go run ./cmd/benchgen -k 4 -rules 20 -capacity 25 -out /tmp/introspect-tight-problem.json || fail=1
printf '{"problem": %s, "options": {"merging": true, "timeLimitSec": 0.25}}' \
    "$(cat /tmp/introspect-tight-problem.json)" > /tmp/introspect-tight.json
curl -sf -X POST --data @/tmp/introspect-tight.json \
    http://127.0.0.1:18093/v1/place > /tmp/introspect-killed.json \
    || { echo "introspection smoke: tight place request failed"; fail=1; }
if grep -q '"stop_reason":"deadline"' /tmp/introspect-killed.json; then
    dump=$(ls -t /tmp/flight-smoke/flight-req-*.jsonl 2>/dev/null | head -1)
    [ -s "$dump" ] || { echo "introspection smoke: no flight dump in /tmp/flight-smoke"; fail=1; }
    /tmp/traceview -check "$dump" | grep -q 'partial' \
        || { echo "introspection smoke: dump not a partial trace"; fail=1; }
else
    echo "solve beat the 250ms deadline; skipping dump assertions"
fi
kill -TERM "$daemon_pid" 2>/dev/null
wait "$daemon_pid" 2>/dev/null || true

step "introspection: disabled-overhead gate"
go test -run 'TestDisabledIntrospectionOverheadSmoke' ./internal/ilp/ || fail=1

step "delta smoke (live session replay, byte-identity + loaddiff gates)"
/tmp/ruleplaced -addr 127.0.0.1:18092 >/tmp/ruleplaced-delta.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
    curl -sf http://127.0.0.1:18092/readyz >/dev/null && break
    sleep 0.1
done
/tmp/ruleload -target http://127.0.0.1:18092 -delta -seed 7 \
    -delta-steps 6 -delta-ingresses 4 -delta-rules 20 -quiet -out /tmp/delta.json || fail=1
/tmp/loaddiff -check /tmp/delta.json || fail=1
/tmp/loaddiff /tmp/delta.json /tmp/delta.json >/dev/null || fail=1
grep -q '"mismatched": 0' /tmp/delta.json || fail=1
curl -sf http://127.0.0.1:18092/metrics | grep -q 'rulefit_sessions_active 1' || fail=1
kill -TERM "$daemon_pid" 2>/dev/null
wait "$daemon_pid" 2>/dev/null || true

if [ "$mode" != "quick" ]; then
    step "go test -race"
    go test -race ./... || fail=1

    # Mirror of CI's fuzz-smoke job, shortened for local runs. Any new
    # crasher lands in testdata/fuzz/ — shrink it with cmd/diffcheck
    # -export and commit it under testdata/regressions/.
    step "fuzz smoke: ternary algebra"
    go test -fuzz FuzzTernaryOverlap -fuzztime 10s -run '^$' ./internal/match/ || fail=1

    step "fuzz smoke: spec parser"
    go test -fuzz FuzzSpecParse -fuzztime 10s -run '^$' ./internal/spec/ || fail=1

    step "fuzz smoke: differential placement"
    go test -fuzz FuzzPlaceDifferential -fuzztime 10s -run '^$' ./internal/diffcheck/ || fail=1

    step "fuzz smoke: session deltas"
    go test -fuzz FuzzSessionDelta -fuzztime 10s -run '^$' ./internal/daemon/ || fail=1

    step "delta differential suite (race)"
    go test -race -run 'TestQuickDeltaDifferentialSuite|TestDeltaRegressions|TestDelta' ./internal/diffcheck/ || fail=1
fi

# Mirror of CI's nightly paper-scale-smoke job (takes minutes; off by
# default). One Fig. 7 point at -scale 0.5 must finish inside the
# budget and diff clean against the committed smoke baseline.
if [ "${RULEFIT_PAPER_SMOKE:-0}" = "1" ]; then
    step "paper-scale smoke: one Fig. 7 point at -scale 0.5"
    go build -o /tmp/rulefit-experiments-smoke ./cmd/experiments || fail=1
    timeout 600 /tmp/rulefit-experiments-smoke -scale 0.5 -rules 25 -caps 100 \
        -seeds 1 -workers 1 -timeout 300s -json /tmp/paper-smoke.json || fail=1

    step "paper-scale smoke: benchdiff gate vs committed baseline"
    go run ./cmd/benchdiff -threshold 1.0 -min-wall-ms 500 \
        scripts/paper-smoke-baseline.json /tmp/paper-smoke.json || fail=1
fi

echo
if [ "$fail" -ne 0 ]; then
    echo "CHECK FAILED"
    exit 1
fi
echo "all checks passed"
