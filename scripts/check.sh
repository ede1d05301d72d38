#!/usr/bin/env bash
# check.sh — the repo's one quality gate, in named stages. Each CI job
# runs one stage, and TestCIRunsCheckStages fails if a workflow runs
# anything else, so CI and this script cannot drift apart.
#
#   ./scripts/check.sh              # lint test race fuzz smoke
#   ./scripts/check.sh quick        # lint test smoke
#   ./scripts/check.sh STAGE...     # the named stages, e.g. paper-smoke
#
# Work files live in a mktemp -d directory (honouring TMPDIR) that is
# removed on exit. The first failing command stops the run.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
stage=""
daemon_pid=""
daemon_url=""

finish() {
    local rc=$?
    [ -z "$daemon_pid" ] || kill -TERM "$daemon_pid" 2>/dev/null || true
    rm -rf "$work"
    [ "$rc" -eq 0 ] || printf '\nCHECK FAILED%s\n' "${stage:+ in stage $stage}"
}
trap finish EXIT

step() { printf '\n== %s\n' "$1"; }

# expect FILE PATTERN: fail unless FILE contains PATTERN.
expect() {
    grep -q -- "$2" "$1" || { echo "expected $2 in $1"; return 1; }
}

# reject FILE PATTERN: fail if FILE contains PATTERN.
reject() {
    if grep -q -- "$2" "$1"; then
        echo "unexpected $2 in $1"
        return 1
    fi
}

# scrape PATH PATTERN: GET a daemon endpoint and expect PATTERN in it.
scrape() {
    curl -sf "$daemon_url$1" > "$work/scrape.out"
    expect "$work/scrape.out" "$2"
}

# start_daemon PORT FLAG...: run the built daemon and wait for /readyz.
start_daemon() {
    local port=$1
    shift
    "$work/ruleplaced" -addr "127.0.0.1:$port" "$@" > "$work/ruleplaced-$port.log" 2>&1 &
    daemon_pid=$!
    daemon_url="http://127.0.0.1:$port"
    for _ in $(seq 1 50); do
        curl -sf "$daemon_url/readyz" > /dev/null && return 0
        sleep 0.1
    done
    cat "$work/ruleplaced-$port.log"
    return 1
}

# stop_daemon: drain the daemon; an unclean exit fails the stage.
stop_daemon() {
    local pid=$daemon_pid
    daemon_pid=""
    kill -TERM "$pid"
    wait "$pid"
}

# place_request PROBLEM TIME_LIMIT: print a merging /v1/place body.
place_request() {
    printf '{"problem": %s, "options": {"merging": true, "timeLimitSec": %s}}' "$(cat "$1")" "$2"
}

stage_lint() {
    step "gofmt"
    local unformatted
    unformatted=$(gofmt -l .)
    [ -z "$unformatted" ] || { printf 'gofmt needed on:\n%s\n' "$unformatted"; return 1; }

    step "go vet"
    go vet ./...
    (cd perfbench && go vet ./...)

    step "rulefitlint"
    go build -o "$work/rulefitlint" ./cmd/rulefitlint
    "$work/rulefitlint" ./...

    # A fused multiply-add rounds once where amd64 rounds twice, so the
    # same instance could place differently per GOARCH. Cross-compiling
    # with -S needs no emulator; float64(a*b) is the fix the Go spec
    # guarantees.
    step "no fused multiply-add in the solver on arm64, ppc64le, s390x, riscv64"
    local arch fused=0
    for arch in arm64 ppc64le s390x riscv64; do
        GOARCH=$arch go build -gcflags=-S ./internal/ilp/ ./internal/core/ ./internal/sat/ ./internal/match/ \
            > "$work/asm-$arch.s" 2>&1
        expect "$work/asm-$arch.s" 'rulefit/internal/ilp\.Solve STEXT'
        grep -E '\bFN?M(ADD|SUB)[DS]?\b' "$work/asm-$arch.s" > "$work/fused-$arch.txt" || true
        [ -s "$work/fused-$arch.txt" ] || continue
        fused=1
        echo "$arch compiles fused multiply-adds; wrap each product in float64(...):"
        sed -E 's/.*\(([^)]*):([0-9]+)\).*\t(FN?M(ADD|SUB)[DS]?)\t.*/\1 \2 \3/' "$work/fused-$arch.txt" | sort -u |
            while read -r file line insn; do
                printf '  %s %s:%s: %s\n' "$insn" "$file" "$line" "$(sed -n "${line}p" "$file" | sed 's/^[[:space:]]*//')"
            done
    done
    [ "$fused" -eq 0 ]
}

stage_test() {
    step "go build"
    go build ./...

    step "go test"
    go test ./...

    step "go test -tags rulefitdebug (runtime invariants)"
    go test -tags rulefitdebug ./internal/ilp/ ./internal/core/ ./internal/invariant/ ./internal/lru/ ./internal/state/ \
        ./internal/spec/
    # The delta suites drive sessions through 120 seeded streams, so each
    # edit's reused policies are checked against a fresh build.
    go test -tags rulefitdebug -run Delta ./internal/diffcheck/

    step "perfbench go test -short (replay against a live daemon, reference and tamper checks)"
    (cd perfbench && go test -short ./...)
}

stage_race() {
    step "go test -race"
    go test -race ./...
}

stage_fuzz() {
    local target
    for target in FuzzTernaryOverlap:./internal/match/ FuzzSpecParse:./internal/spec/ \
        FuzzPlaceDifferential:./internal/diffcheck/ FuzzSessionDelta:./internal/daemon/ \
        FuzzPolicyKey:./internal/policy/ FuzzEncodeMatchesReference:./internal/core/; do
        step "fuzz ${target%%:*} (30s)"
        go test -fuzz "${target%%:*}" -fuzztime 30s -run '^$' "${target#*:}"
    done
}

stage_smoke() {
    step "build daemon, harness, comparator and traceview"
    go build -o "$work/" ./cmd/ruleplaced ./cmd/benchdiff ./cmd/traceview
    go build -race -o "$work/" ./cmd/ruleload
    go run ./cmd/benchgen -k 4 -rules 8 -capacity 60 -ingresses 4 -paths-per-ingress 4 -out "$work/problem.json"
    place_request "$work/problem.json" 60 > "$work/request.json"

    step "end-to-end trace (ruleplace -trace on a generated problem)"
    go run ./cmd/benchgen -k 4 -rules 8 -capacity 9 -paths-per-ingress 4 -out "$work/trace-problem.json"
    go run ./cmd/ruleplace -in "$work/trace-problem.json" -merge -trace "$work/trace.jsonl" -metrics -timeout 60s
    test -s "$work/trace.jsonl"
    # Every solve opens with a start event.
    head -n 1 "$work/trace.jsonl" > "$work/trace-first.jsonl"
    expect "$work/trace-first.jsonl" '"kind":"start"'
    # Merging off on the slack problem, every policy certifies by
    # counting: no ILP solve runs, the trace stays empty, and the
    # self-check still passes.
    go run ./cmd/ruleplace -in "$work/problem.json" -trace "$work/certified-trace.jsonl" -timeout 60s \
        > "$work/certified-place.txt"
    expect "$work/certified-place.txt" 'status      : optimal'
    test -f "$work/certified-trace.jsonl"
    test ! -s "$work/certified-trace.jsonl"

    step "daemon (serve, place, fixed-RPS replay, scrape, debug listener, drain)"
    start_daemon 18090 -max-inflight 2 -debug-addr 127.0.0.1:18095
    curl -sf -X POST --data @"$work/request.json" "$daemon_url/v1/place" > "$work/place.json"
    expect "$work/place.json" '"status":"optimal"'
    scrape /metrics 'rulefit_requests_total{status="optimal"'
    # The merging request ran one joint solve, whose events the
    # daemon's own registry folds. Each solve total appears once, as
    # the _sum of its per-solve histogram.
    scrape /metrics 'rulefit_solves_total{status="optimal"} [1-9]'
    expect "$work/scrape.out" 'rulefit_solve_nodes_sum'
    local family
    for family in rulefit_solve_wall_seconds_total rulefit_bnb_nodes_total rulefit_simplex_iters_total; do
        reject "$work/scrape.out" "$family"
    done
    # The solver has no presolve, so no family counts its work.
    reject "$work/scrape.out" rulefit_presolve_
    # The debug listener serves net/http/pprof and nothing else.
    curl -sf --retry 5 --retry-connrefused http://127.0.0.1:18095/debug/pprof/ > /dev/null
    test "$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18095/metrics)" = 404
    "$work/ruleload" -target "$daemon_url" -seed 7 -requests 8 -rps 50 -quiet -out "$work/load.json"
    "$work/benchdiff" -check "$work/load.json"
    "$work/benchdiff" "$work/load.json" "$work/load.json" > /dev/null
    # One closed-loop request at a time cannot shed against
    # -max-inflight 2, so the in-process target must answer every
    # request with the served placement bytes.
    "$work/ruleload" -target "$daemon_url" -seed 7 -requests 8 -concurrency 1 -quiet -out "$work/load-live.json"
    "$work/ruleload" -inprocess -seed 7 -requests 8 -quiet -out "$work/load-inprocess.json"
    "$work/benchdiff" -advisory -json "$work/load-live.json" "$work/load-inprocess.json" > "$work/inprocess-diff.json"
    expect "$work/inprocess-diff.json" '"drifted": 0'
    reject "$work/inprocess-diff.json" '"workload_mismatch"'
    scrape /statusz '"requests_1m"'
    scrape /metrics 'rulefit_request_phase_seconds_bucket{phase="solve"'
    # GOMAXPROCS sizes the branch & bound pool, and the wire has no
    # workers option: the request body with one is refused, and the
    # same body without it is served.
    printf '{"problem": %s, "options": {"merging": true, "workers": 2, "timeLimitSec": 60}}' \
        "$(cat "$work/problem.json")" > "$work/workers-request.json"
    test "$(curl -s -o /dev/null -w '%{http_code}' -X POST --data @"$work/workers-request.json" "$daemon_url/v1/place")" = 400
    test "$(curl -s -o /dev/null -w '%{http_code}' -X POST --data @"$work/request.json" "$daemon_url/v1/place")" = 200
    stop_daemon

    step "shed-knee sweep (deterministic knee)"
    start_daemon 18091 -max-inflight 1 -max-queue 0 -solve-delay 30ms
    local i
    for i in 1 2; do
        "$work/ruleload" -target "$daemon_url" -sweep -seed 7 -requests 4 -max-concurrency 4 -quiet -out "$work/sweep$i.json"
        expect "$work/sweep$i.json" '"knee_concurrency": 1'
    done
    stop_daemon

    step "introspection (solvez mid-solve, deadline flight dump, profile pull with trace_id tag, traceview)"
    mkdir -p "$work/flight"
    start_daemon 18093 -max-inflight 1 -solve-delay 3s -flight-dir "$work/flight" \
        -debug-addr 127.0.0.1:18096
    curl -sf --retry 5 --retry-connrefused http://127.0.0.1:18096/debug/pprof/ > /dev/null
    curl -sf -X POST --data @"$work/request.json" "$daemon_url/v1/place" > "$work/place.json" &
    local curl_pid=$!
    # Scrape /debug/solvez while the request occupies its (delayed)
    # slot: a live snapshot with a gap field must show.
    for _ in $(seq 1 100); do
        curl -sf "$daemon_url/debug/solvez" > "$work/solvez.json" || true
        grep -q '"gap"' "$work/solvez.json" && break
        sleep 0.1
    done
    expect "$work/solvez.json" '"trace_id"'
    expect "$work/solvez.json" '"gap"'
    wait "$curl_pid"
    expect "$work/place.json" '"status":"optimal"'
    scrape /statusz '"requests_1m"'
    curl -sf "$daemon_url/debug/flightz" | "$work/traceview" -check > /dev/null
    # Deadline-killed solve: a tight-capacity instance (the hard Fig. 7
    # regime, which answers limit even after 60s) killed at 250ms must
    # leave its per-request flight ring in -flight-dir, and traceview
    # must parse it as a partial trace.
    go run ./cmd/benchgen -k 4 -rules 30 -capacity 25 -out "$work/tight-problem.json"
    place_request "$work/tight-problem.json" 0.25 > "$work/tight-request.json"
    curl -sf -X POST --data @"$work/tight-request.json" "$daemon_url/v1/place" > "$work/tight.json" &
    curl_pid=$!
    # The debug listener is the daemon's one CPU profiler. Pull a
    # profile as soon as the solve leaves admission (the solve-delay
    # sleep and the encode read "admitted"), while it runs.
    for _ in $(seq 1 500); do
        curl -sf "$daemon_url/debug/solvez" > "$work/solvez.json" || true
        grep -Eq '"phase": "(root_lp|search)"' "$work/solvez.json" && break
        sleep 0.01
    done
    test "$(curl -s -o "$work/cpu.pprof" -w '%{http_code}' 'http://127.0.0.1:18096/debug/pprof/profile?seconds=1')" = 200
    wait "$curl_pid"
    expect "$work/tight.json" '"stop_reason":"deadline"'
    local dump
    dump=$(ls -t "$work"/flight/flight-req-*.jsonl | head -1)
    test -s "$dump"
    "$work/traceview" -check "$dump" > "$work/dump-check.txt"
    expect "$work/dump-check.txt" partial
    # The solve ran under its trace_id pprof label, so the pulled
    # profile's samples name the request.
    local tight_id
    tight_id=$(sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' "$work/tight.json")
    go tool pprof -tags "$work/cpu.pprof" > "$work/tags.txt"
    expect "$work/tags.txt" trace_id
    expect "$work/tags.txt" "$tight_id"
    stop_daemon
    # No flag brings back the profile watchdog: ruleplaced refuses the
    # old flags as it does any unknown one (exit 2).
    local flag rc
    for flag in -profile-threshold=50ms -profile-dir=/tmp -flight-events=64; do
        rc=0
        timeout 10 "$work/ruleplaced" -addr 127.0.0.1:0 "$flag" 2> /dev/null || rc=$?
        test "$rc" = 2
    done

    step "session delta replay (warm/cold byte identity, session trace file)"
    mkdir -p "$work/traces"
    start_daemon 18092 -trace-dir "$work/traces"
    "$work/ruleload" -target "$daemon_url" -delta -seed 7 \
        -delta-steps 6 -delta-ingresses 4 -delta-rules 20 -quiet -out "$work/delta.json"
    "$work/benchdiff" -check "$work/delta.json"
    "$work/benchdiff" "$work/delta.json" "$work/delta.json" > /dev/null
    expect "$work/delta.json" '"mismatched": 0'
    scrape /metrics 'rulefit_sessions_active 1'
    # A session solve leaves the same -trace-dir file as /v1/place,
    # named by the trace ID in its response.
    curl -sf -X POST --data @"$work/request.json" "$daemon_url/v1/session" > "$work/session.json"
    local trace_id
    trace_id=$(sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' "$work/session.json")
    "$work/traceview" -check "$work/traces/trace-$trace_id.jsonl" > /dev/null
    # A merging-off session of the slack problem certifies every policy,
    # runs no solve, and leaves an empty trace file that still checks.
    printf '{"problem": %s, "options": {"timeLimitSec": 60}}' "$(cat "$work/problem.json")" \
        | curl -sf -X POST --data @- "$daemon_url/v1/session" > "$work/session-off.json"
    trace_id=$(sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' "$work/session-off.json")
    test -f "$work/traces/trace-$trace_id.jsonl"
    test ! -s "$work/traces/trace-$trace_id.jsonl"
    "$work/traceview" -check "$work/traces/trace-$trace_id.jsonl" > /dev/null
    stop_daemon

    step "diffcheck -replay on every committed regression fixture (instance and delta)"
    go build -o "$work/" ./cmd/diffcheck
    local fixture
    for fixture in $(find internal/diffcheck/testdata/regressions -name '*.json' | sort); do
        "$work/diffcheck" -sat-limit 2s -replay "$fixture"
    done

    step "Fig. 7 benchmark, one iteration"
    go test -bench=Fig7 -benchtime=1x -run '^$' -timeout 20m .

    step "benchdiff: baseline vs itself must be clean"
    "$work/benchdiff" BENCH_20260805T141853Z.json BENCH_20260805T141853Z.json

    step "benchdiff: two latest BENCH reports (advisory)"
    "$work/benchdiff" -advisory -dir .
}

stage_paper-smoke() {
    step "one Fig. 7 point at -scale 0.5 (fat-tree k=8, 10 min budget)"
    go build -o "$work/experiments" ./cmd/experiments
    timeout 600 "$work/experiments" -scale 0.5 -rules 25 -caps 100 \
        -seeds 1 -timeout 300s -json "$work/paper-smoke.json"

    step "benchdiff vs the committed smoke baseline"
    # Loose wall thresholds (2x, 500 ms) absorb host variance; the hard
    # part of the gate is the solve status and the deterministic
    # node/iteration alignment.
    go run ./cmd/benchdiff -threshold 1.0 -min-wall-ms 500 \
        scripts/paper-smoke-baseline.json "$work/paper-smoke.json"
}

case "${1:-all}" in
all) stages=(lint test race fuzz smoke) ;;
quick) stages=(lint test smoke) ;;
*) stages=("$@") ;;
esac
for s in "${stages[@]}"; do
    declare -F "stage_$s" > /dev/null || { echo "check.sh: unknown stage $s" >&2; exit 2; }
done
for stage in "${stages[@]}"; do
    printf '\n==== stage %s\n' "$stage"
    "stage_$stage"
done
echo
echo "all checks passed"
