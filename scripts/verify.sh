#!/bin/sh
# Tier-1 verification: formatting gate, build, vet (standard suite plus
# the repo's own mcs-vet analyzers), then the full test suite under the
# race detector (the parallel sweep engine in internal/par fans every
# experiment driver out across goroutines, so -race is part of tier-1),
# plus one plain run of internal/core's !race-tagged allocation tests.
# Finally a curl-driven smoke test of the mcs-serve daemon: start it on an
# ephemeral port, hit /healthz, POST the same analysis twice, and assert
# the second request was answered from the content-addressed cache.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: fail fast, listing the offending files.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Every binary the script builds goes into this temp directory, removed
# on exit, so a run leaves nothing outside the checkout.
tmp=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build ./...
go vet ./...

# mcs-vet: the custom analyzer suite (ratcheck, determcheck,
# metricscheck, plancheck, deltacheck, borrowcheck, lockcheck) —
# per-package, with interprocedural rules inside each package; see
# docs/STATIC_ANALYSIS.md. It runs under the cmd/go vettool protocol
# and also fails on stale or unjustified //lint:ignore directives.
go build -o "$tmp/mcs-vet" ./cmd/mcs-vet
go vet -vettool="$tmp/mcs-vet" ./...

# The -race run is the canonical full suite; the extra plain runs cover
# internal/core's, internal/sim's and internal/fleet's //go:build !race
# allocation-regression tests, which the race detector's allocations
# would falsify.
go test -race ./...
go test -run Alloc ./internal/core/...
go test -run Alloc ./internal/sim/ ./internal/fleet/

# Fuzz smoke: the production demand walks (compiled plans, bulk skips)
# must stay equivalent to the scalar event-by-event reference walks under
# a short randomized run (the checked-in seed corpus alone already ran as
# part of the suite above).
go test -fuzz FuzzWalkEquivalence -fuzztime 10s -run '^$' ./internal/core/

# Plan-row fuzz smoke: every compiled-plan evaluator (the shared row
# kernel behind TaskValue, TaskStep, Value, ValueCapped and BulkEval)
# must match the scalar HIMode/ADB, RightSlope and NextEvent closed forms
# for both curve kinds, at event points, their neighbours and around the
# division's multiply-path cutoff.
go test -fuzz FuzzPlanRows -fuzztime 10s -run '^$' ./internal/dbf/

# Bracket fuzz smoke: whenever the 128-bit utilization bracket decides a
# rounding, a comparison or a horizon bound, it must agree with the exact
# big.Rat sum of the same terms.
go test -fuzz FuzzBracketRound -fuzztime 10s -run '^$' ./internal/rat/

# Draw fuzz smoke: the division-free Bound must draw exactly the values,
# and leave the stream exactly where, the division-based Int63n does.
go test -fuzz FuzzBoundBelow -fuzztime 10s -run '^$' ./internal/gen/

# Substream fuzz smoke: SubRand's source must draw exactly what
# math/rand's own source draws for the same seed, before and after
# Rand.Seed.
go test -fuzz FuzzSubRandMatchesMathRand -fuzztime 10s -run '^$' ./internal/gen/

# Sampler fuzz smoke: the fleet's bucket-scattering replicate sampler
# must draw exactly the workload of the sort-based reference sampler,
# including past the bucket table's dense cap.
go test -fuzz FuzzSamplerMatchesReference -fuzztime 10s -run '^$' ./internal/fleet/

# Cap-decision fuzz smoke: the HI-mode QPA behind the design searches'
# probes must decide s_min ≤ cap exactly as the brute-force supremum and
# the Theorem-2 walk do, and report itself undecided where it does not
# apply (the probes' walk fallback is checked against brute force by
# TestCapProbeMeetsAgainstBruteForce and TestDesignSearchesAgainstBruteForce).
go test -fuzz FuzzCapDecision -fuzztime 10s -run '^$' ./internal/core/

# Delta fuzz smoke: random edit streams through a Session must reproduce
# the cold analysis byte for byte (the incremental-analysis contract).
go test -fuzz FuzzDeltaEquivalence -fuzztime 10s -run '^$' ./internal/core/

# Request-decoder fuzz smoke: arbitrary bodies posted to every endpoint
# that decodes a request (/v1/analyze, /v1/session create and edit,
# /v1/batch, /v1/simulate, /v1/fleet) must be answered without a panic
# and without a 500.
go test -fuzz FuzzRequestDecode -fuzztime 10s -run '^$' ./internal/server/

# Simulator fuzz smoke: the zero-allocation RunInto hot path must stay
# byte-identical to the frozen reference simulator on random task sets,
# workloads, and configs, with job and trace collection on and off (off,
# LO-schedulable sets skip their overrun-free busy periods).
go test -fuzz FuzzSimEquivalence -fuzztime 10s -run '^$' ./internal/sim/

# Bench smoke: every root, core, sim, fleet and generator benchmark (the
# BENCH_core.json rows among them) must still compile and complete one
# iteration (allocation regressions are pinned by the zero-allocation
# tests; this guards the benchmarks themselves).
go test -bench=. -benchtime=1x -run='^$' . ./internal/core/... ./internal/sim/ ./internal/fleet/ ./internal/gen/

# The repository benchmark is a nested module that `go test ./...` at the
# root does not reach: run its own tests, which check its correctness
# oracles against the engine.
(cd perfbench && go test -race ./...)

# --- mcs-serve smoke test -------------------------------------------------
go build -o "$tmp/mcs-gen" ./cmd/mcs-gen
go build -o "$tmp/mcs-serve" ./cmd/mcs-serve

"$tmp/mcs-gen" -example >"$tmp/tasks.json" 2>/dev/null
printf '{"tasks":%s,"speed":2}' "$(cat "$tmp/tasks.json")" >"$tmp/req.json"

"$tmp/mcs-serve" -addr 127.0.0.1:0 2>"$tmp/serve.log" &
serve_pid=$!

# The daemon announces "listening on http://ADDR" on stderr once ready.
base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$tmp/serve.log" | head -n 1)
    [ -n "$base" ] && break
    kill -0 "$serve_pid"
    sleep 0.1
done
[ -n "$base" ]

curl -fsS "$base/healthz" | grep -q '"status":"ok"'
curl -fsS -D "$tmp/h1" -o "$tmp/r1" -X POST --data-binary @"$tmp/req.json" "$base/v1/analyze"
curl -fsS -D "$tmp/h2" -o "$tmp/r2" -X POST --data-binary @"$tmp/req.json" "$base/v1/analyze"
grep -qi '^x-cache: miss' "$tmp/h1"
grep -qi '^x-cache: hit' "$tmp/h2"
cmp "$tmp/r1" "$tmp/r2"
grep -q '"safe": true' "$tmp/r1"
curl -fsS "$base/metrics" | grep -q '^mcs_cache_hits_total 1$'

# /v1/batch smoke against the paper's FMS case study: two items (one of
# them the already-cached analysis above), per-item results embedded
# verbatim, and the batch item counters exposed in /metrics.
"$tmp/mcs-gen" -fms >"$tmp/fms.json" 2>/dev/null
printf '{"items":[%s,{"tasks":%s,"minx":true,"speed":4}]}' \
    "$(cat "$tmp/req.json")" "$(cat "$tmp/fms.json")" >"$tmp/batch.json"
curl -fsS -o "$tmp/b1" -X POST --data-binary @"$tmp/batch.json" "$base/v1/batch"
grep -q '"count": 2' "$tmp/b1"
grep -q '"errors": 0' "$tmp/b1"
grep -q '"cache": "hit"' "$tmp/b1"
grep -q '"safe": true' "$tmp/b1"
curl -fsS "$base/metrics" | grep -q '^mcs_batch_items_total 2$'

# /v1/session smoke: create a session on the example set (same set+speed
# the /v1/analyze calls above cached, so even the create is a cache hit),
# stream a C(HI) edit (miss: a delta re-analysis runs), then revert it —
# the fingerprint round-trips, so the revert must hit the original
# cache entry without any analysis run.
sid=$(curl -fsS -X POST --data-binary @"$tmp/req.json" "$base/v1/session" |
    sed -n 's/.*"session": "\([^"]*\)".*/\1/p')
[ -n "$sid" ]
printf '{"action":"edit","session":"%s","edits":[{"op":"set","name":"tau1","params":[{"param":"cHI","value":5}]}]}' "$sid" >"$tmp/edit.json"
printf '{"action":"edit","session":"%s","edits":[{"op":"set","name":"tau1","params":[{"param":"cHI","value":4}]}]}' "$sid" >"$tmp/revert.json"
curl -fsS -D "$tmp/h3" -o "$tmp/s1" -X POST --data-binary @"$tmp/edit.json" "$base/v1/session"
grep -qi '^x-cache: miss' "$tmp/h3"
grep -q '"recomputed": true' "$tmp/s1"
curl -fsS -D "$tmp/h4" -o "$tmp/s2" -X POST --data-binary @"$tmp/revert.json" "$base/v1/session"
grep -qi '^x-cache: hit' "$tmp/h4"
grep -q '"editsApplied": 2' "$tmp/s2"
curl -fsS -X POST --data-binary "{\"action\":\"close\",\"session\":\"$sid\"}" "$base/v1/session" |
    grep -q '"closed":true'
curl -fsS "$base/metrics" | grep -q '^mcs_sessions_created_total 1$'
curl -fsS "$base/metrics" | grep -q '^mcs_session_edits_total 2$'

# /v1/fleet smoke: a small Monte-Carlo fleet over the example set. The
# summary is deterministic per seed, so the repeat must be a cache hit
# with identical bytes, and the replicate counter must count the first
# request only.
printf '{"tasks":%s,"runs":32,"seed":7,"horizon":200}' "$(cat "$tmp/tasks.json")" >"$tmp/fleet.json"
curl -fsS -D "$tmp/h5" -o "$tmp/f1" -X POST --data-binary @"$tmp/fleet.json" "$base/v1/fleet"
curl -fsS -D "$tmp/h6" -o "$tmp/f2" -X POST --data-binary @"$tmp/fleet.json" "$base/v1/fleet"
grep -qi '^x-cache: miss' "$tmp/h5"
grep -qi '^x-cache: hit' "$tmp/h6"
cmp "$tmp/f1" "$tmp/f2"
grep -q '"runs": 32' "$tmp/f1"
curl -fsS "$base/metrics" | grep -q '^mcs_fleet_runs_total 32$'

kill "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "mcs-serve smoke test passed"

# Fleet CLI smoke: -fleet -json on the same parameters must emit the
# same summary bytes the endpoint served (the two surfaces share
# fleet.Summary.JSON, and the fleet is workers-invariant by contract).
go run ./cmd/mcs-sim -fleet 32 -seed 7 -horizon 200 -overrun 0.001 -workers 3 -json - \
    "$tmp/tasks.json" >"$tmp/fleet_cli.json"
cmp "$tmp/fleet_cli.json" "$tmp/f1"
echo "fleet smoke test passed"
