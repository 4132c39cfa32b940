#!/bin/sh
# Regenerate BENCH_core.json, the tracked benchmark trajectory of the
# analysis engine (see docs/PERF.md): five `go test -bench` samples of
# every row, with their median and MAD. Run on an otherwise idle
# machine; ns/op is hardware-dependent, allocs/op should be stable
# anywhere. A full run takes about two minutes on two cores.
#
# Usage: scripts/bench_core.sh [extra mcs-bench flags...]
#
# Arguments pass through to mcs-bench (e.g. -compare BENCH_core.json).
# For a CPU profile, run the row's benchmark under go test, e.g.
# go test -run '^$' -bench '^BenchmarkMinSpeedupFMS$' -cpuprofile cpu.pprof .
set -eux

cd "$(dirname "$0")/.."

# Every run also appends a dated entry (git rev, per-benchmark numbers,
# FMS pruned-vs-unpruned event counters) to BENCH_trajectory.json, the
# commit-over-commit history CI uploads as an artifact.
go run ./cmd/mcs-bench -out BENCH_core.json -trajectory BENCH_trajectory.json "$@"
