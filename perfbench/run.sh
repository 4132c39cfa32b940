#!/usr/bin/env bash
# Builds the benchmark and the mcs-serve replica it drives, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf|sweep|fleet \
#       --seed N --seconds S --trace 0|1
#
# Binaries, the Go build cache and the traced run's span files stay inside
# the checkout, under $CARGO_TARGET_DIR (default .bench_build). The last
# line of standard output is the run's JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/spans"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/mcs-serve" ./cmd/mcs-serve >&2

exec "$out/bin/perfbench" --serve-bin "$out/bin/mcs-serve" --spans-dir "$out/spans" "$@"
