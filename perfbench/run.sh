#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload ycsb-b --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) goes
# under .bench_build/ at the checkout root, so a run touches nothing
# outside the checkout. The build is offline: the module needs only the
# repository beside it and the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
