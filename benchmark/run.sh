#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash benchmark/run.sh --workload testbed-train --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the go command's own configuration (XDG_CONFIG_HOME, where it keeps
# telemetry counters) go to .bench_build/ (or $CARGO_TARGET_DIR when
# set), so the run writes nothing outside the checkout. The build fails,
# and no result is printed, when the repository's own sources are
# missing.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/tango-benchmark" .)
exec "$out/tango-benchmark" "$@"
