#!/bin/sh
# Repository health check: formatting, vet, build, race-enabled tests.
# Same steps as `make check`, for environments without make.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race (sharded scheduler fail-fast) =="
# Same packages as `make race-shard`: the concurrent shard solves are
# the likeliest place for a fresh data race, so surface one in seconds
# instead of at the end of the full -race pass below.
go test -race ./internal/shard ./internal/dsslc ./internal/flow ./internal/topo

echo "== go test -race =="
go test -race -timeout 120m ./...

echo "== benchmark module tests =="
# A module of its own, so the pass above never builds it; its smoke test
# drives core through an outside ScheduleBatchInto-only LC wrapper.
(cd benchmark && go test .)

echo "== replay smoke =="
sh scripts/replay_smoke.sh

echo "== bench smoke =="
sh scripts/bench_smoke.sh

echo "== telemetry smoke =="
sh scripts/telemetry_smoke.sh

echo "== chaos smoke =="
sh scripts/chaos_smoke.sh

echo "OK"
