#!/usr/bin/env bash
# Builds counterd and the benchmark from this checkout's source, then runs
# one workload:
#
#	bash perfbench/run.sh --workload local-wave --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every build output, the Go build
# cache and the span traces stay under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/counterd" ./cmd/counterd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -counterd "$out/counterd" -out "$out" "$@"
