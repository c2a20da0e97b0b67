#!/usr/bin/env bash
# Builds the benchmark and ccserve from the source tree this script sits in,
# then runs one workload. All build state (binaries, Go build cache, temp
# files) stays under .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload cclique-gnp64k --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/ccserve" ccolor/cmd/ccserve
cd "$root"
exec "$out/perfbench" -ccserve "$out/ccserve" "$@"
