#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given (see README.md). Everything the build and the run write lands in
# benchmarks/out/.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/roflperf" .
exec "$out/roflperf" -out "$out" "$@"
