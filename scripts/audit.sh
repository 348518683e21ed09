#!/usr/bin/env bash
# Union-coverage audit: which functions does nothing in the repository
# reach? Builds every command, every example and the repository
# benchmark with coverage instrumentation, drives each of them end to
# end, adds the tier-1 tests' -coverpkg profile, and prints the
# functions that stay at 0 % in the union — the candidates for deletion
# or for the test or figure that justifies them. Everything it builds or
# writes goes to a temporary directory.
#
#   bash scripts/audit.sh        # or: make audit
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov"

for dir in cmd/* examples/*; do
	go build -cover -covermode=set -coverpkg=./... -o "$tmp/bin/$(basename "$dir")" "./$dir"
done
# The benchmark is a nested module outside ./...: build it from its own
# directory, output outside the tree.
(cd benchmarks && GOWORK=off go build -cover -covermode=set -coverpkg=rofl/... -o "$tmp/bin/roflperf" .)

run() { GOCOVERDIR="$tmp/cov" "$@" >/dev/null; }
run "$tmp/bin/roflsim" -all -quick
for dir in examples/*; do run "$tmp/bin/$(basename "$dir")"; done
run "$tmp/bin/rofltopo" -isp all
run "$tmp/bin/rofllint" ./...
run "$tmp/bin/roflnode" cluster -n 20 -seed 1 -churn
run "$tmp/bin/roflsim" -fig scaling -scalehosts 20000
run "$tmp/bin/roflperf" -seconds 2 -out "$tmp/perf"

go test -count=1 -covermode=set -coverpkg=./... -coverprofile="$tmp/tests.out" ./... >/dev/null
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/runs.out"
# cover cannot find the nested benchmark module's sources from here, so
# its own package's blocks are dropped; duplicate blocks merge as a union.
{ cat "$tmp/tests.out"; tail -n +2 "$tmp/runs.out"; } | grep -v '^rofl/benchmarks/' >"$tmp/union.out"
go tool cover -func="$tmp/union.out" | awk '$NF == "0.0%"'
