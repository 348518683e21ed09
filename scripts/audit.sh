#!/usr/bin/env bash
# Union-coverage audit: which functions does nothing in the repository
# reach? Builds every command, every example and the repository
# benchmark with coverage instrumentation, drives each of them end to
# end, adds the tier-1 tests' -coverpkg profile, and prints three lists:
#
#   1. the functions that stay at 0 % in the union — the candidates for
#      deletion or for the test or figure that justifies them;
#   2. the functions at 0 % in the runs' profile alone but reached by a
#      test — code that only tests reach;
#   3. the unexported struct fields that no non-test code reads
#      (TestWriteOnlyFields in audit_test.go, a go/types scan behind the
#      audit build tag).
#
# Everything it builds or writes goes to a temporary directory.
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
run "$tmp/bin/rofltopo" -as
# The interactive node: each command once, then quit.
printf 'id\nring\nstats\nsend x hi\nquit\n' |
	run "$tmp/bin/roflnode" -name audit -loss 0.01 -metrics-addr 127.0.0.1:0 -events "$tmp/events.jsonl"
run "$tmp/bin/roflnode" cluster -n 20 -seed 1 -churn
run "$tmp/bin/roflsim" -fig scaling -scalehosts 20000
run "$tmp/bin/roflperf" -seconds 2 -out "$tmp/perf"

go test -count=1 -covermode=set -coverpkg=./... -coverprofile="$tmp/tests.out" ./... >/dev/null
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/runs.out"
# cover cannot find the nested benchmark module's sources from here, so
# its own package's blocks are dropped; duplicate blocks merge as a union.
grep -v '^rofl/benchmarks/' "$tmp/runs.out" >"$tmp/runs-only.out"
{ cat "$tmp/tests.out"; tail -n +2 "$tmp/runs-only.out"; } >"$tmp/union.out"
zero() { go tool cover -func="$1" | awk '$NF == "0.0%" { print $1, $2 }'; }
zero "$tmp/union.out" | tee "$tmp/union.txt"
echo
echo "# Reached only by tests (0 % in the runs' profile, not in the list above):"
zero "$tmp/runs-only.out" | grep -vxF -f "$tmp/union.txt" || true
echo
echo "# Unexported struct fields no non-test code reads:"
go test -tags audit -count=1 -run '^TestWriteOnlyFields$' . | sed -n 's/^ *audit_test.go:[0-9]*: //p' || true
