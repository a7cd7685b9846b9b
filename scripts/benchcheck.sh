#!/bin/sh
# benchcheck.sh — performance regression gate (opt-in:
# BENCHCHECK=1 make verify, or run directly). Two passes:
#
#   1. the newest committed BENCH_*.json must satisfy the rules'
#      committed-baseline bounds — the recorded perf trajectory never
#      regresses silently;
#   2. a fresh paperbench -json measurement on this host must satisfy
#      the rules' fresh bounds (benchcheck -fresh), looser where host
#      wall-clock on a loaded or frequency-scaled machine is noisy.
#
# The rules and both bound columns live in cmd/benchcheck. Both passes
# always run, so a red committed baseline does not hide the fresh
# verdict; the script fails if either pass failed.
set -eu
cd "$(dirname "$0")/.."

echo '== benchcheck: committed baseline'
committed=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
if [ -z "$committed" ]; then
	echo "benchcheck: no committed BENCH_*.json baseline" >&2
	exit 1
fi
status=0
go run ./cmd/benchcheck "$committed" || status=1

echo '== benchcheck: fresh measurement (paperbench -json, -fresh bounds)'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/paperbench" ./cmd/paperbench
go build -o "$tmp/benchcheck" ./cmd/benchcheck
(cd "$tmp" && ./paperbench -json && ./benchcheck -fresh) || status=1

if [ "$status" -ne 0 ]; then
	echo 'benchcheck: FAILED' >&2
	exit 1
fi
echo 'benchcheck: OK'
