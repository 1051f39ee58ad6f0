#!/usr/bin/env bash
# Runs every workload BENCHMARK.json gates once, briefly, through
# perfbench/run.sh, and fails unless each run's result line (the last line
# of its output) reports "correct":true and "failed":0. It checks that the
# benchmark builds against the module and that every job of each workload
# streams the reference bytes; it measures nothing. Run it from the
# repository root (make perfbench-smoke):
#
#   bash tools/perfbench-smoke.sh
#
# A run is retried once, and only when the daemon logs it kept show the
# known port race of perfbench's freeAddr ("bind: address already in use":
# a port reserved for a daemon was taken before the daemon bound it). Any
# other failure fails at once.
set -euo pipefail

if [ ! -f perfbench/run.sh ] || [ ! -f BENCHMARK.json ]; then
	echo "perfbench-smoke: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
workloads=$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json)
if [ -z "$workloads" ]; then
	echo "perfbench-smoke: no workloads found in BENCHMARK.json" >&2
	exit 1
fi
mkdir -p "$out"
result=$(mktemp "${TMPDIR:-/tmp}/perfbench-smoke.XXXXXX")
trap 'rm -f "$result"' EXIT

for w in $workloads; do
	for attempt in 1 2; do
		# perfbench keeps a failed run's daemon logs in
		# $out/run/<workload>-seed1-pid<pid>; clear the old ones so a match
		# below belongs to this attempt.
		rm -rf "$out/run/$w-seed1-pid"*
		echo "perfbench-smoke: $w (attempt $attempt)"
		status=0
		bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 >"$result" || status=$?
		cat "$result"
		last=$(tail -n 1 "$result")
		if [ "$status" -eq 0 ] && [[ $last == *'"correct":true,'*'"failed":0,'* ]]; then
			break
		fi
		if [ "$attempt" -eq 1 ] && grep -rqs --include='*.log' 'bind: address already in use' "$out/run/$w-seed1-pid"*; then
			echo "perfbench-smoke: $w lost a daemon to a port collision at boot; retrying once"
			continue
		fi
		echo "perfbench-smoke: $w failed (exit $status): ${last:-no result line}" >&2
		exit 1
	done
done
echo "perfbench-smoke: OK ($(echo $workloads | tr ' ' ','): correct, 0 failed)"
