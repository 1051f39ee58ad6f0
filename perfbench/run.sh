#!/usr/bin/env bash
# Builds the benchmark harness and the mpsocd daemon from the sources of the
# checkout it is run in, then runs the harness with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under $CARGO_TARGET_DIR
# (default .bench_build) at the repository root: the Go build cache, the two
# binaries, the daemons' journal directories, logs and the trace files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

# Offline, local-toolchain build that writes only inside the checkout: the
# build cache, temporary files, GOPATH and the go command's own config and
# telemetry directory (XDG_CONFIG_HOME) all live under $out.
(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/mpsocd" repro/cmd/mpsocd
) >&2

exec "$out/bin/perfbench" -mpsocd "$out/bin/mpsocd" -work "$out/run" "$@"
