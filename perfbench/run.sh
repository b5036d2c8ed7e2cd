#!/bin/sh
# Builds the benchmark and kcored from this checkout, then runs the
# benchmark with the given arguments:
#
#	bash perfbench/run.sh --workload burst --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout, the Go build cache included.
set -eu

if [ ! -f go.mod ] || [ ! -d cmd/kcored ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/kcored not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain's caches, temporaries and config (telemetry
# included) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/kcored" ./cmd/kcored
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -kcored "$out/kcored" -workdir "$out" "$@"
