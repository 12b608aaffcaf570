#!/usr/bin/env bash
# Builds the perfbench load generator from this checkout's sources and
# runs it, forwarding every argument:
#
#   bash perfbench/run.sh --workload tenants --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, run directories, results) stays under
# .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
# The go command keeps its telemetry under the user config directory;
# pointing that at the build directory keeps every write in the checkout.
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
