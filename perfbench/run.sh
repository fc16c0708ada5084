#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mm-full --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the build writes (Go's
# build cache, temp files, the binary) and the traced run's spans stay
# under .bench_build in that directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
