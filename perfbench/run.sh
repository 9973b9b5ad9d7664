#!/usr/bin/env bash
# Builds the benchmark binary from source, then runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload prop-800 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, sealed run
# directories and the span traces. Compilation happens before the binary
# starts, so it is never inside a timed interval.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

if ! (cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
