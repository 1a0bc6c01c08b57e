#!/usr/bin/env bash
# Builds the benchmark and the agmdp-serve binary it drives from the sources
# of this checkout, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload publish-tricycle --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache,
# temporary files, binaries and server state.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" || ! -d "$root/cmd/agmdp-serve" ]]; then
	echo "bench/run.sh: run from the root of an agmdp checkout" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/home" "$build/work"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOTELEMETRY=off

go build -o "$build/bin/agmdp-serve" ./cmd/agmdp-serve
(cd bench && go build -o "$build/bin/agmdp-bench" .)
if [[ ${1:-} == compare ]]; then
	exec "$build/bin/agmdp-bench" "$@"
fi
exec "$build/bin/agmdp-bench" --server "$build/bin/agmdp-serve" --work "$build/work" "$@"
