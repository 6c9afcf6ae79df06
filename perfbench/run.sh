#!/usr/bin/env bash
# Builds the benchmark, brserve and brbench from the tree into
# .bench_build/ and runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload serve-memo --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/brserve" ]]; then
	echo "run.sh: run from the repository root (go.mod, internal/ and cmd/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/brserve" ./cmd/brserve
go build -o "$build/bin/brbench" ./cmd/brbench

exec "$build/bin/perfbench" -root "$root" -brserve "$build/bin/brserve" -brbench "$build/bin/brbench" "$@"
