#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_update --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, Go config, temporary files)
# stays under .bench_build/ in the current directory, and no module is
# fetched: the benchmark imports only the standard library and the
# repository's own module.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The benchmark pins its own parallelism: GOMAXPROCS is the CPU count and the
# collector runs at its default pacing.
unset GOMAXPROCS GOGC GOMEMLIMIT
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
