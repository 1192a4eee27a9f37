#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. From the root
# of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and traces.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GO111MODULE=on
(cd "$here" && go build -o "$out/perfbench" .)
# Freed heap pages go back with MADV_FREE, so the collection forced before
# each job does not make the next one take thousands of minor faults,
# whose cost follows the host's memory pressure rather than the program.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
