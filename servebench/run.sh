#!/usr/bin/env bash
# Builds the advhunter binary and the servebench command from source, then runs
# one benchmark invocation. Run it from the repository root:
#
#   bash servebench/run.sh --workload hit-wire --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, both binaries, the
# servers' logs and the working copy of the twin table.
set -euo pipefail

root=$PWD
if [[ ! -f go.mod || ! -d cmd/advhunter ]]; then
	echo "servebench: run from the repository root; go.mod or cmd/advhunter is missing in $root" >&2
	exit 1
fi
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry" "$build/gopath"
# With telemetry on, every go command may start a detached upload process
# that outlives the benchmark.
printf 'off\n' >"$build/config/go/telemetry/mode"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local

go build -o "$build/bin/advhunter" ./cmd/advhunter >&2
(cd servebench && go build -o "$build/bin/servebench" .) >&2

exec "$build/bin/servebench" -bin "$build/bin/advhunter" -work "$build" "$@"
