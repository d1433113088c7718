#!/usr/bin/env bash
# Builds crystal, crystald and the perfbench program from the source tree
# into .bench_build/ (build cache included, so nothing is written outside
# the checkout) and runs one workload of the analyzer benchmark.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload e6-cli --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh --workload all --seed 1 --seconds 20
#
# The last line of standard output is the JSON result; see
# perfbench/README.md for the workloads and metrics.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/crystal" || ! -d "$root/cmd/crystald" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/crystal, cmd/crystald)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$build/bin/" ./cmd/crystal ./cmd/crystald >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --root "$root" --bin "$build/bin" "$@"
