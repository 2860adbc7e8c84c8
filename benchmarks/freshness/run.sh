#!/usr/bin/env bash
# Builds the freshness harness from source and runs it. Everything it
# writes stays inside the checkout: the Go build cache, the binary and the
# nodes' WAL files under .bench_build/ at the repository root, traces
# under benchmarks/freshness/out/.
#
#   bash benchmarks/freshness/run.sh --workload all --seed 1
#
# Arguments are passed to the harness; see README.md beside this file.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

# The harness is its own module and reaches the repository through a
# replace directive, so without the repository around it this fails, and
# the script with it.
(cd "$here" && go build -o "$build/freshness" .)

exec "$build/freshness" -dir "$build/nodes" -out "$here/out" "$@"
