#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload route-query --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache go under .bench_build/ at the root of
# the checkout, so a run writes nothing outside it. The build fails, and the
# script exits non-zero, when the lambmesh module is not next to perfbench/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
