#!/usr/bin/env bash
# covercheck.sh — per-package statement coverage with a floor on the
# simulation layers.
#
# Runs `go test -cover` over every package, prints a per-package table
# (appended to $GITHUB_STEP_SUMMARY as Markdown when CI provides one), and
# fails if internal/mesh, internal/sim, internal/wormhole,
# internal/classtable, internal/server, internal/campaign,
# internal/faultring, or internal/stats — the packages this repo's
# topologies, experiments, the serving data plane, the reliability
# campaigns, the bake-off baseline, and the shared statistics stand on —
# drop below the floor.
#
# Usage:
#   scripts/covercheck.sh           # default 70% floor
#   MIN_COVER=80 scripts/covercheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_COVER="${MIN_COVER:-70}"
GATED='lambmesh/internal/mesh lambmesh/internal/sim lambmesh/internal/wormhole lambmesh/internal/classtable lambmesh/internal/server lambmesh/internal/campaign lambmesh/internal/faultring lambmesh/internal/stats'

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# One pass over all packages; test failures fail the script via pipefail.
go test -count=1 -cover ./... | tee "$TMP"

{
    echo "### Coverage"
    echo
    echo "| package | coverage |"
    echo "|---|---|"
    awk '$1 == "ok" {
        cov = "n/a"
        for (i = 2; i <= NF; i++)
            if ($i == "coverage:") cov = $(i+1)
        printf "| %s | %s |\n", $2, cov
    }' "$TMP"
} >>"${GITHUB_STEP_SUMMARY:-/dev/null}"

fail=0
for pkg in $GATED; do
    cov="$(awk -v p="$pkg" '$1 == "ok" && $2 == p {
        for (i = 2; i <= NF; i++)
            if ($i == "coverage:") { sub(/%$/, "", $(i+1)); print $(i+1) }
    }' "$TMP")"
    if [ -z "$cov" ]; then
        echo "covercheck: no coverage reported for $pkg" >&2
        fail=1
        continue
    fi
    if awk -v c="$cov" -v m="$MIN_COVER" 'BEGIN { exit !(c < m) }'; then
        echo "covercheck: $pkg coverage $cov% is below the $MIN_COVER% floor" >&2
        fail=1
    else
        echo "covercheck: $pkg coverage $cov% (floor $MIN_COVER%)" >&2
    fi
done
exit "$fail"
