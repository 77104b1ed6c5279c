#!/usr/bin/env bash
# Searches for property-test failures: runs scripts/fences.sh at fresh,
# printed seeds, one after another, until the time budget runs out (a
# started pass always finishes), then prints every seed with its pass or
# fail. Exits non-zero if any seed failed; rerun scripts/fences.sh with
# that seed to reproduce it.
#
# Usage: scripts/soak_fences.sh <budget_s>

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ] || ! [[ "$1" =~ ^[0-9]+$ ]]; then
    echo "usage: scripts/soak_fences.sh <budget_s>" >&2
    exit 2
fi
deadline=$(($(date +%s) + $1))

results=()
failed=0
while [ "$(date +%s)" -lt "$deadline" ]; do
    seed="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')"
    echo "==> fences at PROPTEST_SEED=$seed"
    if scripts/fences.sh "$seed"; then
        results+=("$seed pass")
    else
        results+=("$seed FAIL")
        failed=1
    fi
done

echo "==> ${#results[@]} seeds in $1 s"
for r in "${results[@]}"; do
    echo "    $r"
done
exit "$failed"
