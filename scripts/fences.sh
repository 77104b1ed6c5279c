#!/usr/bin/env bash
# Runs every property test ("fence") once at the given PROPTEST_SEED
# with 10x the cases, and prints each target's wall time. The targets
# are each crates/*/tests/*.rs that starts `use proptest`, and the
# library target of each crate whose src/ holds a `proptest!` block.
# Exits non-zero at the first failing target, after printing its output
# and the seed that reproduces it.
#
# Usage: scripts/fences.sh <seed>
#
# `scripts/check.sh --full` calls it with a fresh seed;
# `scripts/soak_fences.sh` calls it at fresh seeds until a time budget
# runs out.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/fences.sh <seed>" >&2
    exit 2
fi
seed="$1"

echo "    PROPTEST_SEED=$seed PROPTEST_CASES=2560"
package_of() { sed -n 's/^name = "\(.*\)"/\1/p' "$1/Cargo.toml" | head -n 1; }
targets=()
for f in crates/*/tests/*.rs; do
    if grep -q '^use proptest' "$f"; then
        crate="${f%/tests/*}"
        targets+=("$(package_of "$crate") --test $(basename "$f" .rs)")
    fi
done
for crate in crates/*; do
    if grep -rqF 'proptest!' "$crate/src"; then
        targets+=("$(package_of "$crate") --lib")
    fi
done
for t in "${targets[@]}"; do
    read -r package kind name <<< "$t"
    start="$(date +%s.%N)"
    # shellcheck disable=SC2086 # `$kind $name` is `--lib` or `--test <file>`
    out="$(PROPTEST_SEED="$seed" PROPTEST_CASES=2560 \
        cargo test --offline -p "$package" $kind $name --quiet 2>&1)" \
        || { echo "$out" >&2; echo "property tests failed: -p $t at PROPTEST_SEED=$seed" >&2; exit 1; }
    awk -v t="$t" -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "    %-40s %8.1f s\n", t, b - a }'
done
