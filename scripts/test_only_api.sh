#!/usr/bin/env bash
# Test-only API gate: a library function that only tests call is a
# mechanism no run uses. Lists every `pub fn` in the non-test lines of
# crates/*/src (a file's lines before its first `#[cfg(test)]`) and
# looks for its name, as a word, in the non-test lines of every .rs file
# under crates/*/src, src/, examples/ and benchmark/src. The `fn name`
# that defines it is not a use; any other mention is, in its own file
# too. The match is by name, so a name that another item also uses
# passes.
#
# Fails, printing file and name, on each unused name that is not on the
# keep list (DESIGN.md §6, "Public functions only tests call"), and on
# each keep-list entry that is no longer an unused `pub fn`, so the
# list stays the whole residue.
#
# Usage: scripts/test_only_api.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# Each file's non-test lines, as `file<TAB>line`.
non_test() {
    awk '/#\[cfg\(test\)\]/ { nextfile } { print FILENAME "\t" $0 }' "$@"
}

mapfile -t lib_files < <(find crates/*/src -name '*.rs' | sort)
mapfile -t all_files < <(find crates/*/src src examples benchmark/src -name '*.rs' | sort)

# Every word of every non-test line, except the name a `fn` defines.
used="$(non_test "${all_files[@]}" | cut -f2- | awk '{
    gsub(/[^A-Za-z0-9_]+/, " ")
    n = split($0, w, " ")
    for (i = 1; i <= n; i++) if (i == 1 || w[i - 1] != "fn") print w[i]
}' | sort -u)"

keep="$(sed -n '/^### .*Public functions only tests call/,/^#/p' DESIGN.md \
    | sed -nE 's/^- `([A-Za-z0-9_]+)`.*/\1/p' | sort -u)"

status=0
unused=""
while IFS=$'\t' read -r file name; do
    grep -qxF "$name" <<<"$used" && continue
    unused+="$name"$'\n'
    grep -qxF "$name" <<<"$keep" && continue
    echo "$file: pub fn $name: only tests call it (delete it, or keep it with a reason in DESIGN.md)" >&2
    status=1
done < <(non_test "${lib_files[@]}" \
    | sed -nE 's/^([^\t]*)\t\s*pub\s+(const\s+)?fn\s+([A-Za-z0-9_]+).*/\1\t\3/p')

for name in $keep; do
    if ! grep -qxF "$name" <<<"$unused"; then
        echo "DESIGN.md keep list: $name is no longer a pub fn that only tests call (drop the entry)" >&2
        status=1
    fi
done
exit "$status"
