#!/usr/bin/env bash
# The benchmark's one command.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload in its own process (what BENCHMARK.json's
#       `command` invokes). Builds the package first, offline, release.
#       The last line of stdout is the JSON result.
#
#   run.sh [--repeats <n>] [--seconds <s>] [--seed <n>] [--trace] [--out <file>]
#       The whole suite: every workload, <n> runs each (default 5), order
#       rotated between rounds; prints every metric by name with its unit
#       and writes the numbers to benchmark/out/.
#   run.sh --compare <A.json> <B.json>
#       Applies the per-metric bounds to two suite results:
#       ok / regressed / unresolved per workload row.
#   run.sh --smoke
#       Every workload at ~1/20 size with all checks on, then
#       `cargo fmt --check` and `cargo clippy -D warnings` on this package.
#
# Run it from anywhere; it reads and writes only under the repository.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

workload_run=0
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload_run=1 ;;
        --trace) if [ "${args[i + 1]:-}" = "1" ]; then trace=1; fi ;;
    esac
done

if [ "$workload_run" -eq 0 ]; then
    exec python3 "$here/suite.py" "$@"
fi

target="${CARGO_TARGET_DIR:-$here/target}"
build() {
    cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

# The end-to-end binary must build; without it there is no result.
build vmr-bench-e2e
bin="$target/release/vmr-bench-e2e"
if [ "$trace" -eq 1 ]; then
    # The layer legs reach into layer internals; when they stop
    # compiling, the end-to-end binary still reports the counts.
    if build vmr-bench-trace; then
        bin="$target/release/vmr-bench-trace"
    else
        echo "layers: unavailable (vmr-bench-trace does not build; counts only)"
    fi
fi
exec "$bin" --out "$here/out" "$@"
