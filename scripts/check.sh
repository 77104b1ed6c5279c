#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, the hash-collection grep gate,
# lints (warnings are errors), the full test suite, the observability
# feature matrix, and a bench smoke
# that refreshes BENCH_netsim.json and diffs Table I / Fig. 4 against
# the committed goldens, and the benchmark's own smoke (all six
# BENCHMARK.json workloads at ~1/20 size, every check on). Run before
# sending a change.
#
# Usage: scripts/check.sh [--no-test] [--no-bench] [--full]
#
#   --no-test   skip the workspace test suite
#   --no-bench  skip every bench smoke (overrides --full)
#   --full      also run the slow smokes: the 20k-host netsim scale leg,
#               the shuffle strategy ablation (refreshes
#               BENCH_shuffle.json), the trust ablation, and the 10k
#               rtnet soak (refreshes BENCH_rtnet.json)

set -euo pipefail
cd "$(dirname "$0")/.."

NO_TEST=0
NO_BENCH=0
FULL=0
for arg in "$@"; do
    case "$arg" in
        --no-test) NO_TEST=1 ;;
        --no-bench) NO_BENCH=1 ;;
        --full) FULL=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> determinism gate: no std hash collections in crates/desim/src"
# Iteration order of a std HashMap / HashSet differs per instance; the
# kernel everything replays on has no use for one (ROADMAP item 3b: the
# other deterministic crates join this list as they are converted).
if grep -rnE 'Hash(Map|Set)' crates/desim/src; then
    echo "std hash collection in crates/desim/src (use a Vec, slab or BTreeMap)" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> feature matrix: vmr-obs recorder compiled out (--no-default-features)"
cargo build --offline -p vmr-bench --no-default-features
cargo build --offline -p vmr-durable --no-default-features
cargo build --offline -p vmr-trust --no-default-features
cargo build --offline -p vmr-shuffle --no-default-features

echo "==> examples build (EngineBuilder construction surface)"
cargo build --offline --examples

if [ "$NO_TEST" -eq 0 ]; then
    echo "==> cargo test (workspace)"
    cargo test --offline --workspace --quiet
fi

if [ "$NO_BENCH" -eq 0 ]; then
    echo "==> bench smoke: flow_churn (refreshes BENCH_netsim.json)"
    cargo build --offline --release -p vmr-bench --bin flow_churn --bin table1 --bin fig4
    ./target/release/flow_churn \
        | sed -n 's/^BENCH_netsim\.json //p' > BENCH_netsim.json
    [ -s BENCH_netsim.json ] || { echo "flow_churn emitted no BENCH line" >&2; exit 1; }

    if [ "$FULL" -eq 1 ]; then
        echo "==> netsim scale smoke: 20k-host aggregate leg (--full)"
        ./target/release/flow_churn --scale-smoke
    fi

    echo "==> bench smoke: table1 --quick (with metrics dump) and fig4 vs the committed goldens"
    ./target/release/table1 --quick --metrics /tmp/table1_quick_metrics.json \
        | diff tests/golden/table1_quick.txt - \
        || { echo "table1 --quick diverged from tests/golden/table1_quick.txt" >&2; exit 1; }
    [ -s /tmp/table1_quick_metrics.json ] || { echo "table1 --metrics wrote nothing" >&2; exit 1; }
    ./target/release/fig4 | diff tests/golden/fig4.txt - \
        || { echo "fig4 diverged from tests/golden/fig4.txt" >&2; exit 1; }

    echo "==> crash-replay smoke: crash mid-run, resume from the WAL mirror, byte-diff"
    echo "    (plain plan, then inline compaction resumed from the compacted mirror)"
    cargo build --offline --release -p vmr-bench --bin recovery_study
    ./target/release/recovery_study --smoke

    echo "==> durability torture smoke: seeded corruption fuzzer over recorded journals"
    TORTURE_SMOKE=1 cargo test --offline --release -p vmr-durable --test torture --quiet

    echo "==> benchmark smoke: all six workloads at ~1/20 size, checks on, both bins, fmt + clippy"
    echo "    (a broken workload check or a vmr-bench-trace that no longer compiles fails here)"
    bash benchmark/run.sh --smoke

    if [ "$FULL" -eq 1 ]; then
        echo "==> shuffle smoke: strategy ablation, 40/2k/100k legs (--full)"
        echo "    (refreshes BENCH_shuffle.json; coded >=25% byte cut at 2000 hosts)"
        cargo build --offline --release -p vmr-bench --bin shuffle_ablation
        ./target/release/shuffle_ablation --smoke \
            | sed -n 's/^BENCH_shuffle\.json //p' > BENCH_shuffle.json
        [ -s BENCH_shuffle.json ] || { echo "shuffle_ablation emitted no BENCH line" >&2; exit 1; }

        echo "==> trust smoke: adaptive-replication ablation, 40-host legs (--full)"
        cargo build --offline --release -p vmr-bench --bin trust_study
        ./target/release/trust_study --smoke > /dev/null

        echo "==> rtnet soak smoke: 10k concurrent volunteers vs the poll runtime (--full)"
        echo "    (two-process harness; zero lost requests, exact busy accounting, bounded p99)"
        SOAK_SMOKE=1 cargo test --offline --release -p volunteer-mr \
            --test soak_rtnet soak_10k_volunteers -- --nocapture

        echo "==> rtnet soak smoke: threaded-vs-poll ladder (refreshes BENCH_rtnet.json)"
        cargo build --offline --release -p vmr-bench --bin rtnet_soak
        ./target/release/rtnet_soak --smoke \
            | sed -n 's/^BENCH_rtnet\.json //p' > BENCH_rtnet.json
        [ -s BENCH_rtnet.json ] || { echo "rtnet_soak emitted no BENCH line" >&2; exit 1; }
    fi
fi

echo "==> OK"
