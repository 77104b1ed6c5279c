#!/usr/bin/env bash
# Repo-wide hygiene gate. Runs, in order: `cargo fmt --check`; the
# hash-collection grep gate on the src/ of the six simulated-core
# crates (desim, netsim, vcore, core, shuffle, trust); the unwrap/expect grep
# gate on the byte paths that read peer or disk bytes (durable's crc,
# frame, wire; all of rtnet's src/); the test-only API gate
# (scripts/test_only_api.sh: no library `pub fn` that only tests call,
# outside DESIGN.md's keep list); clippy on the
# workspace, all targets, warnings as errors; the examples build; the
# workspace test suite; then the bench smokes — flow_churn (asserts its
# `BENCH_netsim.json` line appeared), `table1 --quick`, `fig4`,
# `supernode_relay`, `nat_sweep`, `interclient_ablation`,
# `locality_ablation`, `backoff_sweep`, `availability_study`,
# `mitigation_study`, `replication_sweep` and `trust_study --smoke`
# (its simulated columns: no `wall s`, no `BENCH_trust.json` line)
# diffed against tests/golden/, the crash-replay smoke, the durability torture
# smoke, and the benchmark's own smoke (all six BENCHMARK.json
# workloads at ~1/20 size, every check on). It
# writes nothing into the tree: `git status --porcelain` must read the
# same at the end as at the start. Run before sending a change.
#
# Usage: scripts/check.sh [--no-test] [--no-bench] [--full]
#
#   --no-test   skip the workspace test suite
#   --no-bench  skip every bench smoke (overrides --full)
#   --full      also run every property test (each crates/*/tests/*.rs
#               that uses proptest, and the library target of each crate
#               whose src/ holds a proptest! block) at one fresh, printed
#               PROPTEST_SEED with 10x the cases, timing each target
#               (scripts/fences.sh), and the slow smokes: the
#               20k-host netsim scale leg, the shuffle strategy ablation,
#               the trust ablation, and the 10k rtnet soak (its p99
#               comes from the server child's `STATS` line) with the
#               poll runtime's concurrency ladder

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

tree_before="$(git status --porcelain)"

# Runs a study bin; fails unless it exits 0 and printed its `$1 {...}`
# line (no `grep -q`: an early exit would SIGPIPE the bin under pipefail).
expect_json_line() {
    local tag="$1"
    shift
    "$@" | grep "^$tag {" > /dev/null \
        || { echo "$* failed or emitted no $tag line" >&2; exit 1; }
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> determinism gate: no std hash collections in the src/ of desim, netsim, vcore, core, shuffle and trust"
# Iteration order of a std HashMap / HashSet differs per instance, and
# every run of the simulated core must be a function of its config and
# seed: key a table by a dense id in a Vec, or use a BTreeMap. No
# allow-list. Tests, rtnet, mapreduce and bench are out of scope.
hash_free=(crates/{desim,netsim,vcore,core,shuffle,trust}/src)
if grep -rnE 'Hash(Map|Set)|hash_(map|set)' "${hash_free[@]}"; then
    echo "std hash collection in ${hash_free[*]} (use an id-indexed Vec or a BTreeMap)" >&2
    exit 1
fi

echo "==> panic gate: no unwrap()/expect( in the WAL byte paths or in rtnet outside their tests"
# ROADMAP items 6b and 9(c), as far as they are done: everything these files run on
# untrusted bytes (a torn log, a hostile peer) returns a typed error or
# a torn tail. Only the part of each file above its `#[cfg(test)]`
# module is checked.
for f in crates/durable/src/{crc,frame,wire}.rs crates/rtnet/src/*.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\.unwrap\(\)|\.expect\('; then
        echo "unwrap()/expect( in $f (return the error)" >&2
        exit 1
    fi
done

echo "==> test-only API gate: every library pub fn has a non-test caller or a DESIGN.md keep-list entry"
scripts/test_only_api.sh

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> examples build (EngineBuilder construction surface)"
cargo build --offline --examples

if [ "$NO_TEST" -eq 0 ]; then
    echo "==> cargo test (workspace)"
    cargo test --offline --workspace --quiet
fi

if [ "$NO_TEST" -eq 0 ] && [ "$FULL" -eq 1 ]; then
    # The default seed replays the same inputs on every run; a fresh one
    # searches. A failure prints its seed and case: rerun with it.
    seed="$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')"
    echo "==> every property test at a fresh seed, 10x the cases (--full)"
    scripts/fences.sh "$seed"
fi

if [ "$NO_BENCH" -eq 0 ]; then
    echo "==> bench smoke: flow_churn"
    cargo build --offline --release -p vmr-bench --bin flow_churn --bin table1 --bin fig4 \
        --bin supernode_relay --bin nat_sweep --bin interclient_ablation --bin locality_ablation \
        --bin backoff_sweep --bin availability_study --bin mitigation_study --bin replication_sweep \
        --bin trust_study
    expect_json_line BENCH_netsim.json ./target/release/flow_churn

    if [ "$FULL" -eq 1 ]; then
        echo "==> netsim scale smoke: 20k-host exact leg on the volunteer population (--full, ~3 min)"
        ./target/release/flow_churn --scale-smoke
    fi

    echo "==> bench smoke: table1 --quick (with metrics dump), fig4, supernode_relay, the"
    echo "    NAT / inter-client / locality studies, the back-off cap and availability"
    echo "    studies and the mitigation, replication and trust studies vs the committed goldens"
    ./target/release/table1 --quick --metrics /tmp/table1_quick_metrics.json \
        | diff tests/golden/table1_quick.txt - \
        || { echo "table1 --quick diverged from tests/golden/table1_quick.txt" >&2; exit 1; }
    [ -s /tmp/table1_quick_metrics.json ] || { echo "table1 --metrics wrote nothing" >&2; exit 1; }
    ./target/release/fig4 | diff tests/golden/fig4.txt - \
        || { echo "fig4 diverged from tests/golden/fig4.txt" >&2; exit 1; }
    # supernode_relay and the three NAT / peer-transfer studies read the
    # NAT traversal outcomes and the bytes sent through the server.
    for study in supernode_relay nat_sweep interclient_ablation locality_ablation; do
        ./target/release/$study | diff "tests/golden/$study.txt" - \
            || { echo "$study diverged from tests/golden/$study.txt" >&2; exit 1; }
    done
    # The back-off and availability studies run with the event journal
    # off, under back-off caps of 60-2400 s and under owner suspend /
    # resume. The mitigation and replication studies fence the job
    # config (report switch, intermediate downloads, quorum).
    for study in backoff_sweep availability_study mitigation_study replication_sweep; do
        ./target/release/$study | diff "tests/golden/$study.txt" - \
            || { echo "$study diverged from tests/golden/$study.txt" >&2; exit 1; }
    done
    # The trust estimator and replication policy at their constants:
    # every simulated column, without the wall-clock one and the JSON line.
    ./target/release/trust_study --smoke | grep -v '^BENCH_trust.json ' | sed -E 's/ \| [^|]*$//' \
        | diff tests/golden/trust_study_smoke.txt - \
        || { echo "trust_study --smoke diverged from tests/golden/trust_study_smoke.txt" >&2; exit 1; }

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
        echo "    (coded >=25% byte cut at 2000 hosts)"
        cargo build --offline --release -p vmr-bench --bin shuffle_ablation
        expect_json_line BENCH_shuffle.json ./target/release/shuffle_ablation --smoke

        echo "==> trust smoke: adaptive-replication ablation, 40-host legs (--full)"
        cargo build --offline --release -p vmr-bench --bin trust_study
        expect_json_line BENCH_trust.json ./target/release/trust_study --smoke

        echo "==> rtnet soak smoke: 10k concurrent volunteers vs the poll runtime (--full)"
        echo "    (two-process harness; zero lost requests, exact busy accounting, bounded p99 from the child's STATS line)"
        SOAK_SMOKE=1 cargo test --offline --release -p volunteer-mr \
            --test soak_rtnet soak_10k_volunteers -- --nocapture

        echo "==> rtnet soak smoke: the poll runtime's concurrency ladder"
        cargo build --offline --release -p vmr-bench --bin rtnet_soak
        expect_json_line BENCH_rtnet.json ./target/release/rtnet_soak --smoke
    fi
fi

if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "check.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(git status --porcelain) >&2 || true
    exit 1
fi

echo "==> OK"
