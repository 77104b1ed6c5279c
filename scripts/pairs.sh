#!/usr/bin/env bash
# Alternating benchmark pairs: a git revision against the working tree.
#
#   scripts/pairs.sh [--pairs N] [--seed S] [--seconds T] <rev> <workload>...
#
# Copies <rev> (git archive) and the working tree (tracked and untracked,
# not ignored files) into two directories of equal path length under
# $TMPDIR, builds each through its own benchmark/run.sh (one warm-up run
# per side and workload), then runs N pairs of every workload at one
# seed and length, flipping which side goes first from pair to pair.
# The build products and both copies are removed at the end. Nothing is
# written outside $TMPDIR.
#
# Per workload it prints each pair's values, then for setup_s, wall_s
# and peak_rss_mb each side's median [q1–q3], the change of the median
# and in how many pairs the working tree read lower; each side's median
# minor page faults per repeat; the failed-operation share of each side;
# and whether the two sides' `exact` blocks (the simulated counts, which
# must repeat for a seed) are equal.
#
# Faults per repeat are the benchmark process's minor faults
# (getrusage(RUSAGE_CHILDREN) around the run) over the REPORT's
# `repeats`. They tell glibc's heap changing mode (a different mmap
# threshold faults in thousands more pages a repeat) from a cost in the
# code. So that cargo's faults stay out, the timed runs start the binary
# that run.sh builds and then execs, with run.sh's arguments.
#
# Why equal path lengths: the same source built at checkout paths of
# different length can read a different heap layout (setup_s 13.7 vs
# 8.7 ms on volunteers2k_plain), so a pair is only about the code when
# both sides are built alike.
set -euo pipefail

pairs=5
seed=1
seconds=4
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        -h | --help) sed -n '2,31p' "$0"; exit 0 ;;
        *) break ;;
    esac
done
if [ $# -lt 2 ]; then
    echo "usage: scripts/pairs.sh [--pairs N] [--seed S] [--seconds T] <rev> <workload>..." >&2
    exit 2
fi
rev="$1"
shift
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commit="$(git -C "$repo" rev-parse --short "$rev^{commit}")"

work="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
# Equal-length side names keep every path in both builds equally long.
base="$work/parent"
head="$work/change"
mkdir -p "$base" "$head"
git -C "$repo" archive "$commit" | tar -x -C "$base"
# A tracked file deleted in the working tree is listed but not copied.
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    xargs -0 tar -c --no-recursion --ignore-failed-read) | tar -x -C "$head"
unset CARGO_TARGET_DIR

# Runs its arguments, then prints `FAULTS <n>`: the minor page faults
# of that one child (a fresh interpreter has waited for no other).
count_faults='
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
sys.stdout.flush()
print("FAULTS", resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)
sys.exit(code)'

# One run of a side's built binary: prints the REPORT, result and FAULTS
# lines; on a failure, what the run printed goes to stderr.
run() {
    if ! python3 -c "$count_faults" "$1/benchmark/target/release/vmr-bench-e2e" \
        --out "$1/benchmark/out" --workload "$2" --seed "$seed" --seconds "$3" --trace 0 \
        >"$work/run.out" 2>&1; then
        cat "$work/run.out" >&2
        return 1
    fi
    grep -E '^(REPORT |\{|FAULTS )' "$work/run.out"
}

for workload in "$@"; do
    log="$work/$workload.log"
    : >"$log"
    # One warm-up run per side through its run.sh, which builds it.
    for side in "$base" "$head"; do
        if ! bash "$side/benchmark/run.sh" --workload "$workload" --seed "$seed" \
            --seconds 0.01 --trace 0 >"$work/run.out" 2>&1; then
            cat "$work/run.out" >&2
            exit 1
        fi
    done
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order=("$base" "$head"); else order=("$head" "$base"); fi
        for side in "${order[@]}"; do
            run "$side" "$workload" "$seconds" | sed "s|^|$(basename "$side") $i |" >>"$log"
        done
    done
    python3 - "$log" "$workload" "$seed" "$seconds" "$pairs" "$commit" <<'EOF'
import json, statistics, sys

log, workload, seed, seconds, pairs, commit = sys.argv[1:]
runs = {"parent": {}, "change": {}}
for line in open(log):
    side, i, rest = line.split(" ", 2)
    rec = runs[side].setdefault(int(i), {})
    if rest.startswith("REPORT "):
        report = json.loads(rest[len("REPORT "):])
        rec["exact"] = report["exact"]
        rec["repeats"] = report["repeats"]
    elif rest.startswith("FAULTS "):
        rec["faults"] = int(rest.split()[1])
    else:
        rec["result"] = json.loads(rest)
n = int(pairs)
names = ["setup_s", "wall_s", "peak_rss_mb"]
val = lambda side, i, m: runs[side][i]["result"]["metrics"][m]["value"]
print(f"== {workload}: seed {seed}, {n} pairs of {seconds} s runs, "
      f"parent {commit} vs change (working tree)")
for i in range(n):
    cells = "  ".join(f"{m} {val('parent', i, m):.6g} -> {val('change', i, m):.6g}" for m in names)
    print(f"pair {i}: {cells}")

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"{'metric':<12} {'parent median [q1-q3]':<32} {'change median [q1-q3]':<32} change  lower")
for m in names:
    p = [val("parent", i, m) for i in range(n)]
    c = [val("change", i, m) for i in range(n)]
    (pm, p1, p3), (cm, c1, c3) = quart(p), quart(c)
    lower = sum(ci < pi for pi, ci in zip(p, c))
    pct = (cm - pm) / pm * 100 if pm else float("nan")
    print(f"{m:<12} {f'{pm:.6g} [{p1:.6g}-{p3:.6g}]':<32} {f'{cm:.6g} [{c1:.6g}-{c3:.6g}]':<32} "
          f"{pct:+6.1f}%  {lower}/{n}")
faults = {side: statistics.median(runs[side][i]["faults"] / runs[side][i]["repeats"]
                                  for i in range(n)) for side in runs}
print(f"minor faults per repeat (median): parent {faults['parent']:.0f}  "
      f"change {faults['change']:.0f}")
for side in ("parent", "change"):
    failed = sum(runs[side][i]["result"]["failed"] for i in range(n))
    attempted = sum(runs[side][i]["result"]["attempted"] for i in range(n))
    print(f"failed share {side}: {failed}/{attempted}")
exact = {side: [runs[side][i]["exact"] for i in range(n)] for side in runs}
same = all(e == exact["parent"][0] for side in exact for e in exact[side])
if same:
    print("exact blocks: equal")
else:
    a, b = exact["parent"][0], exact["change"][0]
    diff = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}
    print(f"exact blocks: DIFFER {diff}")
EOF
done
