#!/usr/bin/env python3
"""The benchmark suite: every workload, several runs each, one report.

Invoked through run.sh (see its header for the modes). Each run is one
process of one workload, started through run.sh itself, so the suite
measures exactly what BENCHMARK.json's command measures.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.sh")
OUT = os.path.join(HERE, "out")


def load(path):
    with open(path) as f:
        return json.load(f)


def contract():
    return load(os.path.join(ROOT, "BENCHMARK.json"))


def metric_table():
    return load(os.path.join(HERE, "metrics.json"))


def shell(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def metadata(repeats, seconds, seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": shell(["git", "rev-parse", "HEAD"]) or "unknown",
        "worktree_dirty": bool(shell(["git", "status", "--porcelain"])),
        "rustc": shell(["rustc", "--version"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "repeats": repeats,
        "run_seconds": seconds,
        "seed": seed,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_once(workload, seed, seconds, trace, smoke=False):
    """One process of one workload. Returns (REPORT object, result object)."""
    cmd = ["bash", RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload}: run failed with exit code {proc.returncode}")
    report = next((json.loads(l[len("REPORT "):]) for l in lines if l.startswith("REPORT ")), None)
    result = json.loads(lines[-1])
    unavailable = any(l.startswith("layers: unavailable") for l in lines)
    return report, result, unavailable


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values, unit):
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "unit": unit}


def suite(args):
    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    started = time.time()
    runs = {w: [] for w in names}
    for r in range(args.repeats):
        # Rotate the order so no workload always follows the same one.
        order = names[r % len(names):] + names[:r % len(names)]
        for w in order:
            report, result, _ = run_once(w, args.seed, seconds, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{w}: outputs incorrect")
            runs[w].append(report)
            print(f"  round {r + 1}/{args.repeats} {w:<20} wall_s "
                  f"{report['metrics']['wall_s']['median']:.4f}", flush=True)

    results = {"meta": metadata(args.repeats, seconds, args.seed), "workloads": {}}
    for w in names:
        reports = runs[w]
        metrics = {}
        for name, first in reports[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["median"] for r in reports],
                                      first["unit"])
        exact = reports[0]["exact"]
        results["workloads"][w] = {
            "metrics": metrics,
            "exact": exact,
            "exact_identical": all(r["exact"] == exact for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
        }

    if args.trace:
        for w in names:
            report, result, unavailable = run_once(w, args.seed, seconds, trace=True)
            if not result["correct"]:
                raise SystemExit(f"{w}: traced outputs incorrect")
            entry = results["workloads"][w]
            entry["layers_available"] = not unavailable
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer_units"] = {k: v["unit"] for k, v in result["metrics"].items()}
            print(f"  traced {w}", flush=True)

    print_results(results)
    os.makedirs(OUT, exist_ok=True)
    path = args.out or os.path.join(OUT, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nwrote {path} ({time.time() - started:.0f} s)")


def print_results(results):
    meta = results["meta"]
    print(f"\n# commit {meta['commit'][:12]}  {meta['rustc']}  {meta['nproc']} x {meta['cpu_model']}")
    print(f"# {meta['repeats']} runs per workload, {meta['run_seconds']} s each, seed {meta['seed']};"
          " value = median of the runs' medians, spread = (q3 - q1) / median")
    for w, entry in results["workloads"].items():
        same = "bit-identical across runs" if entry["exact_identical"] else "DIFFER ACROSS RUNS"
        print(f"\n{w}: {entry['failed']} of {entry['attempted']} operations failed; "
              f"simulated values and counts {same}")
        for name, m in entry["metrics"].items():
            spread = (m["q3"] - m["q1"]) / m["median"] * 100 if m["median"] else 0.0
            print(f"  {name:<34} {m['median']:>16.6f} {m['unit']:<6} spread {spread:5.2f} %  n={m['n']}")
        if "per_layer" in entry:
            if not entry.get("layers_available", True):
                print("  layers: unavailable (vmr-bench-trace does not build; counts only)")
            for name, v in entry["per_layer"].items():
                if v:
                    print(f"  {name:<34} {v:>16.6f} {entry['per_layer_units'][name]}")


def compare(path_a, path_b):
    a, b = load(path_a), load(path_b)
    table = metric_table()["end_to_end"]
    print(f"# A = {path_a} ({a['meta']['commit'][:12]}), B = {path_b} ({b['meta']['commit'][:12]})")
    print(f"{'workload':<20} {'metric':<22} {'A':>14} {'B':>14} {'change':>9} {'bound':>8}  verdict")
    bad = 0
    for w, ea in a["workloads"].items():
        eb = b["workloads"].get(w)
        if eb is None:
            continue
        for m in table:
            name = m["name"]
            if name not in ea["metrics"] or name not in eb["metrics"]:
                continue
            ma, mb = ea["metrics"][name], eb["metrics"][name]
            va, vb = ma["median"], mb["median"]
            worse = (vb - va) if m["better"] == "lower" else (va - vb)
            allowed = max(m["bound"] * abs(va), m.get("floor", 0.0))
            spread = max(ma["q3"] - ma["q1"], mb["q3"] - mb["q1"])
            if worse > allowed:
                verdict = "regressed"
            elif spread > allowed and not m.get("exact"):
                verdict = "unresolved"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            change = (vb - va) / va * 100 if va else 0.0
            bound = f"{m['bound'] * 100:.1f} %" if m["bound"] else f"{m.get('floor', 0.0):g}"
            print(f"{w:<20} {name:<22} {va:>14.6f} {vb:>14.6f} {change:>+8.2f}% {bound:>8}  {verdict}")
        if ea["exact"] != eb["exact"]:
            moved = sorted(k for k in ea["exact"] if ea["exact"][k] != eb["exact"].get(k))
            print(f"{w:<20} simulated values or counts moved: {', '.join(moved)}")
    print("no regressed, no unresolved" if bad == 0 else f"{bad} rows not ok")
    return 1 if bad else 0


def smoke():
    spec = contract()
    started = time.time()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, want in ((False, e2e), (True, layers)):
            _, result, unavailable = run_once(w, 1, 1, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{w}: result keys {sorted(result)}")
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                raise SystemExit(f"{w} --trace {int(trace)}: metrics differ from BENCHMARK.json: {diff}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{w} --trace {int(trace)}: {result}")
            if unavailable:
                raise SystemExit(f"{w}: layer legs unavailable")
        print(f"  {w:<20} ok", flush=True)
    print(f"workloads ok ({time.time() - started:.0f} s)")
    manifest = os.path.join(HERE, "Cargo.toml")
    for cmd in (["cargo", "fmt", "--check", "--manifest-path", manifest],
                ["cargo", "test", "--offline", "--quiet", "--lib", "--manifest-path", manifest],
                ["cargo", "clippy", "--offline", "--quiet", "--all-targets",
                 "--manifest-path", manifest, "--", "-D", "warnings"]):
        print("==> " + " ".join(cmd[:3]), flush=True)
        if subprocess.run(cmd, cwd=HERE).returncode != 0:
            raise SystemExit(f"{' '.join(cmd[:3])} failed")
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(prog="run.sh")
    ap.add_argument("--repeats", type=int, default=5, help="runs per workload (default 5)")
    ap.add_argument("--seconds", type=int, help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="result file (default benchmark/out/results.json)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.smoke:
        smoke()
        return
    if args.repeats < 1:
        raise SystemExit("--repeats must be at least 1")
    suite(args)


if __name__ == "__main__":
    main()
