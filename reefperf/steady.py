#!/usr/bin/env python3
"""Runs each workload N times, one seed per run, for BENCHMARK.json's
run_seconds, and prints per metric the median, the quartiles, the
interquartile spread and (max - min) / median, and the same for every
figure a run logs on stderr, the unbounded wall-clock ones too. With
--sets 2 it makes a second set of N runs on the next N seeds and prints,
per metric, how far the second set's median moved from the first's
against the metric's bound, and whether the share of failed operations
is the same. Used to set and re-check the end-to-end bounds.

    python3 reefperf/steady.py --runs 10 [--sets 2] [--trace 0] [--workloads a,b]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    tag = "reefperf: figures: "
    for line in out.stderr.splitlines():
        if line.startswith(tag):
            res["figures"] = json.loads(line[len(tag):])
    return res


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    iqr = (q3 - q1) / med if med else float("nan")
    rng = (max(vals) - min(vals)) / med if med else float("nan")
    return med, q1, q3, iqr, rng


def report(w, runs, bounds):
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"== {w}: seeds {runs[0]['seed']}-{runs[-1]['seed']}, "
          f"correct={all(r['correct'] for r in runs)}, failed share {shares}")
    print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
    for name in sorted(runs[0]["metrics"]):
        med, q1, q3, iqr, rng = spread([r["metrics"][name]["value"] for r in runs])
        b = bounds.get(name)
        print(f"  {name:36s} {med:12.4g} {q1:12.4g} {q3:12.4g} {iqr:8.3f} {rng:8.3f} {b if b is not None else '':>6}")
    if all("figures" in r for r in runs):
        print("  every figure, wall-clock ones too (from stderr):")
        for name in sorted(runs[0]["figures"]):
            med, q1, q3, iqr, rng = spread([r["figures"][name]["value"] for r in runs])
            print(f"  {name:36s} {med:12.4g} {q1:12.4g} {q3:12.4g} {iqr:8.3f} {rng:8.3f}")


def compare(w, first, other, bounds, better):
    same = {r["failed"] / r["attempted"] for r in first} == {r["failed"] / r["attempted"] for r in other}
    print(f"== {w}: second set against the first, failed share same={same}")
    print(f"  {'metric':36s} {'median 1':>12s} {'median 2':>12s} {'worse by':>8s} {'bound':>6s}")
    for name in sorted(first[0]["metrics"]):
        m1 = statistics.median([r["metrics"][name]["value"] for r in first])
        m2 = statistics.median([r["metrics"][name]["value"] for r in other])
        worse = ((m2 - m1) if better.get(name) == "lower" else (m1 - m2)) / m1 if m1 else float("nan")
        b = bounds.get(name)
        print(f"  {name:36s} {m1:12.4g} {m2:12.4g} {worse:8.3f} {b if b is not None else '':>6}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for w in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                res = run_once(w, seed, bench["run_seconds"], args.trace)
                res["seed"] = seed
                runs.append(res)
            report(w, runs, bounds)
            sets.append(runs)
            sys.stdout.flush()
        for other in sets[1:]:
            compare(w, sets[0], other, bounds, better)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
