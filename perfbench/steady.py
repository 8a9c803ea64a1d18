#!/usr/bin/env python3
"""Steadiness check: run the benchmark N times per workload, one seed
each, and print every end-to-end metric's median, quartiles and
spread against its bound in BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--seed0 1]
        [--workloads build,query,slice] [--save FILE]
    python3 perfbench/steady.py --compare FILE_A FILE_B

The spread is (Q3 - Q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). A metric is "steady" when its
spread is below a third of its bound, "within" up to the bound, and
"NOISY" above it; every metric is held to its bound, setup_s too.
--save writes the raw results as JSON (default under .bench_steady/);
--compare prints, for two saved sets, how far the second median moved
from the first, against the bound. Runs the workloads one after
another, never in parallel.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit("run failed (%d): %s" % (p.returncode, " ".join(cmd)))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - t0
    return result


def summarize(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("%s: %d runs, correct=%s, failed share=%s, wall %.1f-%.1f s"
              % (workload, len(runs), correct, sorted(shares),
                 min(r["wall_s"] for r in runs),
                 max(r["wall_s"] for r in runs)))
        ok = ok and correct and len(shares) == 1
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            state = ("steady" if spread < bound / 3 else
                     "within" if spread <= bound else "NOISY")
            ok = ok and spread <= bound
            print("  %-16s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %6.2f%% bound %5.1f%% %s"
                  % (name, med, q1, q3, 100 * spread, 100 * bound, state))
    return ok


def compare(spec, a, b):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in a:
        print(workload)
        for name, bound in bounds.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
            print("  %-16s %-14.6g -> %-14.6g worse by %6.2f%% bound %5.1f%% %s"
                  % (name, ma, mb, 100 * worse, 100 * bound, flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(spec, *sets) else 1
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    results = {}
    for workload in names:
        results[workload] = [run_once(spec, workload, args.seed0 + i)
                             for i in range(args.runs)]
    save = args.save or os.path.join(
        ".bench_steady", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(save) or ".", exist_ok=True)
    with open(save, "w") as f:
        json.dump(results, f, indent=1)
    print("raw results: %s" % save)
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
