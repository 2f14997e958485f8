#!/usr/bin/env python3
"""Measures how steady the benchmark is.

    python3 simbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1000]
                               [--seconds N] [--out FILE]

Runs `simbench/run.py --trace 0` once per seed on each workload, one run
at a time, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartiles of the runs
(Python's `statistics.quantiles(values, n=4)`) as a share of the median.
A spread at or under a third of the metric's bound in BENCHMARK.json is
steady; `setup_s` is reported but has no spread target. `--out` also
saves every value, so two sets can be compared with --compare A B, which
prints each metric's change of median from set A to set B against its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def measure(args, s):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    values = {}
    for w in workloads:
        for i in range(args.seeds):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: run_s {result['metrics']['run_s']['value']:.4f}",
                  file=sys.stderr)
    return values


def report(values, s):
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    steady = True
    for w, metrics in values.items():
        for name, vals in metrics.items():
            sp, med = spread(vals)
            target = bounds[name] / 3
            ok = name == "setup_s" or sp <= target
            steady &= ok
            print(f"{w:12} {name:18} median {med:<14.6g} spread {sp:7.2%}"
                  f" (bound {bounds[name]:.0%}, target {target:.2%}){'' if ok else '  NOT STEADY'}")
    return steady


def compare(a, b, s):
    ok = True
    for m in s["end_to_end"]:
        for w in a:
            ma = statistics.median(a[w][m["name"]])
            mb = statistics.median(b[w][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bad = worse > m["bound"]
            ok &= not bad
            print(f"{w:12} {m['name']:18} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:7.2%}"
                  f" (bound {m['bound']:.0%}){'  REGRESSED' if bad else ''}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    s = spec()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(a, b, s) else 1)
    values = measure(args, s)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(0 if report(values, s) else 1)


if __name__ == "__main__":
    main()
