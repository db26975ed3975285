#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload serve-zipf --seeds 1-5 [--trace 0] [--seconds 10] [--show]

For every metric it prints the median, the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), and the bound the metric
has in BENCHMARK.json, flagging spreads above a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: done", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:36s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}{flag}")
        if args.show:
            print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
