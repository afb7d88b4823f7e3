#!/usr/bin/env python3
"""Runs the benchmark untraced with seeds 1..N per workload and reports
per end-to-end metric the median and the quartile spread as a share of
the median (Python's statistics.quantiles, n=4), next to the bound in
BENCHMARK.json. A spread at or above a third of its bound is flagged.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--workloads sim,fleet]

Writes every raw result line to perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs("perfbench/out", exist_ok=True)
    for wl in names:
        values = {}
        with open(f"perfbench/out/spread-{wl}.jsonl", "w") as log:
            for seed in range(1, args.runs + 1):
                cmd = bench["command"] + [
                    "--workload", wl, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                out = subprocess.run(cmd, capture_output=True, text=True, check=True)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                log.write(json.dumps({"seed": seed, "result": result}) + "\n")
                if not result["correct"]:
                    print(f"{wl} seed {seed}: {result['failed']}/{result['attempted']} checks failed",
                          file=sys.stderr)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"{wl:9} {name:14} median {med:<14.6g} spread {spread:8.4f} "
                  f"bound {bound}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
