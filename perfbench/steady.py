#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and report, for every
metric of the run records (the end-to-end metrics and the virtual-time
results), the median over runs and the quartile spread as a share of it.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 [--trace 0|1] [WORKLOAD ...]

Run from the repository root.  The spread is (q3 - q1) / median with the
quartiles of statistics.quantiles(values, n=4); a benchmark whose spread
stays below a third of a metric's bound in BENCHMARK.json is steady enough
for that bound.  Runs are sequential so they do not disturb each other.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    for wl in workloads:
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print(f"{wl} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}")
                return 1
            # The record line before the result carries every value, the
            # virtual-time results included.
            lines = r.stdout.strip().splitlines()
            record = json.loads(lines[-2].split(" ", 1)[1])
            for name, v in record["values"].items():
                values.setdefault(name, []).append(v)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in record["values"].items()), flush=True)
        print(f"== {wl}: {len(seeds(args.seeds))} runs of {seconds} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            share = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound}, bound/3 {bound / 3:.3f}" if bound else ""
            print(f"  {name:34s} median {med:12.6g}  spread {share:7.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
