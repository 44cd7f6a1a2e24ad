#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Spread is the distance between the first and third quartile of a metric's
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json.

Run from the repository root, for example::

    python3 perfbench/steadiness.py --workloads iso_savings --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --record perfbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}\n{proc.stderr}")
    return result, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0, statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="range a-b or list a,b,c")
    ap.add_argument("--record", help="write the spreads to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        walls = []
        for seed in seeds:
            result, elapsed = run_once(bench, name, seed, 0)
            walls.append(elapsed)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        rows = {}
        print(f"\n{name} ({len(seeds)} seeds, {statistics.median(walls):.1f} s per run)")
        for m, vals in values.items():
            s, med = spread(vals)
            ok = m == "setup_s" or s < bounds[m] / 3
            steady &= ok
            rows[m] = {"median": med, "spread": s, "bound": bounds[m], "values": vals}
            print(f"  {m:22s} median {med:14.6g}  spread {s:7.4f}  bound {bounds[m]:.2f}"
                  f"  {'ok' if ok else 'WIDE'}")
        record["workloads"][name] = {"seconds_per_run": walls, "metrics": rows}
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
