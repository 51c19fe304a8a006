#!/usr/bin/env python3
"""Steadiness tool: runs the benchmark's workloads repeatedly and prints
the spread of every end-to-end metric.

    python3 perfbench/steady.py [--runs 10] [--seconds 30] [--first-seed 1]
                                [--workloads search_fresh,paginate_repeat,train_cl]

Run from the repository root. Round r runs every workload once with seed
first_seed + r, alternating workloads so that slow phases of the host
fall on all of them alike. For each workload and metric it prints the
median, the quartiles (statistics.quantiles, n=4), the interquartile
spread as a share of the median, min and max, plus host.probe_ms (a
fixed loop owned by the benchmark, which tracks the host's speed). The
`bound/3` column compares each spread with a third of the bound that
BENCHMARK.json fixes for the metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode})")
    result = json.loads(lines[-1])
    probe = None
    for line in lines:
        if "host.probe_ms=" in line:
            probe = float(line.split("host.probe_ms=")[1].split()[0])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["host.probe_ms"] = probe
    return result, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all of BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    samples = {w: {} for w in workloads}
    failed = {w: [] for w in workloads}
    for r in range(args.runs):
        for w in workloads:
            result, values = run_once(w, args.first_seed + r, seconds)
            failed[w].append((result["failed"], result["attempted"]))
            for name, value in values.items():
                samples[w].setdefault(name, []).append(value)
            print(f"[steady] run {r + 1}/{args.runs} {w}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)

    print(f"runs={args.runs} seconds={seconds} seeds="
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    header = (f"{'workload':16} {'metric':14} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'iqr/med':>8} {'bound/3':>8} {'min':>11} "
              f"{'max':>11}")
    print(header)
    for w in workloads:
        shares = sorted({f / a for f, a in failed[w]})
        for name, values in samples[w].items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            third = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8}"
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  WIDE"
            print(f"{w:16} {name:14} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:8.4f} {third} {min(values):11.5g} "
                  f"{max(values):11.5g}{flag}")
        print(f"{w:16} {'failed share':14} {shares}")


if __name__ == "__main__":
    main()
