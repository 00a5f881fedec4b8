#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and summarises the
spread of every end-to-end metric: median, quartiles and the interquartile
distance as a share of the median, beside the metric's bound.

The runs are interleaved: round i runs every workload once on seed
first-seed + i, starting from a different workload each round, so a slow or
fast phase of the machine lasting minutes falls on every workload alike
instead of on one workload's block of runs.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \
        --out perfbench/evidence/steadiness-a.json [workload ...]

With no workloads named it runs every workload in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, logs):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = p.stdout.strip().splitlines()
    if logs:
        with open(os.path.join(logs, f"{workload}-{seed}.txt"), "w") as f:
            f.write(p.stdout + p.stderr)
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {res}")
    steal = next((l.split("steal_pct=")[1] for l in lines if l.startswith("record frames=")), "?")
    return res, wall, steal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--logs", help="directory to keep every run's output in")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"runs": a.runs, "first_seed": a.first_seed,
               "run_seconds": bench["run_seconds"], "workloads": {}}
    values = {n: {m: [] for m in bounds} for n in names}
    walls = {n: [] for n in names}
    steals = {n: [] for n in names}
    for i in range(a.runs):
        seed = a.first_seed + i
        for k in range(len(names)):
            name = names[(i + k) % len(names)]
            res, wall, steal = run_once(bench["command"], name, seed, bench["run_seconds"], a.logs)
            walls[name].append(round(wall, 1))
            steals[name].append(steal)
            for m in bounds:
                values[name][m].append(res["metrics"][m]["value"])
            print(f"{name} seed={seed} wall={wall:.1f}s steal={steal} " +
                  " ".join(f"{m}={values[name][m][-1]:.5g}" for m in bounds), flush=True)
    for name in names:
        print(name, flush=True)
        rows = {}
        for m, vs in values[name].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds[m], "values": vs}
            flag = "" if spread < bounds[m] / 3 else "  <-- over a third of the bound"
            print(f"  {m:16s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.4f} bound={bounds[m]}{flag}", flush=True)
        summary["workloads"][name] = {"metrics": rows, "wall_s": walls[name], "steal_pct": steals[name]}
    with open(a.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
