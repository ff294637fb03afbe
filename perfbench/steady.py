#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs every workload of BENCHMARK.json --runs times, interleaved (run i of
every workload before run i + 1 of any), each run with its own seed, and
prints for each workload and end-to-end metric the median, the quartiles,
(q3 - q1) / median and max / min, plus each run's host-speed probe.

    python3 perfbench/steady.py [--runs 10] [--seed-base N]

Run it from the repository root. Exits nonzero if any run fails its
correctness checks or prints no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    wall = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    probes = [l[2:] for l in lines if l.startswith("# probe")]
    return result, probes, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m.get("bound")) for m in bench["end_to_end"]]

    values = {w: {m: [] for m, _ in metrics} for w in workloads}
    ok = True
    for i in range(opts.runs):
        for w in workloads:
            seed = opts.seed_base + i
            result, probes, wall = run_once(bench["command"], w, seed, seconds)
            ok &= result["correct"]
            for m, _ in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            shown = " ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m, _ in metrics)
            print(f"run {i} {w} seed {seed} ({wall:.0f} s): {shown} | {' | '.join(probes)}",
                  flush=True)

    print()
    print(f"{'workload':10} {'metric':17} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for w in workloads:
        for m, bound in metrics:
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = max(v) / min(v) if min(v) else float("inf")
            print(f"{w:10} {m:17} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {ratio:8.4f} {bound:6}")
    if not ok:
        raise SystemExit("a run failed its correctness checks")


if __name__ == "__main__":
    main()
