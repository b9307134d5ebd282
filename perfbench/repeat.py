"""Repeat the benchmark and summarise the spread of every metric.

    python3 perfbench/repeat.py [--trace-runs 0] [--out PATH]

Runs ``run.py`` once for each of the seeds 1..10 on every workload of
BENCHMARK.json, then prints each end-to-end metric's median, quartiles and
spread (quartile distance over the median) next to a third of its bound.
With ``--trace-runs K`` it also makes K traced runs per workload and reports
the per-layer medians; count metrics must read the same in every traced run.
``--out`` writes the summary, with the environment stamp of the first run,
as JSON (perfbench/baseline.json holds the committed baseline, and
perfbench/baseline_repeat.json a second set of the same code).  Run from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import BENCH_DIR

RUN = os.path.join(BENCH_DIR, "run.py")
SEEDS = list(range(1, 11))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    summary = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            report, result = bench(name, seed, spec["run_seconds"], 0)
            ok = ok and result["correct"]
            runs.append((report, result))
            summary.setdefault("env", report["env"])
        entry = {"correct": all(r["correct"] for _, r in runs),
                 "failed": sum(r["failed"] for _, r in runs),
                 "attempted": sum(r["attempted"] for _, r in runs),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for _, r in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            entry["end_to_end"][metric["name"]] = stats
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"{name:13s} {metric['name']:18s} median {stats['median']:.5g} "
                  f"{metric['unit']}  q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}  "
                  f"spread {stats['spread']:.4f}  bound/3 {metric['bound'] / 3:.4f}{flag}")
        if args.trace_runs:
            traced = [bench(name, seed, spec["run_seconds"], 1)
                      for seed in SEEDS[:args.trace_runs]]
            entry["traced_correct"] = all(r["correct"] for _, r in traced)
            ok = ok and entry["traced_correct"]
            layers = {}
            for key in traced[0][0]["metrics"]:
                values = [rep["metrics"][key]["value"] for rep, _ in traced]
                unit = traced[0][0]["metrics"][key]["unit"]
                layers[key] = {"median": statistics.median(values), "unit": unit}
                if key in traced[0][0]["count_names"] and len(set(values)) > 1:
                    print(f"{name}: count {key} differs between runs: {values}")
                    ok = False
            entry["per_layer"] = layers
        print(f"{name}: correct={entry['correct']} failed {entry['failed']} "
              f"of {entry['attempted']} rows")
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
