#!/usr/bin/env python3
"""Steadiness check for the tgbench benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, for every end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median next to the metric's bound. Run it from the repository
root:

    python3 tgbench/steady.py                        # seeds 0-9, every workload
    python3 tgbench/steady.py --seeds 5 --workloads serve-warm-mixed
    python3 tgbench/steady.py --trace 1 --seeds 2    # traced runs

Raw results are appended as JSON lines to --out (default
.bench_work/steady.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    failures = [l for l in proc.stderr.splitlines() if "FAILED" in l]
    return json.loads(proc.stdout.strip().splitlines()[-1]), failures


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload (seeds 0..n-1)")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=".bench_work/steady.jsonl")
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, failures = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            with open(args.out, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: failed {result['failed']} of "
                      f"{result['attempted']}: {failures[:3]}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.seeds} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1}, trace {args.trace}")
        print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag = "  > bound/3"
                ok = False
            print(f"{m['name']:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.2%} {'' if bound is None else bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
