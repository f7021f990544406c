#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the repository root:

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 \
        --out bench/baseline.json

For every workload it makes one `bench/run.py` run per seed with
`--trace 0` and per trace seed with `--trace 1`, one at a time, and
writes each metric's values, median, quartiles and spread (the distance
between the quartiles over the median) together with each workload's verify
mode and factor budget; the predictions stay in bench/predictions.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run as bench


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(results):
    values = {}
    for res in results:
        for name, m in res["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    out = {}
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {
            "median": med, "q1": q1, "q3": q3, "unit": unit,
            "spread": (q3 - q1) / med if med else None,
            "values": vals,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=seed_list("1-3"))
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--workloads", nargs="*", default=list(bench.WORKLOADS))
    parser.add_argument("--out", default=None, help="write the record here")
    args = parser.parse_args()

    record = {"seeds": args.seeds, "trace_seeds": args.trace_seeds,
              "seconds": args.seconds, "predictions": "bench/predictions.json",
              "workloads": {}}
    for workload in args.workloads:
        runs = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            runs[trace] = []
            for seed in seeds:
                res = one_run(workload, seed, args.seconds, trace)
                runs[trace].append(res)
                print(f"{workload} seed {seed} trace {trace}: correct "
                      f"{res['correct']}, failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)
        verify, budget, _ = bench.WORKLOADS[workload]
        record["workloads"][workload] = {
            "verify": verify,
            "factor_budget": budget,
            "end_to_end": summary(runs[0]),
            "per_layer": summary(runs[1]),
        }
        for name, s in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload:13s} {name:16s} median {s['median']:<12.5g} "
                  f"spread {s['spread'] if s['spread'] is not None else 'n/a':.4}",
                  file=sys.stderr)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
