#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --runs 10 --trace-runs 3 --out baseline.json

For every workload it makes ``--runs`` untraced runs and ``--trace-runs``
traced runs, seeds 1, 2, ... in turn, and records per metric the median,
the quartiles and the spread (quartile distance over the median, the
figure the bounds in BENCHMARK.json are set against). The raw values
are kept too.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def summarise(values: list) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload or run.WORKLOADS:
        results = {0: [], 1: []}
        for trace, count in ((0, args.runs), (1, args.trace_runs)):
            for seed in range(1, count + 1):
                done = subprocess.run(
                    [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    capture_output=True, text=True, timeout=180, check=True,
                )
                lines = done.stdout.splitlines()
                results[trace].append(json.loads(lines[-1]))
                summary.setdefault("provenance", json.loads(lines[0].split(" ", 1)[1]))
                print(f"{workload} trace {trace} seed {seed}: correct={results[trace][-1]['correct']}",
                      flush=True)
        entry = {"correct": all(r["correct"] for rs in results.values() for r in rs),
                 "failed": sum(r["failed"] for rs in results.values() for r in rs),
                 "attempted": sum(r["attempted"] for rs in results.values() for r in rs)}
        for trace, rs in results.items():
            for name in (rs[0]["metrics"] if rs else {}):
                entry[name] = {"unit": rs[0]["metrics"][name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in rs])}
        summary["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
