"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload and seed it runs ``perfbench/run.py --trace 0`` once, in
order, for the ``run_seconds`` that BENCHMARK.json sets, and
reports per metric the median of the runs and the quartile spread
(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives
them.  ``--out`` writes the summary, with every run's record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2].split(" ", 1)[1])}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds, required=True)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds) for s in args.seeds]
        names = runs[0]["result"]["metrics"]
        stats = {n: spread([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": stats,
            "runs": [r["record"] for r in runs],
        }
        for n, st in stats.items():
            print(f"{workload:13s} {n:50s} median {st['median']:.6g}  spread {st['spread']:.4f}")
        print(f"{workload:13s} correct={summary[workload]['correct']} "
              f"failed {summary[workload]['failed']}/{summary[workload]['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
