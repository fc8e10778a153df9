"""Runs the benchmark once per seed, at BENCHMARK.json's run length, and
prints per workload and metric the median, the quartiles and their
distance as a share of the median.

    python3 perfbench/spread.py --seeds 1-10 [--workloads ar1-nig ...] [--trace 1]

Each run's result line is also appended to .perfbench_out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = ROOT / ".perfbench_out" / "spread.jsonl"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(workload, results):
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    correct = all(r["correct"] for r in results)
    print(f"{workload} runs={len(results)} correct={correct} failed={failed}/{attempted}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:28s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"iqr/median {share:7.2%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--workloads", nargs="+",
                        default=["ar1-nig", "spacetime-nig", "bivariate-cli"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    LOG.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            with open(LOG, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "result": results[-1]}) + "\n")
        summarize(workload, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
