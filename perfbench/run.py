"""Benchmark entry point: runs one workload for a fixed time and prints
its metrics.

    python3 perfbench/run.py --workload ar1-nig --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  A run is a closed loop of one client:
it starts whole rounds, one after another, each in a fresh interpreter
(worker.py), while the next round still fits in ``--seconds`` counted
from its own start; at least one round always runs.  Every round of a run does the same work on the
same seed.  The run reports the median over its rounds of each metric:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of layers.py.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The metric names and units are those of BENCHMARK.json.  The exit code
is 0 when a result was printed, otherwise 1 (a round crashed, timed out
or every round failed, or ``--seconds`` is out of range) or 2 (the
package cannot be imported from the checkout's ``src``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from worker import WORKLOAD_NAMES  # noqa: E402

# the whole run, rounds included, ends well inside the 180 s it may take;
# a round takes up to about 20 s, so a run may ask for at most 120 s
DEADLINE_S = 165.0
MAX_SECONDS = 120.0

# run once, untimed, before the first round: compiles the package's
# bytecode and checks that the package is the checkout's own
WARM_IMPORT = """
import sys
from pathlib import Path
src = Path(sys.argv[1])
sys.path.insert(0, str(src))
import nglatent, nglatent.cli
if Path(nglatent.__file__).resolve().parent != src / "nglatent":
    sys.exit(f"nglatent was imported from {nglatent.__file__}, not from {src}")
"""


def declared_metrics(section):
    """(name, unit) of each metric of a BENCHMARK.json section, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def _env():
    env = dict(os.environ)
    # single-threaded BLAS, set before numpy loads in any child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _fail(message, code=1):
    print(message, file=sys.stderr)
    return code


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="nglatent benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        return _fail(f"--seconds must lie in (0, {MAX_SECONDS:.0f}], got {args.seconds}")

    key, section = ("layers", "per_layer") if args.trace else ("metrics", "end_to_end")
    names = declared_metrics(section)
    env = _env()
    # compile the package's bytecode before timing: users pay it once
    warm = subprocess.run(
        [sys.executable, "-c", WARM_IMPORT, str(SRC)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        return _fail(f"importing nglatent from {SRC} failed:\n{warm.stderr}", 2)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds, durations = [], []
    while True:
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--t0", repr(t0),
            "--workdir", str(workdir),
        ]
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - (t0 - started)),
            )
        except subprocess.TimeoutExpired:
            return _fail(f"round {len(rounds) + 1} passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            return _fail(f"round {len(rounds) + 1} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["error"] is None and set(result[key]) != {name for name, _ in names}:
            return _fail(f"round metrics {sorted(result[key])} are not those of BENCHMARK.json")
        rounds.append(result)
        durations.append(time.monotonic() - t0)
        print(f"round {len(rounds)}: {durations[-1]:.2f} s, {json.dumps(result.get('metrics'))}")
        for what in [result["error"]] + result["check_failures"]:
            if what:
                print(f"round {len(rounds)}: {what}", file=sys.stderr)
        if time.monotonic() - started + max(durations) > args.seconds:
            break

    measured = [r for r in rounds if r["error"] is None]
    if not measured:
        return _fail("every round failed")
    metrics = {
        name: {"value": statistics.median(r[key][name] for r in measured), "unit": unit}
        for name, unit in names
    }
    print(json.dumps({
        "correct": all(r["error"] is None and not r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
