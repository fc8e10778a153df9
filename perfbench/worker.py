"""One round of one workload in a fresh interpreter, started by run.py:

    python3 perfbench/worker.py --workload ar1-nig --seed 1 --trace 0 \
        --t0 <time.monotonic() of the parent> --workdir <dir>

It imports the package from the checkout's ``src`` (run.py has checked
that it imports from there), runs the round and prints one JSON object
as its last line; its metric names are those of BENCHMARK.json.  ``setup_s`` is counted from
``--t0``, the parent's clock reading just before it started this
interpreter, so it includes the interpreter's own start and the import.
The parent sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

# the keys of workloads.WORKLOADS, listed here so that parsing arguments
# loads no numpy before the timed import
WORKLOAD_NAMES = ("ar1-nig", "spacetime-nig", "bivariate-cli")


def main(argv=None):
    parser = argparse.ArgumentParser(description="one benchmark round")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    t = time.perf_counter()
    import nglatent as ng
    import nglatent.cli  # noqa: F401  (part of what every CLI call imports)
    import_s = time.perf_counter() - t

    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, ng)
    rnd = workloads.run_round(ng, args.workload, args.seed, args.workdir, tracer)
    result = {
        "attempted": len(workloads.OPERATIONS[args.workload]),
        "failed": len(workloads.OPERATIONS[args.workload]) - rnd.done,
        "error": rnd.error,
        "check_failures": rnd.failures,
    }
    if rnd.error is None:
        result["metrics"] = {
            "setup_s": rnd.times["setup_end"] - args.t0,
            "fit_s": rnd.times["fit_s"],
            "predict_s": rnd.times["predict_s"],
            "peak_rss_mb": rnd.times["peak_rss_mb"],
        }
        if tracer is not None:
            m = result["metrics"]
            result["layers"] = layers.metrics(
                tracer, import_s, m["setup_s"], m["fit_s"], m["predict_s"]
            )
            tracer.dump(Path(args.workdir) / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
