"""Tests of the benchmark's own tracer.

    python3 -m pytest -q perfbench/test_tracer.py

The workload tests run whole rounds in this process (about two minutes):
tracing must change no result, and its counts must repeat exactly.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nglatent as ng  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from run import declared_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import WORKLOAD_NAMES  # noqa: E402

SEED = 1
# counters that must repeat exactly
COUNTS = [n for n, unit in declared_metrics("per_layer") if unit == "count" and n != "trace.spans"]


def test_self_time_excludes_children_and_uninstall_restores():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: sum(range(x))
    ns.outer = lambda x: [ns.inner(x) for _ in range(3)]
    inner, outer = ns.inner, ns.outer
    tr = Tracer()
    tr.wrap(ns, "inner", "inner")
    tr.wrap(ns, "outer", "outer")
    assert ns.outer(20000) == [sum(range(20000))] * 3
    incl, own = tr.totals()
    assert tr.counts == {"inner_calls": 3, "outer_calls": 1}
    assert [s[3] for s in tr.spans] == [-1, 0, 0, 0]
    assert own["inner"] == incl["inner"]
    assert incl["outer"] - own["outer"] == pytest.approx(incl["inner"], abs=1e-12)
    tr.uninstall()
    assert (ns.inner, ns.outer) == (inner, outer)


def _round(name, workdir, traced):
    tracer = None
    if traced:
        tracer = Tracer()
        layers.install(tracer, ng)
    rnd = workloads.run_round(ng, name, SEED, workdir, tracer)
    assert rnd.error is None and rnd.failures == []
    counts = None
    if traced:
        values = layers.metrics(tracer, 0.0, 0.0, 0.0, 0.0)
        counts = {k: values[k] for k in COUNTS}
    return rnd.outputs, counts


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tracing_changes_no_result_and_counts_repeat(name, tmp_path):
    originals = (ng.map_fit, ng.model.Model.with_theta, ng.gibbs.GibbsChain.sweep)
    plain, _ = _round(name, tmp_path / "plain", traced=False)
    first, counts1 = _round(name, tmp_path / "traced1", traced=True)
    second, counts2 = _round(name, tmp_path / "traced2", traced=True)
    assert (ng.map_fit, ng.model.Model.with_theta, ng.gibbs.GibbsChain.sweep) == originals
    for key in ("theta", "posterior", "eta", "scores"):
        np.testing.assert_array_equal(first[key], plain[key])
        np.testing.assert_array_equal(second[key], plain[key])
    assert counts1 == counts2
    assert counts1["gibbs.sweeps"] > 0 and counts1["linalg.factorizations"] > 0
