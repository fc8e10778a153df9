"""The per-layer metrics: which package names are wrapped, and how the
spans and counters of one round become named metrics.

A name is wrapped where its caller looks it up: ``inference`` imports
``rb_gradient`` by name, so the wrapper replaces
``nglatent.inference.rb_gradient``; methods are wrapped on their class.
The metric prefix ``linalg`` stands for the module ``_linalg``, since a
metric name may not start with an underscore.
"""

from __future__ import annotations

import os


def _sweeps(tr, args, kwargs, result):
    tr.counts["gibbs.sweeps"] += args[1] if len(args) > 1 else kwargs.get("k", 1)


def _conditionals(tr, args, kwargs, result):
    tr.counts["gibbs.conditionals"] += 1


def _gig(tr, args, kwargs, result):
    tr.counts["distributions.gig_draws"] += result.size


def _factor(tr, args, kwargs, result):
    factor = args[0]
    tr.counts["linalg.factorizations"] += 1
    tr.counts["linalg.dense_factorizations"] += 0 if factor.is_banded else 1
    tr.record_max("linalg.q_bandwidth", factor.bandwidth)


def _written(tr, args, kwargs, result):
    tr.counts["cli.bytes_written"] += os.path.getsize(result)


def _ignore(tr, args, kwargs, result):
    pass


def install(tracer, ng):
    """Wrap every traced name of the imported package ``ng``."""
    from nglatent import _linalg, cli, gibbs, gradients, inference, model, operators
    from nglatent import distributions

    w = tracer.wrap
    w(model.Model, "with_theta", "model.with_theta")
    w(operators, "fem_matrices", "mesh.fem")
    w(gibbs.GibbsChain, "sweep", "gibbs.sweep", _sweeps)
    for mod in (gibbs, gradients):
        w(mod, "_w_conditional", "gibbs.conditional", _conditionals)
    for mod in (gibbs, distributions):
        w(mod, "gig_sample_many", "distributions.gig", _gig)
    w(_linalg.SpdFactor, "__init__", "linalg.factor", _factor)
    w(_linalg.SpdFactor, "sigma_dense", "linalg.dense_inverse", _ignore)
    w(_linalg.SpdFactor, "sigma_band", "linalg.selected_inverse", _ignore)
    for fn in ("sigma_quad_diag", "sigma_cross_quad_diag", "sigma_obs_quad_trace"):
        w(gradients, fn, "linalg.quad", _ignore)
    w(gradients, "trace_kinv_dk", "linalg.kernel_trace")
    w(inference, "rb_gradient", "gradients.rb")
    for mod in (ng, cli):
        w(mod, "map_fit", "inference.map_fit", _ignore)
        w(mod, "posterior_predict", "prediction.predict", _ignore)
        w(mod, "score_report", "prediction.score", _ignore)
    w(cli, "write_table", "cli.io", _written)
    w(cli, "_write_diagnostics", "cli.io", _written)
    w(cli, "read_table", "cli.io", _ignore)
    w(cli.RunConfig, "from_yaml", "cli.io", _ignore)


def metrics(tracer, import_s, setup_s, fit_s, predict_s) -> dict:
    """Per-layer metric values of one traced round, keyed by the names of
    BENCHMARK.json's ``per_layer``, which also holds their units."""
    incl, own = tracer.totals()
    c = tracer.counts
    return {
        "setup.import_s": import_s,
        "model.with_theta_calls": c["model.with_theta_calls"],
        "model.with_theta_s": incl.get("model.with_theta", 0.0),
        "mesh.fem_calls": c["mesh.fem_calls"],
        "mesh.fem_s": incl.get("mesh.fem", 0.0),
        "gibbs.sweeps": c["gibbs.sweeps"],
        "gibbs.sweep_s": incl.get("gibbs.sweep", 0.0),
        "gibbs.conditionals": c["gibbs.conditionals"],
        "gibbs.conditional_s": incl.get("gibbs.conditional", 0.0),
        "distributions.gig_draws": c["distributions.gig_draws"],
        "distributions.gig_s": incl.get("distributions.gig", 0.0),
        "linalg.factorizations": c["linalg.factorizations"],
        "linalg.factor_s": incl.get("linalg.factor", 0.0),
        "linalg.q_bandwidth": tracer.maxima.get("linalg.q_bandwidth", 0),
        "linalg.dense_factorizations": c["linalg.dense_factorizations"],
        "linalg.dense_inverse_s": incl.get("linalg.dense_inverse", 0.0),
        "linalg.selected_inverse_s": own.get("linalg.selected_inverse", 0.0),
        "linalg.quad_s": incl.get("linalg.quad", 0.0),
        "linalg.kernel_trace_calls": c["linalg.kernel_trace_calls"],
        "linalg.kernel_trace_s": incl.get("linalg.kernel_trace", 0.0),
        "gradients.rb_calls": c["gradients.rb_calls"],
        "gradients.rb_self_s": own.get("gradients.rb", 0.0),
        "inference.self_s": own.get("inference.map_fit", 0.0),
        "prediction.predict_s": incl.get("prediction.predict", 0.0),
        "prediction.score_s": incl.get("prediction.score", 0.0),
        "cli.io_s": incl.get("cli.io", 0.0),
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.spans": len(tracer.spans),
        "trace.setup_s": setup_s,
        "trace.fit_s": fit_s,
        "trace.predict_s": predict_s,
    }
