"""Command-line front end: simulate / fit / predict / score / diagnose.

A single YAML configuration drives every subcommand.  Data files are
delimited text with a mandatory header row; missing responses (the
``missing`` token) drop the corresponding rows of A and Y while leaving
the latent mesh untouched.  Exit codes: 0 success, 2 config or schema
error, 3 numerical failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml
from scipy import sparse

from .distributions import NoiseSpec
from .errors import ConfigError, InputError, NglatentError, NumericalError
from .inference import FitOptions, drift_check, grad_inner_stat, map_fit, rhat
from .mesh import Mesh1D, build_interval_mesh, regular_mesh
from .model import assemble_model, flat_priors, simulate
from .operators import (
    advdiff_operator,
    ar1_operator,
    bivariate_operator,
    matern_operator,
    ou_operator,
    pin_operator,
    replicate_operator,
    rw_operator,
    tensor_operator,
)
from .prediction import PredictiveSamples, posterior_predict, score_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_INFERENCE_DEFAULTS = {
    "chains": 4,
    "max_iters": 700,
    "min_iters": 100,
    "k": 5,
    "estimator": "rb",
    "step0": 0.05,
    "decay_start": None,
    "checkpoint_every": 10,
    "window": 5,
    "jitter": 0.5,
    "priors": "default",
    "sgld_samples": 0,
    "sgld_step0": 2.0e-4,
    "sgld_tau": 200.0,
    "sgld_thin": 1,
}

_PREDICT_DEFAULTS = {
    "targets": None,
    "samples": 1000,
    "burnin": 100,
    "thin": 1,
    "quantiles": [0.025, 0.5, 0.975],
}


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing required key {ctx}.{key}")
    return d[key]


@contextmanager
def _values_in(ctx: str, error=ConfigError):
    """Turn a value that does not convert into an ``error`` naming ``ctx``."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, NglatentError):
            raise
        raise error(f"invalid value in {ctx}: {exc}") from exc


@dataclass
class RunConfig:
    """Canonical, validated run configuration."""

    seed: int
    model: dict
    data: dict = field(default_factory=dict)
    inference: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    simulate: dict = field(default_factory=dict)
    predict: dict = field(default_factory=dict)
    score: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a mapping")
        if "seed" not in raw:
            raise ConfigError("missing required key seed")
        for key in ("model", "data", "inference", "output", "simulate", "predict", "score"):
            if not isinstance(raw.get(key, {}), dict):
                raise ConfigError(f"{key} must be a mapping")
        model = dict(_require(raw, "model", "<root>"))
        _require(model, "operator", "model")
        _require(model, "noise_w", "model")
        _require(model, "noise_y", "model")
        model.setdefault("covariates", [])
        inference = {**_INFERENCE_DEFAULTS, **raw.get("inference", {})}
        unknown = set(inference) - set(_INFERENCE_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown inference option(s): {sorted(unknown)}")
        predict = {**_PREDICT_DEFAULTS, **raw.get("predict", {})}
        output = dict(raw.get("output", {}))
        output.setdefault("dir", "out")
        data = dict(raw.get("data", {}))
        data.setdefault("missing", "NA")
        with _values_in("seed"):
            return cls(
                seed=int(raw["seed"]),
                model=model,
                data=data,
                inference=inference,
                output=output,
                simulate=dict(raw.get("simulate", {})),
                predict=predict,
                score=dict(raw.get("score", {})),
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "model": self.model,
            "data": self.data,
            "inference": self.inference,
            "output": self.output,
            "simulate": self.simulate,
            "predict": self.predict,
            "score": self.score,
        }

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        return cls.from_dict(raw)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)


def build_mesh(cfg, ctx: str) -> Mesh1D:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx}.mesh must be a mapping")
    if "nodes" in cfg:
        return build_interval_mesh(np.asarray(cfg["nodes"], dtype=float))
    for key in ("start", "end", "n"):
        _require(cfg, key, f"{ctx}.mesh")
    return regular_mesh(float(cfg["start"]), float(cfg["end"]), int(cfg["n"]))


def build_operator(cfg, ctx: str = "model.operator"):
    """Recursively build an operator from its configuration node."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx} must be a mapping")
    kind = _require(cfg, "kind", ctx)
    with _values_in(ctx):
        if kind == "ar1":
            return ar1_operator(float(_require(cfg, "phi", ctx)), int(_require(cfg, "T", ctx)))
        if kind == "rw":
            mesh = build_mesh(_require(cfg, "mesh", ctx), ctx)
            op = rw_operator(int(cfg.get("order", 1)), mesh)
            if cfg.get("pin", True):
                op = pin_operator(op, int(cfg.get("pin_node", 0)))
            return op
        if kind == "ou":
            mesh = build_mesh(_require(cfg, "mesh", ctx), ctx)
            return ou_operator(float(_require(cfg, "theta", ctx)), mesh)
        if kind == "matern":
            mesh = build_mesh(_require(cfg, "mesh", ctx), ctx)
            return matern_operator(float(_require(cfg, "kappa", ctx)), mesh)
        if kind == "tensor":
            return tensor_operator(
                build_operator(_require(cfg, "outer", ctx), f"{ctx}.outer"),
                build_operator(_require(cfg, "inner", ctx), f"{ctx}.inner"),
            )
        if kind == "bivariate":
            return bivariate_operator(
                build_operator(_require(cfg, "first", ctx), f"{ctx}.first"),
                build_operator(_require(cfg, "second", ctx), f"{ctx}.second"),
                float(_require(cfg, "zeta", ctx)),
                float(_require(cfg, "rho", ctx)),
            )
        if kind == "replicate":
            return replicate_operator(
                build_operator(_require(cfg, "of", ctx), f"{ctx}.of"),
                int(_require(cfg, "R", ctx)),
            )
        if kind == "advdiff":
            mesh = build_mesh(_require(cfg, "mesh", ctx), ctx)
            return advdiff_operator(
                float(_require(cfg, "kappa", ctx)),
                float(cfg.get("gamma", 0.0)),
                float(cfg.get("c", 1.0)),
                mesh,
                int(_require(cfg, "T", ctx)),
            )
    raise ConfigError(f"unknown operator kind {kind!r} at {ctx}.kind")


def build_noise(cfg, ctx: str) -> NoiseSpec:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx} must be a mapping")
    family = _require(cfg, "family", ctx)
    with _values_in(ctx):
        return NoiseSpec(
            family=family,
            sigma=float(_require(cfg, "sigma", ctx)),
            mu=float(cfg.get("mu", 0.0)),
            nu=float(cfg["nu"]) if cfg.get("nu") is not None else None,
        )


# ---------------------------------------------------------------------------
# Tables (delimited text, header row, repr-formatted floats)
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_table(path, header, rows):
    """Write a header row and ``rows`` as comma-separated text.  A float
    array is written one joined line per row: repr never needs quoting,
    so the bytes are those the csv writer gives, in half the time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())
        else:
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    return path


def read_table(path):
    try:
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader if row]
    except FileNotFoundError as exc:
        raise InputError(f"data file not found: {path}") from exc
    except StopIteration as exc:
        raise InputError(f"data file {path} has no header row") from exc
    if any(len(row) != len(header) for row in rows):
        raise InputError(f"data file {path} has rows of other length than its header")
    return header, rows


def _column(header, rows, name, path):
    if name not in header:
        raise InputError(f"column {name!r} not found in {path} (header: {header})")
    j = header.index(name)
    return [row[j] for row in rows]


def _numeric_column(header, rows, name, path, kind=float) -> np.ndarray:
    cells = _column(header, rows, name, path)
    with _values_in(f"column {name!r} of {path}", InputError):
        return np.array([kind(v) for v in cells])


# ---------------------------------------------------------------------------
# Model assembly from config + data
# ---------------------------------------------------------------------------


def _observation_rows(config: RunConfig, n_latent: int, header, rows, path):
    """A-matrix rows and covariate matrix from a table's role columns,
    for an operator with ``n_latent`` nodes."""
    data_cfg = config.data
    op_cfg = config.model["operator"]
    m = len(rows)
    if "index" in data_cfg and data_cfg["index"]:
        idx = _numeric_column(header, rows, data_cfg["index"], path, lambda v: int(float(v)))
        if np.any((idx < 0) | (idx >= n_latent)):
            raise InputError(
                f"index column {data_cfg['index']!r} outside 0..{n_latent - 1}"
            )
        A = sparse.csr_matrix((np.ones(m), (np.arange(m), idx)), shape=(m, n_latent))
    elif "location" in data_cfg and data_cfg["location"]:
        if op_cfg.get("kind") not in ("matern", "ou", "rw"):
            raise InputError(
                "location-based observation requires a mesh operator (matern/ou/rw)"
            )
        mesh = build_mesh(op_cfg["mesh"], "model.operator")
        loc = _numeric_column(header, rows, data_cfg["location"], path)
        x = mesh.nodes
        if np.any(loc < x[0]) or np.any(loc > x[-1]):
            raise InputError("locations fall outside the mesh interval")
        j = np.clip(np.searchsorted(x, loc, side="right") - 1, 0, x.size - 2)
        w_right = (loc - x[j]) / (x[j + 1] - x[j])
        rows_i = np.repeat(np.arange(m), 2)
        cols_i = np.column_stack([j, j + 1]).ravel()
        vals = np.column_stack([1.0 - w_right, w_right]).ravel()
        A = sparse.csr_matrix((vals, (rows_i, cols_i)), shape=(m, n_latent))
    else:
        raise InputError("data block needs an 'index' or 'location' column role")
    covs = config.model.get("covariates", [])
    if covs:
        X = np.column_stack(
            [
                (
                    np.ones(m)
                    if name == "intercept"
                    else _numeric_column(header, rows, name, path)
                )
                for name in covs
            ]
        )
    else:
        X = np.zeros((m, 0))
    return A, X


def build_model_from_config(config: RunConfig, op, A, X, beta=None):
    noise_w = build_noise(config.model["noise_w"], "model.noise_w")
    noise_y = build_noise(config.model["noise_y"], "model.noise_y")
    model = assemble_model(A=A, X=X, op=op, noise_w=noise_w, noise_y=noise_y, beta=beta)
    if config.inference.get("priors") == "flat":
        model = replace(model, priors=flat_priors(model.param_names))
    return model


def _load_fit_inputs(config: RunConfig, n_latent: int):
    path = _require(config.data, "path", "data")
    response = _require(config.data, "response", "data")
    header, rows = read_table(path)
    missing = config.data.get("missing", "NA")
    resp_raw = _column(header, rows, response, path)
    keep = [i for i, v in enumerate(resp_raw) if v != missing and v != ""]
    if not keep:
        raise InputError(f"no usable rows in {path} (all responses missing)")
    rows = [rows[i] for i in keep]
    Y = _numeric_column(header, rows, response, path)
    A, X = _observation_rows(config, n_latent, header, rows, path)
    return Y, A, X


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_simulate(config: RunConfig, out_dir=None):
    """Simulate a dataset (A = I over the latent nodes) plus ground truth."""
    out = Path(out_dir or config.output["dir"])
    op = build_operator(config.model["operator"])
    n = op.dim
    covs = config.model.get("covariates", [])
    rng = np.random.default_rng(config.seed)
    if covs:
        with _values_in("simulate.beta"):
            beta = np.asarray(_require(config.simulate, "beta", "simulate"), dtype=float)
        if beta.shape != (len(covs),):
            raise ConfigError("simulate.beta length must match model.covariates")
        X = np.column_stack(
            [np.ones(n) if c == "intercept" else rng.standard_normal(n) for c in covs]
        )
    else:
        beta, X = None, np.zeros((n, 0))
    model = build_model_from_config(config, op, sparse.identity(n, format="csr"), X, beta)
    if model.m == 0:
        raise ConfigError("zero-observation simulation is invalid")
    Y, state = simulate(model, rng=rng)
    response = config.data.get("response", "y")
    header = ["index"] + [c for c in covs if c != "intercept"] + [response]
    rows = []
    keep_cols = [j for j, c in enumerate(covs) if c != "intercept"]
    for i in range(n):
        rows.append([i] + [X[i, j] for j in keep_cols] + [Y[i]])
    data_path = write_table(out / "data.csv", header, rows)
    truth_rows = [("theta", name, val) for name, val in zip(model.param_names, model.theta_natural())]
    truth_rows += [("W", i, v) for i, v in enumerate(state.W)]
    truth_rows += [("V_W", i, v) for i, v in enumerate(state.V_W)]
    truth_rows += [("V_Y", i, v) for i, v in enumerate(state.V_Y)]
    truth_path = write_table(out / "truth.csv", ["component", "key", "value"], truth_rows)
    return {"data": data_path, "truth": truth_path}


def _fit_options(config: RunConfig) -> FitOptions:
    inf = config.inference
    with _values_in("inference"):
        return FitOptions(
            chains=int(inf["chains"]),
            max_iters=int(inf["max_iters"]),
            min_iters=int(inf["min_iters"]),
            k=int(inf["k"]),
            estimator=str(inf["estimator"]),
            step0=float(inf["step0"]),
            decay_start=None if inf["decay_start"] is None else int(inf["decay_start"]),
            checkpoint_every=int(inf["checkpoint_every"]),
            window=int(inf["window"]),
            seed=config.seed,
            jitter=float(inf["jitter"]),
            sgld_samples=int(inf["sgld_samples"]),
            sgld_step0=float(inf["sgld_step0"]),
            sgld_tau=float(inf["sgld_tau"]),
            sgld_thin=int(inf["sgld_thin"]),
        )


def run_fit(config: RunConfig, out_dir=None):
    """Fit the configured model; writes estimates, traces, posterior
    samples, and a diagnostics summary."""
    out = Path(out_dir or config.output["dir"])
    op = build_operator(config.model["operator"])
    Y, A, X = _load_fit_inputs(config, op.dim)
    model = build_model_from_config(config, op, A, X)
    opts = _fit_options(config)
    fit = map_fit(model, Y, opts)

    names = list(fit.param_names)
    if fit.posterior is not None:
        est = fit.posterior.mean(axis=0)
        lo, hi = np.percentile(fit.posterior, [2.5, 97.5], axis=0)
        est_rows = [
            (name, est[j], lo[j], hi[j]) for j, name in enumerate(names)
        ]
    else:
        est_rows = [(name, fit.theta_map[j], "NA", "NA") for j, name in enumerate(names)]
    paths = {}
    paths["estimates"] = write_table(
        out / "estimates.csv", ["parameter", "estimate", "q2.5", "q97.5"], est_rows
    )

    trace_header = ["chain", "iteration", "step"] + names + [f"grad_{n}" for n in names]
    trace_rows = []
    for tr in fit.traces:
        for c in range(tr.theta.shape[0]):
            trace_rows.append(
                [c, tr.iteration, tr.step] + list(tr.theta[c]) + list(tr.grad[c])
            )
    paths["trace"] = write_table(out / "trace.csv", trace_header, trace_rows)

    if fit.posterior is not None:
        paths["posterior"] = write_table(
            out / "posterior.csv", names, [list(r) for r in fit.posterior]
        )

    window = min(opts.window, len(fit.traces))
    paths["diagnostics"] = _write_diagnostics(out, fit, names, opts.chains, window)
    return fit, paths


def _write_diagnostics(out, fit, names, chains, window):
    d = fit.diagnostics
    summary = {
        "converged": bool(fit.converged),
        "iterations": int(fit.n_iters),
        "S_T": None if d.get("S_T") is None else float(d["S_T"]),
    }
    summary.update(_rhat_drift_summary(names, d.get("rhat"), d.get("drift"), chains, window))
    if d.get("grad_corr") is not None:
        summary["grad_corr"] = [float(v) for v in d["grad_corr"]]
    path = Path(out) / "diagnostics.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(summary, sort_keys=True))
    return path


def _rhat_drift_summary(names, rhat_values, drift, chains, window) -> dict:
    """The R-hat and drift entries of a diagnostics summary.  A missing
    R-hat names what the trace lacks: ``chains`` chains, ``window``
    checkpoints in the window; a missing drift check is left out."""
    out = {}
    if rhat_values is not None:
        out["rhat"] = {n: float(v) for n, v in zip(names, rhat_values)}
    else:
        needs = [f">= 2 {what}" for what, count in
                 (("chains", chains), ("checkpoints in the window", window)) if count < 2]
        out["rhat"] = f"unavailable (needs {' and '.join(needs)})"
    if drift is not None:
        out["drift"] = {
            n: {
                "slope": float(drift.slope[j]),
                "rel_var": float(drift.rel_var[j]),
                "passed": bool(drift.passed[j]),
            }
            for j, n in enumerate(names)
        }
    return out


def _read_estimates(path, param_names):
    header, rows = read_table(path)
    names = _column(header, rows, "parameter", path)
    values = dict(zip(names, _numeric_column(header, rows, "estimate", path)))
    missing = [n for n in param_names if n not in values]
    if missing:
        raise InputError(f"estimates file {path} lacks parameter(s) {missing}")
    return np.array([values[n] for n in param_names])


def run_predict(config: RunConfig, fit_dir=None, out_dir=None):
    """Predictive summaries and samples at the configured targets."""
    out = Path(out_dir or config.output["dir"])
    fit_dir = Path(fit_dir or config.output["dir"])
    op = build_operator(config.model["operator"])
    Y, A, X = _load_fit_inputs(config, op.dim)
    model = build_model_from_config(config, op, A, X)
    theta = _read_estimates(fit_dir / "estimates.csv", model.param_names)
    with _values_in("predict"):
        k, burnin, thin = (int(config.predict[key]) for key in ("samples", "burnin", "thin"))
        qs = [float(q) for q in config.predict["quantiles"]]

    targets_path = config.predict.get("targets")
    if targets_path:
        header, rows = read_table(targets_path)
        A_star, X_star = _observation_rows(config, op.dim, header, rows, targets_path)
        labels = np.arange(len(rows))
    else:
        A_star, X_star, labels = model.A, model.X, np.arange(model.m)

    pred = posterior_predict(
        theta,
        model,
        Y,
        A_star,
        X_star,
        k=k,
        seed=config.seed,
        burnin=burnin,
        thin=thin,
        targets=labels,
    )
    quant = pred.quantiles(qs)
    mean, sd = pred.mean(), pred.sd()
    header = ["target", "mean", "sd"] + [f"q{q}" for q in qs]
    rows = [[labels[j], mean[j], sd[j]] + list(quant[:, j]) for j in range(labels.size)]
    paths = {}
    paths["predictions"] = write_table(out / "predictions.csv", header, rows)
    paths["samples"] = write_table(
        out / "predictive_samples.csv", [str(t) for t in labels], pred.eta_star
    )
    return pred, paths


def run_score(config: RunConfig, out_dir=None):
    """One-row score table: MAE, MSE, CRPS, sCRPS (negatively oriented)."""
    out = Path(out_dir or config.output["dir"])
    samples_path = _require(config.score, "samples", "score")
    truth_path = _require(config.score, "truth", "score")
    header, rows = read_table(samples_path)
    if not rows:
        raise InputError(f"samples file {samples_path} has no sample rows")
    with _values_in(str(samples_path), InputError):
        eta = np.array([[float(v) for v in row] for row in rows])
    t_header, t_rows = read_table(truth_path)
    response = config.score.get("response", config.data.get("response", "y"))
    y = _numeric_column(t_header, t_rows, response, truth_path)
    if y.size != eta.shape[1]:
        raise InputError(
            f"{truth_path} has {y.size} rows but {samples_path} has {eta.shape[1]} targets"
        )
    rep = score_report(
        PredictiveSamples(eta_star=eta, targets=np.array(header)), y
    )
    path = write_table(
        out / "scores.csv",
        ["mae", "mse", "crps", "scrps"],
        [[rep.mae, rep.mse, rep.crps, rep.scrps]],
    )
    return rep, path


def run_diagnose(config: RunConfig, fit_dir=None):
    """Recompute convergence diagnostics from a written trace file.

    ``S_T_checkpoints`` sums, over every checkpoint of the whole trace,
    the inner products of consecutive checkpoint gradients (the mean over
    chains).  It is not the fit's ``S_T`` in ``diagnostics.yaml``, which
    sums the products of every iteration's gradients over the last window.
    """
    path = Path(fit_dir or config.output["dir"]) / "trace.csv"
    header, rows = read_table(path)
    chain_of, iter_of = (_numeric_column(header, rows, name, path, int) for name in header[:2])
    chains, iters = np.unique(chain_of), np.unique(iter_of)
    param_names = [h for h in header[3:] if not h.startswith("grad_")]
    p = len(param_names)
    cells = [_numeric_column(header, rows, name, path) for name in header[3 : 3 + 2 * p]]
    values = np.array(cells).reshape(2 * p, len(rows)).T
    c, t = np.searchsorted(chains, chain_of), np.searchsorted(iters, iter_of)
    theta = np.empty((len(chains), len(iters), p))
    grads = np.empty((len(chains), len(iters), p))
    theta[c, t], grads[c, t] = values[:, :p], values[:, p:]
    window = min(int(config.inference["window"]), len(iters))
    summary = {"checkpoints": len(iters), "chains": len(chains)}
    rhat_values = rhat(theta, window).values if len(chains) >= 2 and window >= 2 else None
    drift = drift_check(theta, window, iters) if window >= 3 else None
    summary.update(_rhat_drift_summary(param_names, rhat_values, drift, len(chains), window))
    summary["S_T_checkpoints"] = (
        float(np.mean([grad_inner_stat(g) for g in grads])) if len(iters) >= 2 else None
    )
    return summary


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser():
    parser = argparse.ArgumentParser(
        prog="nglatent",
        description="Latent non-Gaussian modeling: simulate, fit, predict, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "predict", "score", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored; chains run in one thread (kept so old command lines parse)")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        config = RunConfig.from_yaml(args.config)
        if args.seed is not None:
            config.seed = args.seed
        if args.command == "simulate":
            paths = run_simulate(config, out_dir=args.out)
            print(f"wrote {paths['data']} and {paths['truth']}")
        elif args.command == "fit":
            fit, paths = run_fit(config, out_dir=args.out)
            for key, path in paths.items():
                print(f"wrote {path}")
            if not fit.converged:
                print("fit did not satisfy all convergence diagnostics", file=sys.stderr)
                return EXIT_NONCONVERGED
        elif args.command == "predict":
            _, paths = run_predict(config, fit_dir=args.out, out_dir=args.out)
            for key, path in paths.items():
                print(f"wrote {path}")
        elif args.command == "score":
            rep, path = run_score(config, out_dir=args.out)
            print(f"wrote {path}")
            print(
                f"mae={rep.mae:.6g} mse={rep.mse:.6g} crps={rep.crps:.6g} scrps={rep.scrps:.6g}"
            )
        elif args.command == "diagnose":
            summary = run_diagnose(config, fit_dir=args.out)
            print(yaml.safe_dump(summary, sort_keys=True))
    except (ConfigError, InputError, NglatentError) as exc:
        if isinstance(exc, NumericalError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
