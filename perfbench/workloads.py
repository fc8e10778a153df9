"""The three workloads: inputs made from a seed, the timed fit and
predict phases of one round, and the output checks that follow them.

Each workload is fixed work.  The optimizer runs exactly its budget of
iterations (min_iters = max_iters), so the stopping rule never changes
how much work a round does, and every round of a run uses the same seed.
"""

from __future__ import annotations

import csv
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import yaml
from scipy import sparse

import oracles

AR1 = dict(n=500, chains=4, k=5, iters=80, step0=0.1, decay_start=40, sgld=40,
           samples=400, burnin=100)
SPACETIME = dict(T=10, S=24, length=24.0, held_out=0.2, chains=2, k=2, iters=16,
                 step0=0.05, sgld=8, samples=400, burnin=100)
BIVARIATE = dict(d=300, length=30.0, held_out=0.2, chains=2, k=2, iters=16, step0=0.05,
                 sgld=8, samples=400, burnin=100)

# predict (and score) runs this many times per round on the same inputs;
# predict_s is the median, which a short slow phase of the VM cannot move
PREDICT_REPEATS = 3

AR1_DATA_SEED = 2

# the operations of one round, in order; when one fails, those after it
# are not run and count as failed too
OPERATIONS = {
    "ar1-nig": ["simulate", "map_fit"] + ["posterior_predict", "score_report"] * PREDICT_REPEATS,
    "spacetime-nig": ["simulate", "map_fit"]
    + ["posterior_predict", "score_report"] * PREDICT_REPEATS,
    "bivariate-cli": ["cli simulate", "cli fit"] + ["cli predict", "cli score"] * PREDICT_REPEATS,
}

CRPS_TOL = 1e-9
ORACLE_TOL = 1e-10


class OperationFailed(Exception):
    pass


def _seeds(seed, count):
    """Independent integer seeds (data, fit, prediction, ...) from one seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * abs(b)


def _held_out(rng, n, share):
    held = np.sort(rng.choice(n, size=int(round(share * n)), replace=False))
    return held, np.setdiff1d(np.arange(n), held)


class Round:
    """The operations, phase times, check failures and outputs of one round."""

    def __init__(self, name):
        self.name = name
        self.done = 0
        self.error = None
        self.failures = []
        self.times = {}
        self.outputs = {}

    def op(self, fn, *args, accept=None, **kwargs):
        """Run one operation; it fails when it raises or when
        accept(result) is false."""
        label = OPERATIONS[self.name][self.done]
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            raise OperationFailed(f"{label}: {exc!r}") from exc
        if accept is not None and not accept(out):
            raise OperationFailed(f"{label}: returned {out!r}")
        self.done += 1
        return out

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def check_outputs(self, iters, n_iters, sgld, theta, posterior, eta, scores, truth, observed):
        """Checks every workload makes: the budget ran, every estimate and
        draw is finite, the reported CRPS equals the O(k^2) sum, and the
        forecast beats climatology."""
        self.check(n_iters == iters, f"fit ran {n_iters} of {iters} iterations")
        self.check(posterior.shape[0] == sgld, f"{posterior.shape[0]} of {sgld} SGLD draws")
        for label, arr in (("estimate", theta), ("SGLD draw", posterior), ("predictive sample", eta)):
            self.check(np.all(np.isfinite(arr)), f"non-finite {label}")
        crps = scores[2]
        direct = float(oracles.crps_direct(eta, truth).mean())
        self.check(_rel_close(crps, direct, CRPS_TOL), f"CRPS {crps!r} vs direct {direct!r}")
        clim = oracles.climatology_crps(observed, truth)
        self.check(crps < clim, f"CRPS {crps:.4f} does not beat climatology {clim:.4f}")
        self.outputs.update(theta=theta, posterior=posterior, eta=eta, scores=list(scores))


def _timed_fit_predict(rnd, fit_fn, predict_fn):
    t = time.perf_counter()
    fit = fit_fn()
    rnd.times["fit_s"] = time.perf_counter() - t
    times = []
    for _ in range(PREDICT_REPEATS):
        t = time.perf_counter()
        out = predict_fn(fit)
        times.append(time.perf_counter() - t)
    rnd.times["predict_s"] = statistics.median(times)
    return fit, out


def _scores(rep):
    return [rep.mae, rep.mse, rep.crps, rep.scrps]


# ---------------------------------------------------------------------------
# ar1-nig: criterion 01's NIG-AR1 with every node observed; the target is
# the latent field at every node, scored against the simulated W
# ---------------------------------------------------------------------------


def setup_ar1(ng, rnd, seed, workdir):
    c = AR1
    fit_seed, pred_seed = _seeds(seed, 2)
    n = c["n"]
    gen = ng.assemble_model(
        A=sparse.identity(n, format="csr"),
        X=np.zeros((n, 0)),
        op=ng.ar1_operator(0.8, n),
        noise_w=ng.NoiseSpec("nig", sigma=2.0, mu=3.0, nu=0.4),
        noise_y=ng.NoiseSpec("gaussian", sigma=1.0),
    )
    # criterion 01's data draw, to which its intervals belong; the seed
    # drives the chains, the Gibbs draws and the prediction
    Y, state = rnd.op(ng.simulate, gen, rng=np.random.default_rng(AR1_DATA_SEED))
    model = ng.assemble_model(
        A=gen.A,
        X=gen.X,
        op=ng.ar1_operator(0.3, n),
        noise_w=ng.NoiseSpec("nig", sigma=1.0, mu=0.0, nu=1.0),
        noise_y=ng.NoiseSpec("gaussian", sigma=1.0),
    )
    opts = ng.FitOptions(
        chains=c["chains"], max_iters=c["iters"], min_iters=c["iters"], k=c["k"],
        step0=c["step0"], decay_start=c["decay_start"], seed=fit_seed, jitter=0.5,
        sgld_samples=c["sgld"], sgld_step0=2e-4, sgld_tau=400,
    )
    return dict(Y=Y, W=state.W, model=model, opts=opts, pred_seed=pred_seed)


def run_ar1(ng, rnd, s):
    c = AR1
    n = c["n"]

    def predict(fit):
        pred = rnd.op(
            ng.posterior_predict, fit, s["model"], s["Y"], sparse.identity(n, format="csr"),
            np.zeros((n, 0)), k=c["samples"], seed=s["pred_seed"], burnin=c["burnin"],
        )
        return pred, rnd.op(ng.score_report, pred, s["W"])

    fit, (pred, rep) = _timed_fit_predict(
        rnd, lambda: rnd.op(ng.map_fit, s["model"], s["Y"], s["opts"]), predict
    )
    return fit, pred, rep


def check_ar1(ng, rnd, s, fit, pred, rep):
    """Criterion 01's intervals on the posterior means, with the noise KLD
    computed by scipy's NIG density."""
    pm = dict(zip(fit.param_names, fit.posterior.mean(axis=0)))
    bounds = {"phi": (0.75, 0.85), "mu": (2.6, 3.4), "nu": (0.2, 0.6), "sigma_eps": (0.8, 1.2)}
    for name, (lo, hi) in bounds.items():
        rnd.check(lo < pm[name] < hi, f"posterior mean {name}={pm[name]:.4f} outside ({lo}, {hi})")
    kld = oracles.nig_kld((3.0, 2.0, 0.4), (pm["mu"], pm["sigma"], pm["nu"]))
    rnd.check(kld < 0.05, f"noise KLD {kld:.4f} >= 0.05")
    rnd.check_outputs(AR1["iters"], fit.n_iters, AR1["sgld"], fit.theta_map, fit.posterior,
                      pred.eta_star, _scores(rep), s["W"], s["Y"])


# ---------------------------------------------------------------------------
# spacetime-nig: AR1(T) x Matern(S) tensor with NIG noise; a share of the
# space-time nodes is held out and predicted
# ---------------------------------------------------------------------------


def setup_spacetime(ng, rnd, seed, workdir):
    c = SPACETIME
    data_seed, fit_seed, pred_seed = _seeds(seed, 3)
    rng = np.random.default_rng(data_seed)
    mesh = ng.build_interval_mesh(np.linspace(0.0, c["length"], c["S"]))

    def op(phi, kappa):
        return ng.tensor_operator(ng.ar1_operator(phi, c["T"]), ng.matern_operator(kappa, mesh))

    n = c["T"] * c["S"]
    eye = sparse.identity(n, format="csr")
    gen = ng.assemble_model(
        A=eye,
        X=np.zeros((n, 0)),
        op=op(0.7, 0.5),
        noise_w=ng.NoiseSpec("nig", sigma=1.0, mu=1.0, nu=0.5),
        noise_y=ng.NoiseSpec("gaussian", sigma=0.3),
    )
    Y_all, state = rnd.op(ng.simulate, gen, rng=rng)
    held, kept = _held_out(rng, n, c["held_out"])
    model = ng.assemble_model(
        A=eye[kept],
        X=np.zeros((kept.size, 0)),
        op=op(0.3, 1.0),
        noise_w=ng.NoiseSpec("nig", sigma=1.0, mu=0.0, nu=1.0),
        noise_y=ng.NoiseSpec("gaussian", sigma=1.0),
    )
    opts = ng.FitOptions(
        chains=c["chains"], max_iters=c["iters"], min_iters=c["iters"], k=c["k"],
        step0=c["step0"], seed=fit_seed, jitter=0.5, sgld_samples=c["sgld"],
        sgld_step0=2e-4, sgld_tau=400,
    )
    return dict(Y=Y_all[kept], Y_held=Y_all[held], W=state.W, A_star=eye[held],
                model=model, opts=opts, pred_seed=pred_seed)


def run_spacetime(ng, rnd, s):
    c = SPACETIME

    def predict(fit):
        pred = rnd.op(
            ng.posterior_predict, fit, s["model"], s["Y"], s["A_star"],
            np.zeros((s["A_star"].shape[0], 0)), k=c["samples"], seed=s["pred_seed"],
            burnin=c["burnin"],
        )
        return pred, rnd.op(ng.score_report, pred, s["Y_held"])

    fit, (pred, rep) = _timed_fit_predict(
        rnd, lambda: rnd.op(ng.map_fit, s["model"], s["Y"], s["opts"]), predict
    )
    return fit, pred, rep


def check_spacetime(ng, rnd, s, fit, pred, rep):
    """At one Gibbs state (V drawn given the simulated field at the fitted
    parameters), the band of Q^-1 from the selected inverse and
    tr(K^-1 dK) per kernel parameter must match dense numpy."""
    from nglatent._linalg import SpdFactor

    c = SPACETIME
    model, theta = s["model"], fit.theta_map
    mdl = model.with_theta(theta)
    V = ng.sample_v(np.random.default_rng(s["pred_seed"]), model, theta, s["W"], s["Y"])
    _, Q = ng.conditional_w_params(model, theta, V, s["Y"])
    # the fit's width: twice the bandwidth S + 1 of K
    band = SpdFactor(Q).sigma_band(2 * (c["S"] + 1)).S
    ref = oracles.dense_band(Q, band.shape[0] - 1)
    err = np.max(np.abs(band - ref)) / np.max(np.abs(ref))
    rnd.check(err <= ORACLE_TOL, f"sigma_band relative error {err:.3g}")
    for name in mdl.op.params:
        got = ng.trace_term(model, theta, name)
        want = oracles.dense_trace(mdl.op.K, mdl.op.dK[name])
        rnd.check(_rel_close(got, want, ORACLE_TOL), f"tr(K^-1 dK/d{name}) {got!r} vs dense {want!r}")
    rnd.check_outputs(c["iters"], fit.n_iters, c["sgld"], fit.theta_map, fit.posterior,
                      pred.eta_star, _scores(rep), s["Y_held"], s["Y"])


# ---------------------------------------------------------------------------
# bivariate-cli: two coupled Matern fields run through the command line; a
# share of the responses is written as missing and then predicted
# ---------------------------------------------------------------------------

FIT_FILES = ("estimates.csv", "trace.csv", "posterior.csv", "diagnostics.yaml")


def _bivariate_operator(c, zeta, rho, kappa1, kappa2):
    mesh = {"start": 0.0, "end": c["length"], "n": c["d"]}
    return {
        "kind": "bivariate",
        "first": {"kind": "matern", "kappa": kappa1, "mesh": mesh},
        "second": {"kind": "matern", "kappa": kappa2, "mesh": mesh},
        "zeta": zeta,
        "rho": rho,
    }


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def setup_bivariate(ng, rnd, seed, workdir):
    from nglatent import cli

    c = BIVARIATE
    data_seed, fit_seed, mask_seed = _seeds(seed, 3)
    sim = {
        "seed": data_seed,
        "model": {
            "operator": _bivariate_operator(c, 2.5, 0.5, 0.5, 1.0),
            "noise_w": {"family": "nig", "sigma": 1.0, "mu": 0.5, "nu": 1.0},
            "noise_y": {"family": "gaussian", "sigma": 0.2},
        },
        "data": {"response": "y"},
    }
    (workdir / "simulate.yaml").write_text(yaml.safe_dump(sim))
    rnd.op(cli.main, ["simulate", "--config", str(workdir / "simulate.yaml"),
                      "--out", str(workdir / "sim")], accept=lambda code: code == 0)
    header, rows = _read_csv(workdir / "sim" / "data.csv")
    col = header.index("y")
    y = np.array([float(r[col]) for r in rows])
    held, kept = _held_out(np.random.default_rng(mask_seed), len(rows), c["held_out"])
    for i in held:
        rows[i][col] = "NA"
    _write_csv(workdir / "data.csv", header, rows)
    _write_csv(workdir / "targets.csv", ["index"], [[i] for i in held])
    _write_csv(workdir / "heldout.csv", ["y"], [[repr(float(y[i]))] for i in held])
    out = workdir / "out"
    config = {
        "seed": fit_seed,
        "model": {
            # starting values; zeta starts well inside (0, 2 pi)
            "operator": _bivariate_operator(c, 3.0, 0.0, 1.0, 1.0),
            "noise_w": {"family": "nig", "sigma": 1.0, "mu": 0.0, "nu": 1.0},
            "noise_y": {"family": "gaussian", "sigma": 1.0},
        },
        "data": {"path": str(workdir / "data.csv"), "response": "y", "index": "index",
                 "missing": "NA"},
        "inference": {"chains": c["chains"], "max_iters": c["iters"], "min_iters": c["iters"],
                      "k": c["k"], "step0": c["step0"], "sgld_samples": c["sgld"],
                      "sgld_step0": 2e-4, "sgld_tau": 400.0},
        "predict": {"targets": str(workdir / "targets.csv"), "samples": c["samples"],
                    "burnin": c["burnin"]},
        "score": {"samples": str(out / "predictive_samples.csv"),
                  "truth": str(workdir / "heldout.csv"), "response": "y"},
        "output": {"dir": str(out)},
    }
    (workdir / "fit.yaml").write_text(yaml.safe_dump(config))
    return dict(argv=["--config", str(workdir / "fit.yaml")], out=out, y=y, held=held, kept=kept)


def run_bivariate(ng, rnd, s):
    from nglatent import cli

    def fitted(code):
        # exit 4: the fixed budget ended before the diagnostics passed
        return code in (0, 4) and all((s["out"] / f).is_file() for f in FIT_FILES)

    def predict(_):
        rnd.op(cli.main, ["predict"] + s["argv"], accept=lambda code: code == 0)
        rnd.op(cli.main, ["score"] + s["argv"], accept=lambda code: code == 0)

    _timed_fit_predict(rnd, lambda: rnd.op(cli.main, ["fit"] + s["argv"], accept=fitted), predict)
    return ()


def check_bivariate(ng, rnd, s):
    c = BIVARIATE
    out = s["out"]

    def table(name):
        header, rows = _read_csv(out / name)
        return header, np.array([[float(v) for v in r] for r in rows])

    diag = yaml.safe_load((out / "diagnostics.yaml").read_text())
    _, trace = table("trace.csv")
    rnd.check(trace.shape[0] == c["chains"] * (c["iters"] // 10), "trace rows")
    _, est = _read_csv(out / "estimates.csv")
    _, posterior = table("posterior.csv")
    _, eta = table("predictive_samples.csv")
    rnd.check(eta.shape == (c["samples"], s["held"].size), f"predictive samples {eta.shape}")
    _, scores = table("scores.csv")
    rnd.check_outputs(c["iters"], diag["iterations"], c["sgld"],
                      np.array([float(r[1]) for r in est]), posterior, eta, scores[0],
                      s["y"][s["held"]], s["y"][s["kept"]])


WORKLOADS = {
    "ar1-nig": (setup_ar1, run_ar1, check_ar1),
    "spacetime-nig": (setup_spacetime, run_spacetime, check_spacetime),
    "bivariate-cli": (setup_bivariate, run_bivariate, check_bivariate),
}


def run_round(ng, name, seed, workdir, tracer=None):
    """Set up, fit, predict, then check one round of a workload.

    ``tracer``, when given, is already installed; it is taken out before
    the checks so that they are neither timed nor counted.  The end of
    set-up is kept as a ``time.monotonic()`` stamp in ``times``.
    """
    setup, run, check = WORKLOADS[name]
    rnd = Round(name)
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        s = setup(ng, rnd, seed, workdir)
        rnd.times["setup_end"] = time.monotonic()
        results = run(ng, rnd, s)
    except OperationFailed as exc:
        rnd.error = str(exc)
        return rnd
    finally:
        rnd.times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    check(ng, rnd, s, *results)
    return rnd
