"""Stochastic-gradient MAP estimation and Langevin posterior sampling.

Estimation runs several independent chains from jittered starts.  Each
chain owns a warm Gibbs state and its own rng.  One optimizer iteration
advances all chains k Gibbs sweeps in lockstep (``gibbs.lockstep_sweep``:
each chain draws W with its own rng, and one shared mixing stream draws
the mixing variables of every chain in one GIG call per block kind);
then each chain forms the (Rao-Blackwellized by default) gradient of the
negative log-posterior at its own theta and applies a diagonally
preconditioned step on the unconstrained scale.  Every
``checkpoint_every`` iterations the coordinator records a trace row and
evaluates three diagnostics: cross-chain agreement (Gelman-Rubin),
within-chain stabilization (trend / relative variability of checkpoint
means), and the accumulated inner products of consecutive gradients.
When all three pass, the optimizer stops and (optionally) switches to
the sampling phase

    theta <- theta - gamma_t g(theta) + N(0, 2 gamma_t I),

whose iterates, mapped back to the natural scale, are the posterior
sample.  The sampling phase steps the chains in lockstep too.  The
shared mixing stream of ``map_fit`` is the seed's child after the
chains' own (``SeedSequence(seed).spawn(chains + 1)[-1]``); a single
chain (``sgld_sample``) draws its mixing variables from its own rng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InputError,
    NumericalError,
    OptimizationError,
    ParameterDomainError,
    SamplingError,
)
from .gibbs import GibbsChain, lockstep_sweep
from .gradients import mc_gradient, rb_gradient
from .model import Model
from .transforms import to_natural, to_unconstrained

__all__ = [
    "FitOptions",
    "SgldOptions",
    "CheckpointTrace",
    "FitResult",
    "RhatResult",
    "DriftReport",
    "to_natural",
    "to_unconstrained",
    "rhat",
    "drift_check",
    "grad_inner_stat",
    "map_fit",
    "sgld_sample",
]


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass
class RhatResult:
    values: np.ndarray
    degenerate: np.ndarray  # True where both W and B vanish (reported as 1)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


def _as_theta_array(traces) -> np.ndarray:
    """(chains, checkpoints, params) from trace rows or a raw array."""
    if isinstance(traces, np.ndarray):
        return traces
    thetas = np.stack([t.theta for t in traces], axis=1)
    return thetas


def rhat(traces, window: int) -> RhatResult:
    """Between/within variance-ratio statistic per parameter over the
    trailing window of checkpoints,

        rhat = sqrt((W + B/m) / W),

    with W the mean within-chain variance, B = m * var(chain means), and
    m the window length.  Identical chains give exactly 1; chains stuck
    at different levels give values far above 1.  Chains with zero
    variance throughout are reported as 1 with a degeneracy flag."""
    arr = _as_theta_array(traces)
    if arr.ndim != 3 or arr.shape[0] < 2:
        raise InputError("rhat needs at least two chains")
    arr = arr[:, -window:, :]
    m = arr.shape[1]
    if m < 2:
        raise InputError("rhat needs at least two checkpoints in the window")
    within = arr.var(axis=1, ddof=1).mean(axis=0)
    means = arr.mean(axis=1)
    between = m * means.var(axis=0, ddof=1)
    values = np.empty(arr.shape[2])
    degenerate = np.zeros(arr.shape[2], dtype=bool)
    for j in range(arr.shape[2]):
        w, b = within[j], between[j]
        if w <= 1e-300:
            if b <= 1e-300:
                values[j] = 1.0
                degenerate[j] = True
            else:
                values[j] = np.inf
        elif b == 0.0:
            values[j] = 1.0
        else:
            values[j] = np.sqrt((w + b / m) / w)
    return RhatResult(values=values, degenerate=degenerate)


@dataclass
class DriftReport:
    rel_var: np.ndarray
    slope: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def drift_check(
    traces,
    window: int,
    slope_tol: float = 0.01,
    relvar_tol: float = 0.02,
    scale_floor: float = 0.5,
) -> DriftReport:
    """Within-chain stabilization: OLS trend of checkpoint means plus
    their relative variability over a trailing window.

    A parameter passes when |slope| * window-span and the standard
    deviation of checkpoint means are both small relative to
    max(|mean|, scale_floor).
    """
    arr = _as_theta_array(traces)
    if isinstance(traces, np.ndarray):
        iters = np.arange(arr.shape[1], dtype=float)
    else:
        iters = np.array([t.iteration for t in traces], dtype=float)
    arr = arr[:, -window:, :]
    iters = iters[-window:]
    if arr.shape[1] < 3:
        raise InputError("drift_check needs at least three checkpoints")
    y = arr.mean(axis=0)  # (checkpoints, params)
    x = iters - iters.mean()
    denom = np.sum(x**2)
    slope = (x @ y) / denom
    mean = y.mean(axis=0)
    sd = y.std(axis=0, ddof=1)
    constant = np.ptp(y, axis=0) == 0.0
    slope[constant] = 0.0
    sd[constant] = 0.0
    scale = np.maximum(np.abs(mean), scale_floor)
    rel_var = sd / scale
    span = iters[-1] - iters[0]
    passed = (np.abs(slope) * span <= slope_tol * scale) & (rel_var <= relvar_tol)
    return DriftReport(rel_var=rel_var, slope=slope, passed=passed)


def grad_inner_stat(grad_history) -> float:
    """Accumulated inner products of consecutive gradient estimates."""
    g = np.asarray(grad_history, dtype=float)
    if g.ndim != 2 or g.shape[0] < 2:
        raise InputError("grad_inner_stat needs at least two gradient records")
    return float(np.sum(g[:-1] * g[1:]))


def _grad_corr(grad_history) -> float:
    """Cauchy-Schwarz normalized version of the accumulated inner
    products, in [-1, 1]; near-equilibrium noise gives small values."""
    g = np.asarray(grad_history, dtype=float)
    num = np.sum(g[:-1] * g[1:])
    den = np.sqrt(np.sum(g[:-1] ** 2) * np.sum(g[1:] ** 2))
    if den == 0.0:
        return 0.0
    return float(num / den)


# ---------------------------------------------------------------------------
# Options and results
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RHAT_SPREAD_FLOOR = 1e-6
GRAD_NORM_FLOOR = 1e-6


@dataclass
class FitOptions:
    chains: int = 4
    max_iters: int = 1000
    min_iters: int = 100
    k: int = 5
    estimator: str = "rb"  # "rb" or "mc"
    step0: float = 0.05
    decay_start: Optional[int] = None  # constant step until here, then decay
    checkpoint_every: int = 10
    window: int = 5
    seed: int = 0
    jitter: float = 0.5
    theta0: Optional[np.ndarray] = None
    fixed: Tuple[str, ...] = ()
    rhat_tol: float = 1.05
    drift_slope_tol: float = 0.01
    drift_relvar_tol: float = 0.02
    drift_scale_floor: float = 0.5
    grad_corr_tol: float = 0.5
    sgld_samples: int = 0
    sgld_step0: float = 2e-4
    sgld_tau: float = 200.0
    sgld_thin: int = 1


@dataclass
class SgldOptions:
    n_samples: int = 1000
    step0: float = 2e-4
    tau: float = 200.0
    k: int = 5
    estimator: str = "rb"
    seed: int = 0
    thin: int = 1
    fixed: Tuple[str, ...] = ()


@dataclass
class CheckpointTrace:
    iteration: int
    theta: np.ndarray  # (chains, params), unconstrained
    grad: np.ndarray  # (chains, params)
    step: float


@dataclass
class FitResult:
    theta_map: np.ndarray  # natural scale
    param_names: Tuple[str, ...]
    traces: List[CheckpointTrace]
    posterior: Optional[np.ndarray]  # (samples, params), natural scale
    diagnostics: dict
    converged: bool
    n_iters: int

    def theta_map_named(self) -> dict:
        return dict(zip(self.param_names, self.theta_map))


# ---------------------------------------------------------------------------
# MAP estimation
# ---------------------------------------------------------------------------


def moment_start(model: Model, Y) -> np.ndarray:
    """Deterministic moment-based starting point on the natural scale."""
    Y = np.asarray(Y, dtype=float)
    theta = model.theta_natural().copy()
    names = model.param_names
    p = model.p
    if p > 0:
        beta, *_ = np.linalg.lstsq(model.X, Y, rcond=None)
        theta[:p] = beta
        resid = Y - model.X @ beta
    else:
        resid = Y
    var_r = max(float(resid.var()), 1e-4)
    theta[list(names).index("sigma_eps")] = np.sqrt(0.5 * var_r)
    sig0 = np.sqrt(0.5 * var_r / float(np.mean(model.noise_w.h)))
    theta[list(names).index("sigma")] = sig0
    if "mu" in names:
        theta[list(names).index("mu")] = 0.0
        theta[list(names).index("nu")] = 1.0
    return theta


class _ChainWorker:
    """One optimization chain: private rng, Gibbs state, ADAM buffers, and
    the states and conditionals of its latest k sweeps (``sweeps``), which
    ``_sweep`` sets and the chain's next gradient reads."""

    def __init__(self, model, Y, u0, tags, opts, seed, fixed_mask):
        if opts.estimator not in ("rb", "mc"):
            raise InputError(f"unknown estimator {opts.estimator!r}; expected 'rb' or 'mc'")
        self.rng = np.random.default_rng(seed)
        self.tags = tags
        self.fixed = fixed_mask
        jitter = opts.jitter * self.rng.standard_normal(u0.size)
        jitter[fixed_mask] = 0.0
        self.u = u0 + jitter
        try:
            self.gibbs = GibbsChain(model.with_theta(to_natural(self.u, tags)), Y, self.rng)
        except (NumericalError, ParameterDomainError) as exc:
            raise OptimizationError(f"chain initialization failed: {exc}") from exc
        self.m = np.zeros(u0.size)
        self.v = np.zeros(u0.size)
        self.grads: List[np.ndarray] = []
        self.opts = opts
        self.last_grad = np.zeros(u0.size)
        self.sweeps = None

    def gradient(self) -> np.ndarray:
        opts = self.opts
        states, conds = self.sweeps
        if opts.estimator == "rb":
            rep = rb_gradient(self.gibbs.model, None, self.gibbs.Y, states, _conds=conds)
        else:
            rep = mc_gradient(self.gibbs.model, None, self.gibbs.Y, states)
        g = rep.g
        g[self.fixed] = 0.0
        return g

    def adam_step(self, t: int, gamma: float):
        g = self.gradient()
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * g**2
        mhat = self.m / (1 - ADAM_BETA1**t)
        vhat = self.v / (1 - ADAM_BETA2**t)
        self.u = self.u - gamma * mhat / (np.sqrt(vhat) + ADAM_EPS)
        self.last_grad = g
        self.grads.append(g)

    def sgld_step(self, gamma: float):
        g = self.gradient()
        noise = np.sqrt(2.0 * gamma) * self.rng.standard_normal(self.u.size)
        noise[self.fixed] = 0.0
        self.u = self.u - gamma * g + noise

    def commit(self):
        """Push the current iterate into the Gibbs chain's model."""
        if not np.all(np.isfinite(self.u)):
            raise NumericalError("non-finite iterate")
        self.gibbs.set_theta(to_natural(self.u, self.tags))


def _sweep(workers: Sequence[_ChainWorker], mix_rng):
    """Advance every chain k Gibbs sweeps in lockstep, with ``mix_rng`` as
    the shared mixing stream."""
    chains = [w.gibbs for w in workers]
    for w, run in zip(workers, lockstep_sweep(chains, workers[0].opts.k, mix_rng)):
        w.sweeps = run


def _map_step_size(t: int, opts: FitOptions) -> float:
    if opts.decay_start is None or t <= opts.decay_start:
        return opts.step0
    return opts.step0 * (opts.decay_start / t) ** 0.51


def _fixed_mask(model: Model, fixed: Sequence[str]) -> np.ndarray:
    mask = np.zeros(model.n_params, dtype=bool)
    for name in fixed:
        if name not in model.param_names:
            raise InputError(f"unknown fixed parameter {name!r}")
        mask[list(model.param_names).index(name)] = True
    return mask


def map_fit(model: Model, Y, opts: FitOptions = None) -> FitResult:
    """Preconditioned stochastic-gradient MAP fit with multi-chain
    convergence monitoring, followed by an optional SGLD phase.

    The MAP estimate is the across-chain mean of the final unconstrained
    iterates, mapped back to the natural scale.
    """
    opts = opts or FitOptions()
    Y = np.asarray(Y, dtype=float)
    tags = model.transform_tags
    if opts.theta0 is None:
        theta0 = moment_start(model, Y)
    else:
        theta0 = np.asarray(opts.theta0, dtype=float)
    if opts.max_iters == 0:
        return FitResult(
            theta_map=theta0,
            param_names=model.param_names,
            traces=[],
            posterior=None,
            diagnostics={"note": "zero iterations requested"},
            converged=False,
            n_iters=0,
        )
    u0 = to_unconstrained(theta0, tags)
    fixed_mask = _fixed_mask(model, opts.fixed)
    seeds = np.random.SeedSequence(opts.seed).spawn(opts.chains + 1)
    mix_rng = np.random.default_rng(seeds[-1])
    workers = [
        _ChainWorker(model, Y, u0, tags, opts, seeds[c], fixed_mask)
        for c in range(opts.chains)
    ]

    traces: List[CheckpointTrace] = []
    converged = False
    diagnostics = {}
    t = 0
    window_iters = opts.window * opts.checkpoint_every
    while t < opts.max_iters:
        t += 1
        gamma = _map_step_size(t, opts)
        try:
            _sweep(workers, mix_rng)
            for wkr in workers:
                wkr.adam_step(t, gamma)
                wkr.commit()
        except (NumericalError, ParameterDomainError) as exc:
            raise OptimizationError(
                f"divergent trajectory at iteration {t}: {exc}", traces=traces
            ) from exc
        if t % opts.checkpoint_every == 0:
            traces.append(
                CheckpointTrace(
                    iteration=t,
                    theta=np.stack([w.u for w in workers]),
                    grad=np.stack([w.last_grad for w in workers]),
                    step=gamma,
                )
            )
            if len(traces) >= opts.window and t >= opts.min_iters:
                diagnostics = _evaluate_diagnostics(
                    traces, workers, opts, fixed_mask, window_iters
                )
                if diagnostics["all_passed"]:
                    converged = True
                    break
    if not diagnostics and traces:
        diagnostics = _evaluate_diagnostics(
            traces, workers, opts, fixed_mask, window_iters
        )
    u_final = np.mean([w.u for w in workers], axis=0)
    theta_map = to_natural(u_final, tags)

    posterior = None
    if opts.sgld_samples > 0:
        per_chain = math.ceil(opts.sgld_samples / opts.chains)
        posterior = _sgld_chains(
            workers, mix_rng, per_chain, opts.sgld_step0, opts.sgld_tau, opts.sgld_thin, tags
        )[: opts.sgld_samples]

    diagnostics["converged"] = converged
    return FitResult(
        theta_map=theta_map,
        param_names=model.param_names,
        traces=traces,
        posterior=posterior,
        diagnostics=diagnostics,
        converged=converged,
        n_iters=t,
    )


def _evaluate_diagnostics(traces, workers, opts, fixed_mask, window_iters):
    free = ~fixed_mask
    out = {}
    window = min(opts.window, len(traces))
    if len(workers) >= 2 and window >= 2:
        rr = rhat(traces, window)
        out["rhat"] = rr.values
        out["rhat_degenerate"] = rr.degenerate
        # deterministic (noise-free) trajectories collapse the within-chain
        # variance; chains whose means already coincide to an absolute
        # floor count as agreeing even when the variance ratio is extreme
        arr = _as_theta_array(traces)[:, -window:, :]
        means = arr.mean(axis=1)
        spread = means.max(axis=0) - means.min(axis=0)
        scale = np.maximum(1.0, np.abs(means).max(axis=0))
        agree = spread <= RHAT_SPREAD_FLOOR * scale
        ok = (rr.values < opts.rhat_tol) | rr.degenerate | agree
        rhat_ok = bool(np.all(ok[free]))
    else:
        out["rhat"] = None
        rhat_ok = True
    if window >= 3:
        drift = drift_check(
            traces,
            window,
            slope_tol=opts.drift_slope_tol,
            relvar_tol=opts.drift_relvar_tol,
            scale_floor=opts.drift_scale_floor,
        )
        out["drift"] = drift
        drift_ok = bool(np.all(drift.passed[free]))
    else:
        out["drift"] = None
        drift_ok = False
    corrs = []
    s_ts = []
    for w in workers:
        hist = np.asarray(w.grads[-window_iters:])
        if hist.shape[0] >= 2:
            corrs.append(_grad_corr(hist))
            s_ts.append(grad_inner_stat(hist))
    out["grad_corr"] = np.array(corrs)
    out["S_T"] = float(np.mean(s_ts)) if s_ts else None
    rms = [
        float(np.sqrt(np.mean(np.asarray(w.grads[-window_iters:]) ** 2)))
        for w in workers
    ]
    out["grad_rms"] = np.array(rms)
    grad_ok = bool(
        np.all(
            (np.abs(out["grad_corr"]) < opts.grad_corr_tol)
            | (out["grad_rms"] < GRAD_NORM_FLOOR)
        )
    )
    out["all_passed"] = rhat_ok and drift_ok and grad_ok
    out["checks"] = {"rhat": rhat_ok, "drift": drift_ok, "grad": grad_ok}
    return out


# ---------------------------------------------------------------------------
# SGLD
# ---------------------------------------------------------------------------


def _sgld_chains(workers, mix_rng, n_keep, step0, tau, thin, tags):
    """n_keep kept SGLD draws per chain, the chains stepped in lockstep;
    rows hold chain 0's draws first.  A failure carries the failing
    chain's last kept draw; a failure in the shared sweep, which every
    chain takes part in, carries chain 0's."""
    samples = np.empty((len(workers), n_keep, workers[0].u.size))
    t = 0
    for s in range(n_keep):
        for _ in range(thin):
            t += 1
            gamma = step0 * (1.0 + t / tau) ** (-0.51)
            c = 0
            try:
                _sweep(workers, mix_rng)
                for c, wkr in enumerate(workers):
                    wkr.sgld_step(gamma)
                    wkr.commit()
            except (NumericalError, ParameterDomainError) as exc:
                last = to_natural(samples[c, s - 1], tags) if s > 0 else None
                raise SamplingError(
                    f"divergent SGLD trajectory at step {t}: {exc}", last_state=last
                ) from exc
        samples[:, s] = [w.u for w in workers]
    return to_natural(samples.reshape(-1, samples.shape[2]).T, tags).T


def sgld_sample(model: Model, Y, theta0, opts: SgldOptions = None) -> np.ndarray:
    """Stochastic-gradient Langevin sampling from theta0 (natural scale).

    Iterates live on the unconstrained scale with injected noise of
    variance exactly 2 gamma_t per coordinate; the returned samples are
    on the natural scale, one row per kept draw.
    """
    opts = opts or SgldOptions()
    Y = np.asarray(Y, dtype=float)
    tags = model.transform_tags
    fit_opts = FitOptions(
        k=opts.k, estimator=opts.estimator, jitter=0.0, fixed=opts.fixed
    )
    fixed_mask = _fixed_mask(model, opts.fixed)
    u0 = to_unconstrained(np.asarray(theta0, float), tags)
    worker = _ChainWorker(
        model, Y, u0, tags, fit_opts, np.random.SeedSequence(opts.seed), fixed_mask
    )
    return _sgld_chains(
        [worker], worker.rng, opts.n_samples, opts.step0, opts.tau, opts.thin, tags
    )
