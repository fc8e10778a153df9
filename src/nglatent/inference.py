"""Stochastic-gradient MAP estimation and Langevin posterior sampling.

Estimation runs several independent chains from jittered starts.  Each
chain owns a warm Gibbs state (a ``GibbsChain``) and its own rng; the
chains' unconstrained iterates and ADAM moments are (chains, params)
arrays.  One optimizer iteration advances all chains k Gibbs sweeps in
lockstep (``gibbs.lockstep_sweep``: the chains' W | V, Y conditionals
form one block-diagonal system, factored once per sweep; each chain
draws W with its own rng, and one shared mixing stream draws the mixing
variables of every chain in one GIG call per block kind); forms every
chain's (Rao-Blackwellized by default) gradient of the negative
log-posterior at its own theta in one pass over all chains' draws (one
selected inverse over all their factors and one set of gradient rows,
each chain's values broadcast along a chain axis); takes one diagonally
preconditioned step of the whole array on the unconstrained scale; and
pushes each chain's new theta into its model.
Every ``checkpoint_every`` iterations the coordinator records a trace row
and evaluates three diagnostics over (chains, checkpoints, params) and
(chains, iterations, params) arrays: cross-chain agreement
(Gelman-Rubin), within-chain stabilization (trend per iteration /
relative variability of checkpoint means), and the accumulated inner
products of consecutive gradients.  When all three pass, the optimizer
stops and (optionally) switches to the sampling phase

    theta <- theta - gamma_t g(theta) + N(0, 2 gamma_t I),

whose iterates, mapped back to the natural scale, are the posterior
sample.  The sampling phase steps the chains in lockstep too, each chain
drawing its noise from its own rng.  The shared mixing stream of
``map_fit`` is the seed's child after the chains' own
(``SeedSequence(seed).spawn(chains + 1)[-1]``); ``sgld_sample`` is the
one-chain case, whose mixing stream is the chain's own rng.
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
# the multi-chain RB estimator is bound as ``rb_gradient``, the name the
# benchmark's tracer wraps here (perfbench/layers.py)
from .gradients import _mc_gradients
from .gradients import _rb_gradients as rb_gradient
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


def rhat(theta, window: int) -> RhatResult:
    """Between/within variance-ratio statistic per parameter over the
    trailing window of a (chains, checkpoints, params) array,

        rhat = sqrt((W + B/m) / W),

    with W the mean within-chain variance, B = m * var(chain means), and
    m the window length.  Identical chains give exactly 1; chains stuck
    at different levels give values far above 1.  Chains with zero
    variance throughout are reported as 1 with a degeneracy flag."""
    arr = np.asarray(theta, dtype=float)
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
    theta,
    window: int,
    iterations=None,
    slope_tol: float = 0.01,
    relvar_tol: float = 0.02,
    scale_floor: float = 0.5,
) -> DriftReport:
    """Within-chain stabilization of a (chains, checkpoints, params) array:
    OLS trend of checkpoint means plus their relative variability over a
    trailing window.

    The slope is per unit of ``iterations``, the checkpoints' iteration
    numbers (default: the checkpoint index).  A parameter passes when
    |slope| * window-span and the standard deviation of checkpoint means
    are both small relative to max(|mean|, scale_floor).
    """
    arr = np.asarray(theta, dtype=float)
    if iterations is None:
        iterations = np.arange(arr.shape[1])
    arr = arr[:, -window:, :]
    iters = np.asarray(iterations, dtype=float)[-window:]
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
RHAT_TOL = 1.05
RHAT_SPREAD_FLOOR = 1e-6
GRAD_CORR_TOL = 0.5
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
    p = model.p
    if p > 0:
        beta, *_ = np.linalg.lstsq(model.X, Y, rcond=None)
        theta[:p] = beta
        resid = Y - model.X @ beta
    else:
        resid = Y
    var_r = max(float(resid.var()), 1e-4)
    sig0 = np.sqrt(0.5 * var_r / float(np.mean(model.noise_w.h)))
    start = {"sigma_eps": np.sqrt(0.5 * var_r), "sigma": sig0, "mu": 0.0, "nu": 1.0}
    for i, name in enumerate(model.param_names):
        theta[i] = start.get(name, theta[i])
    return theta


def _check_options(
    model: Model, estimator: str, fixed: Sequence[str], positive: dict, **least
) -> np.ndarray:
    """The mask of the fixed parameters, after rejecting option values with
    which no fit can run or converge; ``positive`` maps an option name to
    its value, which must be positive (an infinite SGLD decay scale is a
    constant step), and ``least`` maps an option name to its value (None
    for an option left unset), which must be finite and at least its least
    allowed value, given with it.  A step size is in both."""
    if estimator not in ("rb", "mc"):
        raise InputError(f"unknown estimator {estimator!r}; expected 'rb' or 'mc'")
    for name, value in positive.items():
        if not value > 0.0:
            raise InputError(f"{name} must be positive, got {value}")
    for name, (value, minimum) in least.items():
        if value is not None and not minimum <= value < math.inf:
            raise InputError(f"{name} must be finite and at least {minimum}, got {value}")
    mask = np.zeros(model.n_params, dtype=bool)
    for name in fixed:
        if name not in model.param_names:
            raise InputError(f"unknown fixed parameter {name!r}")
        mask[list(model.param_names).index(name)] = True
    return mask


def _start(model: Model, Y, u0, jitter: float, fixed_mask, seeds):
    """The jittered (chains, params) starts and a warm Gibbs chain at each;
    chain c draws its jitter and its W from its own rng, seeded by
    ``seeds[c]``."""
    tags = model.transform_tags
    u = np.empty((len(seeds), u0.size))
    gibbs = []
    try:
        for c, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            shift = jitter * rng.standard_normal(u0.size)
            shift[fixed_mask] = 0.0
            u[c] = u0 + shift
            gibbs.append(GibbsChain(model.with_theta(to_natural(u[c], tags)), Y, rng))
    except (NumericalError, ParameterDomainError) as exc:
        raise OptimizationError(f"chain initialization failed: {exc}") from exc
    return u, gibbs


def _gradient(gibbs: Sequence[GibbsChain], runs, estimator: str) -> np.ndarray:
    """The chains' gradient estimates, one row per chain, from the states
    and conditionals of their latest k sweeps: one pass over all chains'
    draws."""
    models = [ch.model for ch in gibbs]
    states = [states for states, _ in runs]
    if estimator == "rb":
        conds = [conds for _, conds in runs]
        return rb_gradient(models, gibbs[0].Y, states, conds=conds).g
    return _mc_gradients(models, gibbs[0].Y, states).g


def _commit(chain: GibbsChain, u, tags):
    """Push one chain's unconstrained iterate into its Gibbs model."""
    if not np.all(np.isfinite(u)):
        raise NumericalError("non-finite iterate")
    chain.set_theta(to_natural(u, tags))


def _map_step_size(t: int, opts: FitOptions) -> float:
    if opts.decay_start is None or t <= opts.decay_start:
        return opts.step0
    return opts.step0 * (opts.decay_start / t) ** 0.51


def map_fit(model: Model, Y, opts: FitOptions = None) -> FitResult:
    """Preconditioned stochastic-gradient MAP fit with multi-chain
    convergence monitoring, followed by an optional SGLD phase.

    All chains run as one stacked system: one banded factorization per
    Gibbs sweep, and one selected inverse and one gradient pass per
    iteration, for every chain.  Each chain's draws and gradient equal
    those it would get alone.  A chain whose conditional precision has no
    Cholesky factor ends the fit in an ``OptimizationError``.

    The MAP estimate is the across-chain mean of the final unconstrained
    iterates, mapped back to the natural scale.
    """
    opts = opts or FitOptions()
    fixed_mask = _check_options(
        model, opts.estimator, opts.fixed,
        {"step0": opts.step0, "sgld_tau": opts.sgld_tau}, step0=(opts.step0, 0.0),
        sgld_step0=(opts.sgld_step0, 0.0),
        chains=(opts.chains, 1), k=(opts.k, 1), max_iters=(opts.max_iters, 0),
        checkpoint_every=(opts.checkpoint_every, 1), window=(opts.window, 3),
        sgld_samples=(opts.sgld_samples, 0), sgld_thin=(opts.sgld_thin, 1),
        decay_start=(opts.decay_start, 1),
    )
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
    seeds = np.random.SeedSequence(opts.seed).spawn(opts.chains + 1)
    mix_rng = np.random.default_rng(seeds[-1])
    u, gibbs = _start(model, Y, to_unconstrained(theta0, tags), opts.jitter, fixed_mask, seeds[:-1])
    m = np.zeros_like(u)
    v = np.zeros_like(u)
    grads: List[np.ndarray] = []  # one (chains, params) row per iteration

    traces: List[CheckpointTrace] = []
    converged = False
    diagnostics = {}
    t = 0
    window_iters = opts.window * opts.checkpoint_every
    while t < opts.max_iters:
        t += 1
        gamma = _map_step_size(t, opts)
        try:
            runs = lockstep_sweep(gibbs, opts.k, mix_rng)
            g = _gradient(gibbs, runs, opts.estimator)
            g[:, fixed_mask] = 0.0
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g**2
            mhat = m / (1 - ADAM_BETA1**t)
            vhat = v / (1 - ADAM_BETA2**t)
            u = u - gamma * mhat / (np.sqrt(vhat) + ADAM_EPS)
            for ch, row in zip(gibbs, u):
                _commit(ch, row, tags)
        except (NumericalError, ParameterDomainError) as exc:
            raise OptimizationError(
                f"divergent trajectory at iteration {t}: {exc}", traces=traces
            ) from exc
        grads.append(g)
        if t % opts.checkpoint_every == 0:
            traces.append(CheckpointTrace(iteration=t, theta=u, grad=g, step=gamma))
            if len(traces) >= opts.window and t >= opts.min_iters:
                diagnostics = _evaluate_diagnostics(
                    traces, grads[-window_iters:], opts.window, fixed_mask
                )
                if diagnostics["all_passed"]:
                    converged = True
                    break
    if not diagnostics and traces:
        diagnostics = _evaluate_diagnostics(traces, grads[-window_iters:], opts.window, fixed_mask)
    theta_map = to_natural(np.mean(u, axis=0), tags)

    posterior = None
    if opts.sgld_samples > 0:
        per_chain = math.ceil(opts.sgld_samples / opts.chains)
        posterior = _sgld_chains(
            gibbs, u, mix_rng, per_chain, opts.sgld_step0, opts.sgld_tau, opts.sgld_thin,
            opts.k, opts.estimator, fixed_mask,
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


def _evaluate_diagnostics(traces, grads, window, fixed_mask):
    """The convergence checks over the trailing ``window`` checkpoints and
    the gradient rows ``grads``, one (chains, params) row per iteration."""
    free = ~fixed_mask
    theta = np.stack([tr.theta for tr in traces], axis=1)  # (chains, checkpoints, params)
    hist = np.stack(grads, axis=1)  # (chains, iterations, params)
    out = {}
    window = min(window, len(traces))
    if theta.shape[0] >= 2 and window >= 2:
        rr = rhat(theta, window)
        out["rhat"] = rr.values
        out["rhat_degenerate"] = rr.degenerate
        # deterministic (noise-free) trajectories collapse the within-chain
        # variance; chains whose means already coincide to an absolute
        # floor count as agreeing even when the variance ratio is extreme
        means = theta[:, -window:, :].mean(axis=1)
        spread = means.max(axis=0) - means.min(axis=0)
        scale = np.maximum(1.0, np.abs(means).max(axis=0))
        agree = spread <= RHAT_SPREAD_FLOOR * scale
        ok = (rr.values < RHAT_TOL) | rr.degenerate | agree
        rhat_ok = bool(np.all(ok[free]))
    else:
        out["rhat"] = None
        rhat_ok = True
    if window >= 3:
        drift = drift_check(theta, window, [tr.iteration for tr in traces])
        out["drift"] = drift
        drift_ok = bool(np.all(drift.passed[free]))
    else:
        out["drift"] = None
        drift_ok = False
    two = hist.shape[1] >= 2
    out["grad_corr"] = np.array([_grad_corr(h) for h in hist] if two else [])
    out["S_T"] = float(np.mean([grad_inner_stat(h) for h in hist])) if two else None
    out["grad_rms"] = np.array([float(np.sqrt(np.mean(h**2))) for h in hist])
    # one gradient row gives no correlation: the check is unavailable
    grad_ok = two and bool(
        np.all((np.abs(out["grad_corr"]) < GRAD_CORR_TOL) | (out["grad_rms"] < GRAD_NORM_FLOOR))
    )
    out["all_passed"] = rhat_ok and drift_ok and grad_ok
    out["checks"] = {"rhat": rhat_ok, "drift": drift_ok, "grad": grad_ok}
    return out


# ---------------------------------------------------------------------------
# SGLD
# ---------------------------------------------------------------------------


def _sgld_chains(gibbs, u, mix_rng, n_keep, step0, tau, thin, k, estimator, fixed_mask):
    """n_keep kept SGLD draws per chain from the (chains, params) iterates
    ``u``, the chains stepped in lockstep; rows hold chain 0's draws first.
    Each chain draws its noise from its own rng.  A failure carries the
    failing chain's last kept draw; a failure in the shared sweep or
    gradient pass, which every chain takes part in, carries chain 0's."""
    tags = gibbs[0].model.transform_tags
    samples = np.empty((len(gibbs), n_keep, u.shape[1]))
    t = 0
    for s in range(n_keep):
        for _ in range(thin):
            t += 1
            gamma = step0 * (1.0 + t / tau) ** (-0.51)
            c = 0
            try:
                runs = lockstep_sweep(gibbs, k, mix_rng)
                g = _gradient(gibbs, runs, estimator)
                g[:, fixed_mask] = 0.0
                noise = np.sqrt(2.0 * gamma) * np.array(
                    [ch.rng.standard_normal(u.shape[1]) for ch in gibbs]
                )
                noise[:, fixed_mask] = 0.0
                u = u - gamma * g + noise
                for c, (ch, row) in enumerate(zip(gibbs, u)):
                    _commit(ch, row, tags)
            except (NumericalError, ParameterDomainError) as exc:
                last = to_natural(samples[c, s - 1], tags) if s > 0 else None
                raise SamplingError(
                    f"divergent SGLD trajectory at step {t}: {exc}", last_state=last
                ) from exc
        samples[:, s] = u
    return to_natural(samples.reshape(-1, samples.shape[2]).T, tags).T


def sgld_sample(model: Model, Y, theta0, opts: SgldOptions = None) -> np.ndarray:
    """Stochastic-gradient Langevin sampling from theta0 (natural scale).

    Iterates live on the unconstrained scale with injected noise of
    variance exactly 2 gamma_t per coordinate; the returned samples are
    on the natural scale, one row per kept draw.  This is the one-chain
    case of the sampling phase of ``map_fit``, with the chain's own rng
    as the mixing stream.
    """
    opts = opts or SgldOptions()
    fixed_mask = _check_options(
        model, opts.estimator, opts.fixed, {"tau": opts.tau}, step0=(opts.step0, 0.0),
        k=(opts.k, 1), thin=(opts.thin, 1), n_samples=(opts.n_samples, 0),
    )
    Y = np.asarray(Y, dtype=float)
    u0 = to_unconstrained(np.asarray(theta0, float), model.transform_tags)
    u, gibbs = _start(model, Y, u0, 0.0, fixed_mask, [np.random.SeedSequence(opts.seed)])
    return _sgld_chains(
        gibbs, u, gibbs[0].rng, opts.n_samples, opts.step0, opts.tau, opts.thin,
        opts.k, opts.estimator, fixed_mask,
    )
