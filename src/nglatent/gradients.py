"""Augmented log-likelihood, its analytic gradient, and the Monte Carlo /
Rao-Blackwellized estimators of the negative log-posterior gradient.

The augmented likelihood splits as
    log pi(Y | W) + log pi(W | V) + log pi(V),
one term per noise block plus log det K.  Both blocks go through the
same two functions of the block's centered noise e, mixing variables v
and sum e^2 / v: ``_noise_loglik`` (its log density) and ``_noise_rows``
(the gradient rows of its parameters, in its layout order).  The
measurement block, Gaussian as the only fittable measurement family,
has e = Y - X beta - A W and v = 1.  Gradients are derived per
parameter on the natural scale and chain-ruled onto the unconstrained
optimization scale.  The operator supplies log det K and its gradient
tr(K^-1 dK/dtheta) itself (``LatentOperator.logdet_grad``).

One expression (``_grad_rows``) gives the gradient for k latent states
at once, one row each, over stacked (k, n) arrays.  At drawn W it is the
augmented gradient, as used by ``augmented_grad`` (k = 1) and the Monte
Carlo estimator ``mc_gradient``.  The Rao-Blackwellized estimator
``rb_gradient`` takes the conditional expectation of that gradient given
(V, Y): the rows are the conditional means of W, which is all the linear
terms need, and the stacked covariance bands of W | V, Y (a partial
inverse of the conditional precision) make each quadratic term gain its
covariance term: tr(A Sigma A') for sigma_eps, diag(K Sigma K') for
sigma, and diag(dK Sigma K') for each kernel parameter.  Both estimators
average the rows, map them to the unconstrained scale and subtract the
prior gradient in one shared tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import BandedSigma, sigma_cross_quad_diag, sigma_obs_quad_trace, sigma_quad_diag
from .distributions import GAUSSIAN, _log_prior_v, _nu_grad
from .errors import InputError, ParameterDomainError, ParameterLookupError, UnsupportedFamilyError
from .gibbs import _ThetaStage, _w_conditional
from .model import LatentState, Model, PriorSet
from .transforms import jacobian_natural

__all__ = [
    "GradientReport",
    "augmented_loglik",
    "augmented_grad",
    "trace_term",
    "mc_gradient",
    "rb_gradient",
    "prior_grad",
]


@dataclass
class GradientReport:
    """Estimated gradient of the negative log-posterior (unconstrained
    scale), with the sample count and estimator tag."""

    g: np.ndarray
    k: int
    estimator: str


def _prepared(model: Model, theta) -> Model:
    mdl = model if theta is None else model.with_theta(theta)
    if mdl.noise_y.family != GAUSSIAN:
        raise UnsupportedFamilyError(
            "likelihood gradients support Gaussian measurement noise only"
        )
    return mdl


def _mixing(draws):
    """The mixing variables of the draws (each a ``LatentState`` or a
    ``(V_W, V_Y)`` pair) as (k, n) and (k, m) arrays, checked strictly
    positive."""
    if len(draws) == 0:
        raise InputError("gradient estimation needs at least one draw")
    pairs = [(d.V_W, d.V_Y) if isinstance(d, LatentState) else d for d in draws]
    v_w = np.array([w for w, _ in pairs], dtype=float)
    v_y = np.array([y for _, y in pairs], dtype=float)
    if np.any(v_w <= 0) or np.any(v_y <= 0):
        raise ParameterDomainError("mixing variables must be strictly positive")
    return v_w, v_y


def _noise_loglik(noise, sq, v) -> float:
    """log pi(e | V) + log pi(V) of one noise block, from its mixing
    variables v and sq = sum e^2 / v over its centered noise e."""
    d, sig = noise.dim, noise.sigma
    ll = -0.5 * d * np.log(2.0 * np.pi) - d * np.log(sig) - 0.5 * np.sum(np.log(v))
    return ll - 0.5 * sq / sig**2 + _log_prior_v(noise, v)


def augmented_loglik(model: Model, theta, Y, state: LatentState) -> float:
    """Joint log density log pi(Y, W, V) at the given latent state."""
    mdl = _prepared(model, theta)
    _mixing([state])
    r = Y - mdl.X @ mdl.beta - mdl.A @ state.W
    nw = mdl.noise_w
    e = mdl.op.K @ state.W - nw.mu * (state.V_W - nw.h)
    ll = _noise_loglik(mdl.noise_y, np.sum(r**2), 1.0)
    ll += _noise_loglik(nw, np.sum(e**2 / state.V_W), state.V_W)
    return float(ll + mdl.op.logdet_grad()[0])


def trace_kinv_dk(op) -> dict:
    """tr(K^-1 dK/dtheta) per kernel parameter, from the operator itself.

    The traced benchmark (``perfbench/layers.py``) wraps this name."""
    return op.logdet_grad()[1]


def _noise_rows(noise, sq, e, v):
    """Gradient rows of one noise block's parameters, in its layout order
    (``noise.param_names``), one value per row of its centered noise e
    with mixing variables v; sq is sum e^2 / v per row, with any
    covariance term already in."""
    sig = noise.sigma
    rows = {"sigma": -noise.dim / sig + sq / sig**3}
    if noise.family != GAUSSIAN:
        rows["mu"] = np.sum(e * (v - noise.h) / v, axis=1) / sig**2
        rows["nu"] = _nu_grad(noise, v)
    return [rows[k] for k in noise.param_names]


def _grad_rows(mdl: Model, Y, W, v_w, sigma: Optional[BandedSigma] = None):
    """Rows of the augmented log-likelihood gradient, natural scale, one per
    row of ``W`` and ``v_w`` (both (k, n)).

    Without ``sigma`` each row of ``W`` is a drawn latent state.  With
    ``sigma``, the stacked covariance bands of the k conditionals W | V, Y,
    the rows of ``W`` are their means and each quadratic term gains its
    covariance trace: the Rao-Blackwellized rows."""
    plan = mdl.plan
    nw = mdl.noise_w
    K = mdl.op.K
    traces = trace_kinv_dk(mdl.op)

    r = Y - mdl.X @ mdl.beta - (mdl.A @ W.T).T
    sq_r = np.sum(r**2, axis=1)
    if sigma is not None:
        sq_r = sq_r + sigma_obs_quad_trace(sigma, mdl.A, plan.aa)
    parts = [r @ mdl.X / mdl.noise_y.sigma**2]
    parts += _noise_rows(mdl.noise_y, sq_r, r, 1.0)

    e = (K @ W.T).T - nw.mu * (v_w - nw.h)
    sq_e = e**2
    if sigma is not None:
        sq_e = sq_e + sigma_quad_diag(sigma, K, plan.kk)
    parts += _noise_rows(nw, np.sum(sq_e / v_w, axis=1), e, v_w)

    sig, ev = nw.sigma, e / v_w
    for name in mdl.op.params:
        dK = mdl.op.dK[name]
        quad = (dK @ W.T).T * ev
        if sigma is not None:
            quad = quad + sigma_cross_quad_diag(sigma, dK, K, plan.kk) / v_w
        parts.append(traces[name] - np.sum(quad, axis=1) / sig**2)
    return np.column_stack(parts)


def augmented_grad(model: Model, theta, Y, state: LatentState) -> np.ndarray:
    """Gradient of log pi(Y, W, V) in theta, on the unconstrained scale."""
    mdl = _prepared(model, theta)
    v_w, _ = _mixing([state])
    nat = _grad_rows(mdl, Y, state.W[None], v_w)[0]
    return nat * jacobian_natural(mdl.theta_natural(), mdl.transform_tags)


def trace_term(model: Model, theta, name: str) -> float:
    """tr(K^-1 dK/dtheta_name), the derivative of log|det K|."""
    mdl = model if theta is None else model.with_theta(theta)
    traces = trace_kinv_dk(mdl.op)
    if name not in traces:
        raise ParameterLookupError(f"{mdl.op.kind} operator has no parameter {name!r}")
    return traces[name]


def prior_grad(priors: PriorSet, theta_unconstrained, names=None):
    """Sum of log-priors and gradient on the unconstrained scale."""
    names = priors.names if names is None else names
    theta_u = np.asarray(theta_unconstrained, dtype=float)
    if not np.all(np.isfinite(theta_u)):
        raise ParameterDomainError("prior evaluation needs finite parameters")
    return priors.logpdf_grad(names, theta_u)


def _report(mdl: Model, rows, priors: Optional[PriorSet], estimator: str) -> GradientReport:
    """Minus the mean of the gradient rows on the unconstrained scale,
    minus the prior gradient."""
    nat = rows.mean(axis=0)
    g = -nat * jacobian_natural(mdl.theta_natural(), mdl.transform_tags)
    priors = mdl.priors if priors is None else priors
    _, pg = prior_grad(priors, mdl.theta_unconstrained(), mdl.param_names)
    return GradientReport(g=g - pg, k=rows.shape[0], estimator=estimator)


def mc_gradient(
    model: Model, theta, Y, draws, priors: Optional[PriorSet] = None
) -> GradientReport:
    """Monte Carlo estimator: minus the average augmented gradient over
    (V, W) draws, minus the prior gradient.  The draws go through one
    pass over stacked (k, n) arrays."""
    mdl = _prepared(model, theta)
    states = getattr(draws, "states", draws)
    v_w, _ = _mixing(states)
    W = np.array([s.W for s in states], dtype=float)
    return _report(mdl, _grad_rows(mdl, Y, W, v_w), priors, "MC")


def rb_gradient(
    model: Model, theta, Y, v_draws, priors: Optional[PriorSet] = None, _conds=None
) -> GradientReport:
    """Rao-Blackwellized estimator using only mixing-variable draws.

    For each V draw the conditional expectation of the augmented gradient
    over W | V, Y is computed in closed form (conditional mean plus
    covariance traces), then averaged, negated, and combined with the
    prior gradient.  The k draws go through one pass over stacked (k, n)
    arrays; ``_conds`` passes the W | V, Y conditionals already computed
    at them.
    """
    mdl = _prepared(model, theta)
    v_w, v_y = _mixing(v_draws)
    if _conds is None:
        stage = _ThetaStage(mdl, Y)
        _conds = [_w_conditional(stage, a, b) for a, b in zip(v_w, v_y)]
    mean = np.stack([m for m, _ in _conds])
    plan = mdl.plan
    sigma = BandedSigma(
        np.stack([factor.sigma_band(plan.bandwidth).S for _, factor in _conds]), plan.order
    )
    return _report(mdl, _grad_rows(mdl, Y, mean, v_w, sigma), priors, "RB")
