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

One expression (``_grad_rows``) gives the gradient for the k latent
states of each of C chains at once, one row each, over stacked (C, k, n)
arrays; each chain's K values, noise parameters and kernel traces
broadcast along the chain axis, and a single model is the case C = 1.
Both estimators take one model; their private forms ``_mc_gradients``
and ``_rb_gradients`` take the models of a fit's chains, which then
share one pass.  At drawn W it is the
augmented gradient, as used by ``augmented_grad`` (k = 1) and the Monte
Carlo estimator ``mc_gradient``.  The Rao-Blackwellized estimator
``rb_gradient`` takes the conditional expectation of that gradient given
(V, Y): the rows are the conditional means of W, which is all the linear
terms need, and the stacked covariance bands of W | V, Y (a partial
inverse of the conditional precision) make each quadratic term gain its
covariance term: tr(A Sigma A') for sigma_eps, diag(K Sigma K') for
sigma, and diag(dK Sigma K') for each kernel parameter.  The last sums
only the row pairs of K whose dK entry lies in the support the operator
records for that parameter (``plan.dk``, built once per model):
the other products are zero whatever the parameter value.  A parameter
with no listed support sums all of K's pairs, as diag(K Sigma K') does,
and shares its gathers of the band.  Both estimators
average the rows, map them to the unconstrained scale and subtract the
prior gradient in one shared tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import (
    BandedSigma,
    sigma_bands,
    sigma_cross_quad_diag,
    sigma_obs_quad_trace,
    sigma_quad_diag,
)
from .distributions import GAUSSIAN, _log_prior_v, _nu_grad
from .errors import InputError, ParameterDomainError, ParameterLookupError, UnsupportedFamilyError
from .gibbs import _joint, _ThetaStage, _w_conditional
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
    """The mixing variables of C chains' draws (one list per chain, each
    draw a ``LatentState`` or a ``(V_W, V_Y)`` pair) as (C, k, n) and
    (C, k, m) arrays, checked strictly positive."""
    if len(draws) == 0 or any(len(d) == 0 for d in draws):
        raise InputError("gradient estimation needs at least one draw")
    pairs = [[(d.V_W, d.V_Y) if isinstance(d, LatentState) else d for d in ds] for ds in draws]
    v_w = np.array([[w for w, _ in ps] for ps in pairs], dtype=float)
    v_y = np.array([[y for _, y in ps] for ps in pairs], dtype=float)
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
    _mixing([[state]])
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


def _per_chain(values) -> np.ndarray:
    """One value per chain as a (C, 1) column, to broadcast along the draw
    axis of (C, k) rows."""
    return np.array(values, dtype=float)[:, None]


def _noise_rows(noises, sq, e, v):
    """Gradient rows of one noise block's parameters, in its layout order
    (``param_names``), from the block's spec in each chain (``noises``):
    one value per row of its centered noise e, shape (C, k, d), with
    mixing variables v; sq is sum e^2 / v per row, shape (C, k), with any
    covariance term already in."""
    noise = noises[0]
    sig = [nz.sigma for nz in noises]
    rows = {"sigma": _per_chain([-noise.dim / s for s in sig]) + sq / _per_chain([s**3 for s in sig])}
    if noise.family != GAUSSIAN:
        t = v - noise.h
        t *= e
        t /= v
        rows["mu"] = np.sum(t, axis=-1) / _per_chain([s**2 for s in sig])
        rows["nu"] = _nu_grad(noise, v, _per_chain([nz.nu for nz in noises])[..., None])
    return [rows[k] for k in noise.param_names]


def _measurement_rows(models, Y, W, sigma: Optional[BandedSigma]):
    """The rows of beta and of the measurement block's parameters (see
    ``_grad_rows``)."""
    mdl = models[0]
    chains, k, n = W.shape
    r = (mdl.A @ W.reshape(chains * k, n).T).T.reshape(chains, k, -1)
    np.subtract(np.array([Y - m.X @ m.beta for m in models])[:, None], r, out=r)
    sq_r = np.sum(r**2, axis=-1)
    if sigma is not None:
        sq_r += sigma_obs_quad_trace(sigma, mdl.A.data, mdl.plan.aa)
    parts = [r @ mdl.X / _per_chain([m.noise_y.sigma**2 for m in models])[..., None]]
    return parts + _noise_rows([m.noise_y for m in models], sq_r, r, 1.0)


def _grad_rows(models, Y, W, v_w, sigma: Optional[BandedSigma] = None):
    """Rows of the augmented log-likelihood gradient, natural scale, for C
    chains' models on one structure: one row per draw of each chain, with
    ``W`` and ``v_w`` of shape (C, k, n) and the result (C, k, params).
    Each chain's K values, noise parameters and kernel traces broadcast
    along the chain axis, so all C k draws take one pass.

    Without ``sigma`` each row of ``W`` is a drawn latent state.  With
    ``sigma``, the covariance bands of the C k conditionals W | V, Y
    stacked (C, k, width + 1, n), the rows of ``W`` are their means and
    each quadratic term gains its covariance term.  The cross terms of
    parameters with no listed dK support sum over all of K's pairs, as
    diag(K Sigma K') does, and share its gathers of the band.

    The (C, k, n) temporaries are worked in place where the arithmetic
    allows, as a few large arrays live at a time."""
    mdl = models[0]
    plan, params = mdl.plan, mdl.op.params
    noises_w = [m.noise_w for m in models]
    k_data = np.array([m.op.K.data for m in models])[:, None]
    dk_data = {name: np.array([m.op.dK[name].data for m in models])[:, None] for name in params}
    parts = _measurement_rows(models, Y, W, sigma)

    e = plan.k_product(k_data, W)
    e -= _per_chain([nw.mu for nw in noises_w])[..., None] * (v_w - mdl.noise_w.h)
    sq_e = e**2
    shared_cross = {}
    if sigma is not None:
        shared = [name for name in params if name not in plan.dk]
        kk = sigma_quad_diag(sigma, k_data, plan.kk, [dk_data[name] for name in shared])
        if shared:
            kk, *cross = kk
            shared_cross = dict(zip(shared, cross))
        sq_e += kk
        del kk
    sq_e /= v_w
    parts += _noise_rows(noises_w, np.sum(sq_e, axis=-1), e, v_w)
    del sq_e

    ev = np.divide(e, v_w, out=e)
    sig2 = _per_chain([nw.sigma**2 for nw in noises_w])
    traces = [trace_kinv_dk(m.op) for m in models]
    for name in params:
        quad = plan.k_product(dk_data[name], W)
        quad *= ev
        if sigma is not None:
            cross = shared_cross.pop(name, None)
            if cross is None:
                cross = sigma_cross_quad_diag(sigma, dk_data[name], k_data, plan.dk[name])
            cross /= v_w
            quad += cross
        parts.append(_per_chain([t[name] for t in traces]) - np.sum(quad, axis=-1) / sig2)
    return np.concatenate([p if p.ndim == 3 else p[..., None] for p in parts], axis=-1)


def augmented_grad(model: Model, theta, Y, state: LatentState) -> np.ndarray:
    """Gradient of log pi(Y, W, V) in theta, on the unconstrained scale."""
    mdl = _prepared(model, theta)
    v_w, _ = _mixing([[state]])
    nat = _grad_rows([mdl], Y, state.W[None, None], v_w)[0, 0]
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


def _report(models, rows, priors: Optional[PriorSet], estimator: str) -> GradientReport:
    """Minus the mean of each chain's gradient rows on the unconstrained
    scale, minus its prior gradient: g of shape (C, params)."""
    nat = rows.mean(axis=1)
    g = np.empty_like(nat)
    for c, mdl in enumerate(models):
        g[c] = -nat[c] * jacobian_natural(mdl.theta_natural(), mdl.transform_tags)
        _, pg = prior_grad(
            mdl.priors if priors is None else priors, mdl.theta_unconstrained(), mdl.param_names
        )
        g[c] -= pg
    return GradientReport(g=g, k=rows.shape[1], estimator=estimator)


def _first(report: GradientReport) -> GradientReport:
    """The report of the only chain of a one-chain call."""
    return GradientReport(g=report.g[0], k=report.k, estimator=report.estimator)


def mc_gradient(
    model: Model, theta, Y, draws, priors: Optional[PriorSet] = None
) -> GradientReport:
    """Monte Carlo estimator: minus the average augmented gradient over
    (V, W) draws, minus the prior gradient.  The draws go through one
    pass over stacked (k, n) arrays."""
    states = getattr(draws, "states", draws)
    return _first(_mc_gradients([_prepared(model, theta)], Y, [states], priors))


def _mc_gradients(models, Y, draws, priors: Optional[PriorSet] = None) -> GradientReport:
    """``mc_gradient`` for the models of C chains on one structure (a
    fit's chains), ``draws`` one list per chain: all chains' draws take
    one pass, and ``g`` holds one row per chain."""
    models = [_prepared(m, None) for m in models]
    v_w, _ = _mixing(draws)
    W = np.array([[s.W for s in states] for states in draws], dtype=float)
    return _report(models, _grad_rows(models, Y, W, v_w), priors, "MC")


def rb_gradient(
    model: Model, theta, Y, v_draws, priors: Optional[PriorSet] = None
) -> GradientReport:
    """Rao-Blackwellized estimator using only mixing-variable draws.

    For each V draw the conditional expectation of the augmented gradient
    over W | V, Y is computed in closed form (conditional mean plus
    covariance traces), then averaged, negated, and combined with the
    prior gradient.  The k draws go through one pass over stacked (k, n)
    arrays.
    """
    return _first(_rb_gradients([_prepared(model, theta)], Y, [v_draws], priors))


def _rb_gradients(
    models, Y, v_draws, priors: Optional[PriorSet] = None, conds=None
) -> GradientReport:
    """``rb_gradient`` for the models of C chains on one structure (a
    fit's chains), with ``v_draws`` and ``conds`` one list per chain, and
    ``g`` one row per chain.  Without ``conds`` the k conditionals of a
    chain are built as one block-diagonal system.  All draws take one
    pass: one selected inverse over all their factors (``sigma_bands``)
    and one set of gradient rows."""
    models = [_prepared(m, None) for m in models]
    v_w, v_y = _mixing(v_draws)
    if conds is None:
        conds = []
        for mdl, a, b in zip(models, v_w, v_y):
            means, factor = _w_conditional(_joint([_ThetaStage(mdl, Y)] * len(a)), a, b)
            conds.append([(mu, factor.block(i)) for i, mu in enumerate(means)])
    plan = models[0].plan
    mean = np.array([[mu for mu, _ in cc] for cc in conds])
    S = sigma_bands([f for cc in conds for _, f in cc], plan.bandwidth)
    sigma = BandedSigma(S.reshape(mean.shape[:2] + S.shape[1:]), plan.order)
    return _report(models, _grad_rows(models, Y, mean, v_w, sigma), priors, "RB")
