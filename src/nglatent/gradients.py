"""Augmented log-likelihood, its analytic gradient, and the Monte Carlo /
Rao-Blackwellized estimators of the negative log-posterior gradient.

The augmented likelihood splits as
    log pi(Y | W) + log pi(W | V) + log pi(V),
with a Gaussian observation block (the only fittable measurement family),
log det K entering the process block, and family-specific mixing terms
(inverse-Gaussian or Gamma).  Gradients are derived per parameter on the
natural scale and chain-ruled onto the unconstrained optimization scale.

The Rao-Blackwellized estimator replaces each W draw by the exact
conditional expectation of the gradient given (V, Y): linear terms use
the conditional mean, quadratic terms add covariance traces obtained
from a partial inverse of the conditional precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from ._linalg import (
    OperatorLU,
    bandwidth_of,
    logdet_sparse,
    obs_row_span,
    sigma_cross_quad_diag,
    sigma_obs_quad_trace,
    sigma_quad_diag,
    trace_kinv_dk,
)
from .distributions import GAL, GAUSSIAN, NIG
from .errors import InputError, ParameterDomainError, UnsupportedFamilyError
from .gibbs import _w_conditional
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


def _check_state(mdl: Model, state: LatentState):
    if np.any(state.V_W <= 0) or np.any(state.V_Y <= 0):
        raise ParameterDomainError("mixing variables must be strictly positive")


def _log_prior_v(mdl: Model, v_w) -> float:
    nw = mdl.noise_w
    h = nw.h
    if nw.family == GAUSSIAN:
        return 0.0
    if nw.family == NIG:
        nu = nw.nu
        return float(
            np.sum(
                0.5 * np.log(nu * h**2 / (2.0 * np.pi * v_w**3))
                - 0.5 * nu * (v_w**2 + h**2) / v_w
                + nu * h
            )
        )
    nu = nw.nu
    return float(
        np.sum(
            -v_w * nu
            + h * nu * np.log(v_w * nu)
            - np.log(v_w)
            - special.gammaln(h * nu)
        )
    )


def augmented_loglik(model: Model, theta, Y, state: LatentState) -> float:
    """Joint log density log pi(Y, W, V) at the given latent state."""
    mdl = _prepared(model, theta)
    _check_state(mdl, state)
    m, n = mdl.m, mdl.n
    r = Y - mdl.X @ mdl.beta - mdl.A @ state.W
    sig_eps = mdl.noise_y.sigma
    ll = -0.5 * m * np.log(2.0 * np.pi) - m * np.log(sig_eps)
    ll -= 0.5 * np.sum(r**2) / sig_eps**2

    nw = mdl.noise_w
    e = mdl.op.K @ state.W - nw.mu * (state.V_W - nw.h)
    ll += -0.5 * n * np.log(2.0 * np.pi) - n * np.log(nw.sigma)
    ll += logdet_sparse(mdl.op.K)
    ll -= 0.5 * np.sum(np.log(state.V_W))
    ll -= 0.5 * np.sum(e**2 / state.V_W) / nw.sigma**2

    ll += _log_prior_v(mdl, state.V_W)
    return float(ll)


def _nu_grad(mdl: Model, v_w) -> float:
    nw = mdl.noise_w
    h = nw.h
    if nw.family == NIG:
        return float(
            np.sum(-(h**2) / (2.0 * v_w) - 0.5 * v_w + 0.5 / nw.nu + h)
        )
    return float(
        np.sum(
            h - v_w + h * np.log(v_w) + h * np.log(nw.nu) - h * special.psi(h * nw.nu)
        )
    )


def _kernel_traces(mdl: Model) -> dict:
    K = mdl.op.K
    lu = OperatorLU(K)
    return {name: trace_kinv_dk(K, d, lu=lu) for name, d in mdl.op.dK.items()}


def _grad_natural(mdl: Model, Y, state: LatentState, traces: dict) -> np.ndarray:
    """Analytic gradient of the augmented log-likelihood, natural scale."""
    nw = mdl.noise_w
    r = Y - mdl.X @ mdl.beta - mdl.A @ state.W
    sig_eps = mdl.noise_y.sigma
    parts = [mdl.X.T @ r / sig_eps**2]
    parts.append([-mdl.m / sig_eps + np.sum(r**2) / sig_eps**3])

    e = mdl.op.K @ state.W - nw.mu * (state.V_W - nw.h)
    sig = nw.sigma
    if nw.family != GAUSSIAN:
        g_mu = np.sum(e * (state.V_W - nw.h) / state.V_W) / sig**2
        g_sigma = -mdl.n / sig + np.sum(e**2 / state.V_W) / sig**3
        parts.append([g_mu, g_sigma, _nu_grad(mdl, state.V_W)])
    else:
        parts.append([-mdl.n / sig + np.sum(e**2 / state.V_W) / sig**3])

    ev = e / state.V_W
    kernel = [
        traces[name] - (mdl.op.dK[name] @ state.W) @ ev / sig**2
        for name in mdl.op.params
    ]
    parts.append(kernel)
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


def augmented_grad(model: Model, theta, Y, state: LatentState) -> np.ndarray:
    """Gradient of log pi(Y, W, V) in theta, on the unconstrained scale."""
    mdl = _prepared(model, theta)
    _check_state(mdl, state)
    nat = _grad_natural(mdl, Y, state, _kernel_traces(mdl))
    return nat * jacobian_natural(mdl.theta_natural(), mdl.transform_tags)


def trace_term(model: Model, theta, name: str) -> float:
    """tr(K^-1 dK/dtheta_name) via sparse solves on the nonzero columns."""
    mdl = model if theta is None else model.with_theta(theta)
    return trace_kinv_dk(mdl.op.K, mdl.op.dtheta(name))


def prior_grad(priors: PriorSet, theta_unconstrained, names=None):
    """Sum of log-priors and gradient on the unconstrained scale."""
    names = priors.names if names is None else names
    theta_u = np.asarray(theta_unconstrained, dtype=float)
    if not np.all(np.isfinite(theta_u)):
        raise ParameterDomainError("prior evaluation needs finite parameters")
    return priors.logpdf_grad(names, theta_u)


def _states_of(draws) -> Sequence[LatentState]:
    states = getattr(draws, "states", draws)
    if len(states) == 0:
        raise InputError("gradient estimation needs at least one draw")
    return states


def mc_gradient(
    model: Model, theta, Y, draws, priors: Optional[PriorSet] = None
) -> GradientReport:
    """Monte Carlo estimator: minus the average augmented gradient over
    (V, W) draws, minus the prior gradient."""
    mdl = _prepared(model, theta)
    states = _states_of(draws)
    priors = mdl.priors if priors is None else priors
    traces = _kernel_traces(mdl)
    acc = np.zeros(mdl.n_params)
    for state in states:
        _check_state(mdl, state)
        acc += _grad_natural(mdl, Y, state, traces)
    nat = acc / len(states)
    theta_nat = mdl.theta_natural()
    g = -nat * jacobian_natural(theta_nat, mdl.transform_tags)
    _, pg = prior_grad(priors, mdl.theta_unconstrained(), mdl.param_names)
    return GradientReport(g=g - pg, k=len(states), estimator="MC")


def _rb_grad_natural(mdl: Model, Y, v_w, v_y, traces: dict, band: int, cond=None) -> np.ndarray:
    mu, Q, factor, dw, dy = cond if cond is not None else _w_conditional(mdl, v_w, v_y, Y)
    sig_view = factor.sigma_band(band)
    nw = mdl.noise_w
    K = mdl.op.K

    r_bar = Y - mdl.X @ mdl.beta - mdl.A @ mu
    tr_obs = sigma_obs_quad_trace(sig_view, mdl.A)
    sig_eps = mdl.noise_y.sigma
    parts = [mdl.X.T @ r_bar / sig_eps**2]
    parts.append(
        [-mdl.m / sig_eps + (np.sum(r_bar**2) + tr_obs) / sig_eps**3]
    )

    e_bar = K @ mu - nw.mu * (v_w - nw.h)
    quad_k = sigma_quad_diag(sig_view, K)
    sig = nw.sigma
    if nw.family != GAUSSIAN:
        g_mu = np.sum(e_bar * (v_w - nw.h) / v_w) / sig**2
        g_sigma = -mdl.n / sig + np.sum((e_bar**2 + quad_k) / v_w) / sig**3
        parts.append([g_mu, g_sigma, _nu_grad(mdl, v_w)])
    else:
        parts.append([-mdl.n / sig + np.sum((e_bar**2 + quad_k) / v_w) / sig**3])

    ev = e_bar / v_w
    kernel = []
    for name in mdl.op.params:
        dK = mdl.op.dK[name]
        cross = sigma_cross_quad_diag(sig_view, dK, K)
        quad = (dK @ mu) @ ev + np.sum(cross / v_w)
        kernel.append(traces[name] - quad / sig**2)
    parts.append(kernel)
    return np.concatenate([np.atleast_1d(np.asarray(p, dtype=float)) for p in parts])


def rb_gradient(
    model: Model, theta, Y, v_draws, priors: Optional[PriorSet] = None, _conds=None
) -> GradientReport:
    """Rao-Blackwellized estimator using only mixing-variable draws.

    For each V draw the conditional expectation of the augmented gradient
    over W | V, Y is computed in closed form (conditional mean plus
    covariance traces), then averaged, negated, and combined with the
    prior gradient.
    """
    mdl = _prepared(model, theta)
    if len(v_draws) == 0:
        raise InputError("gradient estimation needs at least one draw")
    priors = mdl.priors if priors is None else priors
    traces = _kernel_traces(mdl)
    band = max(2 * bandwidth_of(mdl.op.K), obs_row_span(mdl.A))
    acc = np.zeros(mdl.n_params)
    for j, draw in enumerate(v_draws):
        if isinstance(draw, LatentState):
            v_w, v_y = draw.V_W, draw.V_Y
        else:
            v_w, v_y = draw
        v_w = np.asarray(v_w, dtype=float)
        v_y = np.asarray(v_y, dtype=float)
        if np.any(v_w <= 0) or np.any(v_y <= 0):
            raise ParameterDomainError("mixing variables must be strictly positive")
        cond = _conds[j] if _conds is not None else None
        acc += _rb_grad_natural(mdl, Y, v_w, v_y, traces, band, cond=cond)
    nat = acc / len(v_draws)
    g = -nat * jacobian_natural(mdl.theta_natural(), mdl.transform_tags)
    _, pg = prior_grad(priors, mdl.theta_unconstrained(), mdl.param_names)
    return GradientReport(g=g - pg, k=len(v_draws), estimator="RB")
