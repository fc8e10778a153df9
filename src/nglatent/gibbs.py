"""Exact conditional samplers and the Gibbs loop.

W | V, Y is Gaussian with sparse precision
    Q = K' D_w^-1 K + A' D_y^-1 A,   D_w = diag(sigma^2 V_W),
and each mixing variable V_i | W, Y stays GIG with shifted order
p - 1/2 and updated (a, b).  One sweep samples W, then the process
block V_W, then the measurement block V_Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy import sparse

from ._linalg import SpdFactor
from .distributions import GAUSSIAN, gig_sample_many, mixing_prior_arrays
from .errors import InputError
from .model import LatentState, Model

__all__ = [
    "GibbsDraws",
    "GibbsChain",
    "conditional_w_params",
    "sample_w",
    "sample_v",
    "gibbs_run",
]

V_FLOOR = 1e-12


@dataclass
class GibbsDraws:
    """Stored post-burn-in, thinned states of one chain."""

    states: List[LatentState]
    burnin: int
    thin: int

    def __len__(self):
        return len(self.states)


def _prepared(model: Model, theta) -> Model:
    return model if theta is None else model.with_theta(theta)


def _w_conditional(mdl: Model, v_w, v_y, Y):
    """Mean and banded factor of W | V, Y (Proposition-style forms).

    Q's band comes from the model's structure plan; no sparse matrix is
    built per call."""
    if np.any(v_w <= 0) or np.any(v_y <= 0):
        raise InputError("mixing variables must be strictly positive")
    K, A = mdl.op.K, mdl.A
    dw = mdl.noise_w.sigma**2 * v_w
    dy = mdl.noise_y.sigma**2 * v_y
    mean_w = mdl.noise_w.mu * (v_w - mdl.noise_w.h)
    resid = Y - mdl.X @ mdl.beta - mdl.noise_y.mu * (v_y - 1.0)
    plan = mdl.plan
    factor = SpdFactor(plan.band(K, A, dw, dy), plan.order)
    return factor.solve(plan.rhs(K, A, mean_w / dw, resid / dy)), factor


def conditional_w_params(model: Model, theta, V, Y):
    """Mean vector and sparse precision (natural order) of W | V, Y."""
    mdl = _prepared(model, theta)
    v_w, v_y = (np.asarray(v, float) for v in V)
    mu, _ = _w_conditional(mdl, v_w, v_y, Y)
    K, A = mdl.op.K, mdl.A
    Q = K.T.multiply(1.0 / (mdl.noise_w.sigma**2 * v_w)) @ K
    Q = Q + A.T.multiply(1.0 / (mdl.noise_y.sigma**2 * v_y)) @ A
    return mu, sparse.csr_matrix(Q)


def _draw_w(rng, mdl, v_w, v_y, Y, cond=None):
    mu, factor = cond if cond is not None else _w_conditional(mdl, v_w, v_y, Y)
    return mu + factor.whiten(rng.standard_normal(mdl.n))


def sample_w(rng, model: Model, theta, V, Y):
    """Exact draw from N(mu_W, Sigma_W) via the factorized precision."""
    mdl = _prepared(model, theta)
    v_w, v_y = V
    return _draw_w(rng, mdl, np.asarray(v_w, float), np.asarray(v_y, float), Y)


def _gig_params(noise, e):
    """(p, a, b) of the conditional GIG laws of one mixing block, given its
    residuals e (K W for the process block, Y - X beta - A W for the
    measurement block)."""
    p, a, b = mixing_prior_arrays(noise)
    mu, sig2 = noise.mu, noise.sigma**2
    return p - 0.5, a + mu**2 / sig2, b + (e + mu * noise.h) ** 2 / sig2


def _gig_draw(rng, noise, e):
    p, a, b = _gig_params(noise, e)
    np.maximum(b, 1e-30, out=b)
    v = gig_sample_many(rng, p, a, b)
    np.maximum(v, V_FLOOR, out=v)
    return v


def _draw_v(rng, mdl, W, Y):
    if mdl.noise_w.family == GAUSSIAN:
        v_w = mdl.noise_w.h.copy()
    else:
        v_w = _gig_draw(rng, mdl.noise_w, mdl.op.K @ W)
    if mdl.noise_y.family == GAUSSIAN:
        v_y = np.ones(mdl.m)
    else:
        v_y = _gig_draw(rng, mdl.noise_y, Y - mdl.X @ mdl.beta - mdl.A @ W)
    return v_w, v_y


def sample_v(rng, model: Model, theta, W, Y) -> Tuple[np.ndarray, np.ndarray]:
    """Independent GIG draws from the mixing-variable conditionals;
    Gaussian blocks return V = h unchanged."""
    mdl = _prepared(model, theta)
    return _draw_v(rng, mdl, np.asarray(W, float), Y)


def conditional_v_gig_params(model: Model, theta, W, Y):
    """(p, a, b) arrays of the process-block conditional GIG laws."""
    mdl = _prepared(model, theta)
    return _gig_params(mdl.noise_w, mdl.op.K @ np.asarray(W, float))


class GibbsChain:
    """A warm-started Gibbs chain owning its rng and current state.

    The optimizer keeps one per optimization chain and advances it a few
    sweeps per gradient evaluation instead of restarting.
    """

    def __init__(self, model: Model, Y, rng, theta=None):
        self.model = _prepared(model, theta)
        self.Y = np.asarray(Y, dtype=float)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.v_w = self.model.noise_w.h.copy()
        self.v_y = np.ones(self.model.m)
        self.w = None
        self._cond = None

    def set_theta(self, theta_natural):
        self.model = self.model.with_theta(theta_natural)
        self._cond = None

    def sweep(self, k: int = 1, with_conditionals: bool = False):
        """Advance k sweeps, returning the k visited states.

        With ``with_conditionals`` the W | V, Y conditional computed at
        each visited V (already needed for the next W draw) is returned
        alongside, so gradient estimators can reuse the factorization.
        """
        out = []
        conds = []
        for _ in range(k):
            if self._cond is None:
                self._cond = _w_conditional(self.model, self.v_w, self.v_y, self.Y)
            self.w = _draw_w(
                self.rng, self.model, self.v_w, self.v_y, self.Y, cond=self._cond
            )
            self.v_w, self.v_y = _draw_v(self.rng, self.model, self.w, self.Y)
            self._cond = _w_conditional(self.model, self.v_w, self.v_y, self.Y)
            out.append(LatentState(W=self.w, V_W=self.v_w.copy(), V_Y=self.v_y.copy()))
            conds.append(self._cond)
        if with_conditionals:
            return out, conds
        return out


def gibbs_run(
    rng, model: Model, theta, Y, iters: int, burnin: int = 100, thin: int = 1
) -> GibbsDraws:
    """Run the two-block Gibbs sampler and return post-burn-in states.

    Initialization is V = h (the Gaussian limit), then each iteration
    samples W | V, Y followed by the two mixing blocks.
    """
    if not iters > burnin >= 0:
        raise InputError(f"need iters > burnin >= 0, got iters={iters}, burnin={burnin}")
    if thin < 1:
        raise InputError("thin must be >= 1")
    chain = GibbsChain(model, Y, rng, theta)
    states = []
    for t in range(iters):
        state = chain.sweep(1)[0]
        if t >= burnin and (t - burnin) % thin == 0:
            states.append(state)
    return GibbsDraws(states=states, burnin=burnin, thin=thin)
