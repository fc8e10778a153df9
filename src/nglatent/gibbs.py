"""Exact conditional samplers and the Gibbs loop.

W | V, Y is Gaussian with sparse precision
    Q = K' D_w^-1 K + A' D_y^-1 A,   D_w = diag(sigma^2 V_W),
and each mixing variable V_i | W, Y stays GIG with shifted order
p - 1/2 and updated (a, b).  One sweep samples W, then the process
block V_W, then the measurement block V_Y.

Several chains can sweep in lockstep (``lockstep_sweep``): each chain
draws W from its own conditional with its own rng, then one
``gig_sample_many`` call on a shared mixing stream draws the process
mixing variables of every chain, and one more call their measurement
mixing variables.  The sampler acts elementwise, so each chain's draws
keep their law.  A single ``GibbsChain`` is the one-chain case, with its
own rng as the mixing stream; its draws come in the order W, V_W, V_Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse

from ._linalg import SpdFactor
from .distributions import GAUSSIAN, gig_sample_many, mixing_prior_arrays
from .errors import InputError
from .model import LatentState, Model

__all__ = [
    "GibbsDraws",
    "GibbsChain",
    "lockstep_sweep",
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


def _gig_draw(rng, blocks):
    """Mixing variables of several non-Gaussian blocks, given as (noise,
    residuals) pairs, from one GIG call over their joined parameters."""
    p, a, b = (np.concatenate(x) for x in zip(*(_gig_params(nz, e) for nz, e in blocks)))
    np.maximum(b, 1e-30, out=b)
    v = gig_sample_many(rng, p, a, b)
    np.maximum(v, V_FLOOR, out=v)
    out, start = [], 0
    for _, e in blocks:
        out.append(v[start : start + e.size])
        start += e.size
    return out


def _draw_v(rng, models, ws, Ys):
    """V_W and V_Y of each of several chains, given its W.  Gaussian blocks
    keep V = h; the non-Gaussian process blocks of all chains take one GIG
    call, then their non-Gaussian measurement blocks one more."""
    v_w = [m.noise_w.h.copy() for m in models]
    v_y = [np.ones(m.m) for m in models]
    proc = [i for i, m in enumerate(models) if m.noise_w.family != GAUSSIAN]
    if proc:
        blocks = [(models[i].noise_w, models[i].op.K @ ws[i]) for i in proc]
        for i, v in zip(proc, _gig_draw(rng, blocks)):
            v_w[i] = v
    meas = [i for i, m in enumerate(models) if m.noise_y.family != GAUSSIAN]
    if meas:
        blocks = [
            (models[i].noise_y, Ys[i] - models[i].X @ models[i].beta - models[i].A @ ws[i])
            for i in meas
        ]
        for i, v in zip(meas, _gig_draw(rng, blocks)):
            v_y[i] = v
    return v_w, v_y


def sample_v(rng, model: Model, theta, W, Y) -> Tuple[np.ndarray, np.ndarray]:
    """Independent GIG draws from the mixing-variable conditionals;
    Gaussian blocks return V = h unchanged."""
    mdl = _prepared(model, theta)
    (v_w,), (v_y,) = _draw_v(rng, [mdl], [np.asarray(W, float)], [Y])
    return v_w, v_y


def conditional_v_gig_params(model: Model, theta, W, Y):
    """(p, a, b) arrays of the process-block conditional GIG laws."""
    mdl = _prepared(model, theta)
    return _gig_params(mdl.noise_w, mdl.op.K @ np.asarray(W, float))


class GibbsChain:
    """A warm-started Gibbs chain owning its rng and current state.

    The optimizer keeps one per optimization chain and advances them
    together (``lockstep_sweep``) a few sweeps per gradient evaluation
    instead of restarting.
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
        states, conds = lockstep_sweep([self], k, self.rng)[0]
        if with_conditionals:
            return states, conds
        return states


def lockstep_sweep(chains: Sequence[GibbsChain], k: int, rng):
    """Advance several chains k sweeps together.

    In each sweep every chain draws W from its own conditional with its
    own rng; then ``rng`` draws the mixing variables of all chains, one
    GIG call per block kind (process, measurement) that any chain has
    non-Gaussian.  Returns, per chain, its k visited states and the
    W | V, Y conditionals at them.
    """
    runs = [([], []) for _ in chains]
    for _ in range(k):
        for c in chains:
            if c._cond is None:
                c._cond = _w_conditional(c.model, c.v_w, c.v_y, c.Y)
            c.w = _draw_w(c.rng, c.model, c.v_w, c.v_y, c.Y, cond=c._cond)
        v_w, v_y = _draw_v(
            rng, [c.model for c in chains], [c.w for c in chains], [c.Y for c in chains]
        )
        for c, c_vw, c_vy, (states, conds) in zip(chains, v_w, v_y, runs):
            c.v_w, c.v_y = c_vw, c_vy
            c._cond = _w_conditional(c.model, c_vw, c_vy, c.Y)
            states.append(LatentState(W=c.w, V_W=c_vw.copy(), V_Y=c_vy.copy()))
            conds.append(c._cond)
    return runs


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
