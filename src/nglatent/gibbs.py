"""Exact conditional samplers and the Gibbs loop.

W | V, Y is Gaussian with sparse precision
    Q = K' D_w^-1 K + A' D_y^-1 A,   D_w = diag(sigma^2 V_W),
and each mixing variable V_i | W, Y stays GIG with shifted order
p - 1/2 and updated (a, b).  One sweep samples W, then the process
block V_W, then the measurement block V_Y.

Both conditionals are built in two stages.  The per-theta stage
(``_ThetaStage``) holds what depends on the parameters and the data
only: K's pair products for Q's band, Y - X beta, the (p, a, nu h^2)
arrays of each non-Gaussian mixing block, and, when the measurement
noise is Gaussian (V_Y = 1), the A terms of Q's band and of the
right-hand side.  A ``GibbsChain`` builds it with its model and again
on ``set_theta``; prediction runs every sweep at one theta and a fit
reuses each theta for k + 1 conditionals per chain.  The per-draw stage
(``_w_conditional``, ``_draw_v``) forms only the terms in V and W.
Callers without a chain build the per-theta stage on the spot, so there
is one conditional path; ``sample_w`` and ``conditional_w_params``
leave the A terms to the draw and use the V_Y they are given.

Several chains can sweep in lockstep (``lockstep_sweep``).  Their
W | V, Y conditionals form one block-diagonal system (``_w_conditional``
over the chains' joined per-theta constants, ``_Joint``): one ``bincount``
assembles all chains' bands, one banded Cholesky factors them, each
chain's mean is solved with its own block of the factor, and one
whitening gives every chain's W, each chain drawing its standard
normals from its own rng.  Then a shared mixing stream draws the mixing
variables of all chains.  Both blocks take one path (``_draw_v``),
process block first: the non-Gaussian blocks of one kind, over all
chains, share one ``gig_sample_many`` call, and a Gaussian block keeps
V = h.  The sampler acts elementwise, so each chain's draws keep their
law, and each chain's conditional, factor and W equal those it gets
alone.  A single ``GibbsChain`` is the one-chain case, with its own rng
as the mixing stream; its draws come in the order W, V_W, V_Y.
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


class _ThetaStage:
    """What the W | V, Y conditional and the mixing draws take from one
    parameter value and the data, built once and read by every draw at
    that value: K's pair products for Q's band, Y - X beta, and per
    mixing block, process then measurement, its noise (``noises``) and,
    unless it is Gaussian, its per-theta GIG arrays (``gig``).
    A Gaussian measurement block has V_Y = 1 in the sampler, so its A
    terms of Q's band and of the right-hand side are fixed too (``obs``).
    ``obs`` is None when V_Y is drawn, or when ``fix_v_y`` is false and
    each draw takes its V_Y from the caller."""

    def __init__(self, model: Model, Y, fix_v_y: bool = True):
        self.model = model
        self.products = model.plan.pair_products(model.op.K)
        self.y0 = np.asarray(Y, dtype=float) - model.X @ model.beta
        self.noises = model.noise_w, model.noise_y
        self.gig = tuple(None if nz.family == GAUSSIAN else _gig_block(nz) for nz in self.noises)
        fixed = self.gig[1] is None and fix_v_y
        self.obs = _obs_parts(model, self.y0, np.ones(model.m)) if fixed else None
        self._joint = None

    def residual(self, block: int, w):
        """The residuals at W of mixing block 0, the process (K W), or of
        block 1, the measurement (Y - X beta - A W)."""
        mdl = self.model
        return mdl.op.K @ w if block == 0 else self.y0 - mdl.A @ w

    @property
    def joint(self) -> "_Joint":
        """This chain's conditional constants as a one-chain ``_Joint``."""
        if self._joint is None:
            self._joint = _Joint([self])
        return self._joint


class _Joint:
    """The per-theta constants of the W | V, Y conditionals of C chains at
    one structure, one row per chain: sigma^2 and mu of the process noise,
    K's values and pair products, and the fixed A terms (``obs``, None
    unless every chain fixes them).  Built once per set of stages and read
    by every draw at them.  It keeps no reference to the stages, which
    cache it (``_ThetaStage.joint``)."""

    def __init__(self, stages):
        self.chains = len(stages)
        # each chain's model and Y - X beta, for A's terms at a drawn V_Y
        self.obs_inputs = [(s.model, s.y0) for s in stages]
        mdl = stages[0].model
        self.plan, self.h = mdl.plan, mdl.noise_w.h
        noises = [s.model.noise_w for s in stages]
        self.sig2 = np.array([[nw.sigma**2] for nw in noises])
        self.mu = np.array([[nw.mu] for nw in noises])
        self.products = np.array([s.products for s in stages])
        self.k_data = np.array([s.model.op.K.data for s in stages])
        fixed = all(s.obs is not None for s in stages)
        self.obs = tuple(np.array(x) for x in zip(*(s.obs for s in stages))) if fixed else None
        self.order = self.plan.stacked(len(stages)).order


def _joint(stages) -> _Joint:
    return stages[0].joint if len(stages) == 1 else _Joint(stages)


def _w_conditional(joint: _Joint, v_w, v_y):
    """Means, shape (C, n), and one banded factor of W | V, Y for C chains
    at one structure, from their joined per-theta constants and their V_W
    and V_Y (one row each); only the terms in V are formed here.

    The chains' precisions never couple, so they form one block-diagonal
    system: Q's band is one ``bincount`` over the chains' terms laid out
    block by block (``StructurePlan.stacked``), factored by one banded
    Cholesky.  Chain c's factor is ``factor.block(c)``, a view, which
    solves for its mean.  No sparse matrix is built per call."""
    v_w, v_y = np.asarray(v_w, dtype=float), np.asarray(v_y, dtype=float)
    if (v_w <= 0).any() or (v_y <= 0).any():
        raise InputError("mixing variables must be strictly positive")
    plan, chains = joint.plan, joint.chains
    dw = joint.sig2 * v_w
    u = joint.mu * (v_w - joint.h) / dw
    obs = joint.obs
    if obs is None:
        parts = [_obs_parts(mdl, y0, b) for (mdl, y0), b in zip(joint.obs_inputs, v_y)]
        obs = tuple(np.array(x) for x in zip(*parts))
    factor = SpdFactor(plan.band(joint.products, dw, obs[0]), joint.order, blocks=chains)
    mean = plan.rhs(joint.k_data, u, obs[1]).reshape(chains, -1)
    # block by block: a transposed triangular solve across blocks would sum
    # a row's products in other groupings and move the means' last bits
    for c in range(chains):
        mean[c] = factor.block(c).solve(mean[c])
    return mean, factor


def _obs_parts(mdl: Model, y0, v_y):
    """The A terms of Q's band and of the right-hand side at a given V_Y."""
    ny = mdl.noise_y
    dy = ny.sigma**2 * v_y
    resid = y0 - ny.mu * (v_y - 1.0)
    return mdl.plan.obs_band_terms(mdl.A, dy), mdl.plan.obs_rhs_terms(mdl.A, resid / dy)


def conditional_w_params(model: Model, theta, V, Y):
    """Mean vector and sparse precision (natural order) of W | V, Y."""
    mdl = _prepared(model, theta)
    v_w, v_y = (np.asarray(v, float) for v in V)
    mean, _ = _w_conditional(_ThetaStage(mdl, Y, fix_v_y=False).joint, [v_w], [v_y])
    K, A = mdl.op.K, mdl.A
    Q = K.T.multiply(1.0 / (mdl.noise_w.sigma**2 * v_w)) @ K
    Q = Q + A.T.multiply(1.0 / (mdl.noise_y.sigma**2 * v_y)) @ A
    return mean[0], sparse.csr_matrix(Q)


def _draw_w(rngs, cond):
    """One W per chain from the chains' conditional ``cond``, chain c
    drawing its standard normals from rngs[c]."""
    mean, factor = cond
    z = np.empty(mean.shape)
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return mean + factor.whiten(z.ravel()).reshape(mean.shape)


def sample_w(rng, model: Model, theta, V, Y):
    """Exact draw from N(mu_W, Sigma_W) via the factorized precision."""
    stage = _ThetaStage(_prepared(model, theta), Y, fix_v_y=False)
    v_w, v_y = V
    return _draw_w([rng], _w_conditional(stage.joint, [v_w], [v_y]))[0]


def _gig_block(noise):
    """The per-theta arrays of the conditional GIG laws of one mixing
    block: (p - 1/2, a + mu^2/sigma^2, b, mu h, sigma^2), from the prior
    GIG(p, a, b) of its mixing variables."""
    p, a, b = mixing_prior_arrays(noise)
    mu, sig2 = noise.mu, noise.sigma**2
    return p - 0.5, a + mu**2 / sig2, b, mu * noise.h, sig2


def _gig_params(block, e):
    """(p, a, b) of the conditional GIG laws of one mixing block, from its
    ``_gig_block`` and its residuals e (K W for the process block,
    Y - X beta - A W for the measurement block)."""
    p, a, b, mu_h, sig2 = block
    return p, a, b + (e + mu_h) ** 2 / sig2


def _gig_draw(rng, blocks):
    """Mixing variables of several non-Gaussian blocks, given as
    (``_gig_block``, residuals) pairs, from one GIG call over their joined
    parameters."""
    p, a, b = (np.concatenate(x) for x in zip(*(_gig_params(blk, e) for blk, e in blocks)))
    np.maximum(b, 1e-30, out=b)
    v = gig_sample_many(rng, p, a, b)
    np.maximum(v, V_FLOOR, out=v)
    out, start = [], 0
    for _, e in blocks:
        out.append(v[start : start + e.size])
        start += e.size
    return out


def _draw_v(rng, stages, ws):
    """V_W and V_Y of each of several chains, given its per-theta stage and
    its W.  Both blocks take one path, process first: the non-Gaussian
    blocks of all chains take one GIG call, and a Gaussian block gets a
    copy of its weights h."""
    out = []
    for block in (0, 1):
        drawn = [i for i, s in enumerate(stages) if s.gig[block] is not None]
        v = [s.noises[block].h.copy() if s.gig[block] is None else None for s in stages]
        if drawn:
            blocks = [(stages[i].gig[block], stages[i].residual(block, ws[i])) for i in drawn]
            for i, v_i in zip(drawn, _gig_draw(rng, blocks)):
                v[i] = v_i
        out.append(v)
    return out


def sample_v(rng, model: Model, theta, W, Y) -> Tuple[np.ndarray, np.ndarray]:
    """Independent GIG draws from the mixing-variable conditionals;
    Gaussian blocks return V = h unchanged."""
    stage = _ThetaStage(_prepared(model, theta), Y)
    (v_w,), (v_y,) = _draw_v(rng, [stage], [np.asarray(W, float)])
    return v_w, v_y


def conditional_v_gig_params(model: Model, theta, W, Y):
    """(p, a, b) arrays of the process-block conditional GIG laws."""
    mdl = _prepared(model, theta)
    return _gig_params(_gig_block(mdl.noise_w), mdl.op.K @ np.asarray(W, float))


class GibbsChain:
    """A warm-started Gibbs chain owning its rng and current state.

    The optimizer keeps one per optimization chain and advances them
    together (``lockstep_sweep``) a few sweeps per gradient evaluation
    instead of restarting.
    """

    def __init__(self, model: Model, Y, rng, theta=None):
        self.Y = np.asarray(Y, dtype=float)
        self._stage = _ThetaStage(_prepared(model, theta), self.Y)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.v_w, self.v_y = (nz.h.copy() for nz in self._stage.noises)
        self.w = None
        # (the chains' conditional at the current V, this chain's block)
        self._cond = None

    @property
    def model(self) -> Model:
        return self._stage.model

    def set_theta(self, theta_natural):
        self._stage = _ThetaStage(self.model.with_theta(theta_natural), self.Y)
        self._cond = None

    def sweep(self, k: int = 1):
        """Advance k sweeps, returning the k visited states."""
        return lockstep_sweep([self], k, self.rng)[0][0]


def _held_conditional(chains):
    """The conditional the chains hold at their current V, when each
    chain i holds block i of one shared conditional; else None."""
    held = chains[0]._cond
    if held is None or held[0][1].blocks != len(chains):
        return None
    for i, c in enumerate(chains):
        if c._cond is None or c._cond[0] is not held[0] or c._cond[1] != i:
            return None
    return held[0]


def lockstep_sweep(chains: Sequence[GibbsChain], k: int, rng):
    """Advance several chains k sweeps together.

    The chains' W | V, Y conditionals form one block-diagonal system
    (``_w_conditional``): one banded factorization per sweep serves every
    chain, each chain's block of it solves for its mean, and one whitening
    gives all their W draws, each chain drawing its standard normals from
    its own rng.  Then
    ``rng`` draws the mixing variables of all chains, one GIG call per
    block kind (process, measurement) that any chain has non-Gaussian.
    Returns, per chain, its k visited states and the W | V, Y
    conditionals at them: its mean and its block of the factor.
    """
    stages = [c._stage for c in chains]
    joint = _joint(stages)
    cond = _held_conditional(chains)
    if cond is None:
        cond = _w_conditional(joint, [c.v_w for c in chains], [c.v_y for c in chains])
    runs = [([], []) for _ in chains]
    for _ in range(k):
        ws = _draw_w([c.rng for c in chains], cond)
        v_w, v_y = _draw_v(rng, stages, ws)
        cond = _w_conditional(joint, v_w, v_y)
        mean, factor = cond
        for i, (c, (states, conds)) in enumerate(zip(chains, runs)):
            c.w, c.v_w, c.v_y, c._cond = ws[i], v_w[i], v_y[i], (cond, i)
            states.append(LatentState(W=ws[i], V_W=v_w[i].copy(), V_Y=v_y[i].copy()))
            conds.append((mean[i], factor.block(i)))
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
