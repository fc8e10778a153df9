"""Full model assembly and forward simulation.

A model couples an observation matrix A, covariates X, one latent
operator and two noise blocks (``NoiseSpec``): the process block drives
K W, the measurement block perturbs A W + X beta.  Theta is laid out
block by block: beta[0..p-1]; the measurement block's sigma_eps alone
(its mu and nu stay fixed: only Gaussian measurement noise is fittable);
the process block's own parameters in its order (``param_names``: sigma
for Gaussian noise, mu, sigma, nu otherwise); then the kernel parameters
in the operator's order.  Each noise parameter's transform follows from
its name, so no noise family is named here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from . import transforms as tr
from ._linalg import StructurePlan
from .distributions import NoiseSpec, gh_noise_sample
from .errors import AssemblyError
from .operators import LatentOperator

__all__ = [
    "PriorSet",
    "NormalPrior",
    "InverseExpPrior",
    "FlatPrior",
    "LatentState",
    "Model",
    "assemble_model",
    "simulate",
    "default_priors",
]


@dataclass(frozen=True)
class NormalPrior:
    """Normal prior on the unconstrained scale; var is the variance."""

    mean: float = 0.0
    var: float = 10.0

    def logpdf_grad(self, u: float):
        z = u - self.mean
        logp = -0.5 * z**2 / self.var - 0.5 * np.log(2.0 * np.pi * self.var)
        return logp, -z / self.var


@dataclass(frozen=True)
class InverseExpPrior:
    """Penalizing prior 1/nu ~ Exp(rate), expressed on u = log(nu)."""

    rate: float

    def logpdf_grad(self, u: float):
        lam = self.rate
        logp = np.log(lam) - u - lam * np.exp(-u)
        return logp, -1.0 + lam * np.exp(-u)


@dataclass(frozen=True)
class FlatPrior:
    def logpdf_grad(self, u: float):
        return 0.0, 0.0


@dataclass(frozen=True)
class PriorSet:
    """One prior per free parameter, keyed by parameter name."""

    entries: Dict[str, object]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.entries)

    def logpdf_grad(self, names, theta_unconstrained):
        logp = 0.0
        grad = np.zeros(len(names))
        for i, name in enumerate(names):
            lp, g = self.entries[name].logpdf_grad(float(theta_unconstrained[i]))
            logp += lp
            grad[i] = g
        return logp, grad


def default_priors(param_names, h_process) -> PriorSet:
    """Weakly informative defaults: Normal(0, 10) on the unconstrained
    scale, except nu which gets 1/nu ~ Exp(ln 2 / median(h))."""
    lam = np.log(2.0) / float(np.median(h_process))
    return PriorSet(
        {n: InverseExpPrior(rate=lam) if n == "nu" else NormalPrior(0.0, 10.0) for n in param_names}
    )


def flat_priors(param_names) -> PriorSet:
    return PriorSet({name: FlatPrior() for name in param_names})


@dataclass
class LatentState:
    """One configuration of the latent field and both mixing blocks."""

    W: np.ndarray
    V_W: np.ndarray
    V_Y: np.ndarray


@dataclass(frozen=True, eq=False)
class Model:
    A: sparse.csr_matrix
    X: np.ndarray
    op: LatentOperator
    noise_w: NoiseSpec
    noise_y: NoiseSpec
    beta: np.ndarray
    priors: PriorSet
    param_names: Tuple[str, ...]
    transform_tags: Tuple[str, ...]
    # built once by assemble_model: every parameter value keeps the stored
    # patterns of K, dK and A, and each dK's support
    plan: StructurePlan = field(repr=False)

    @property
    def n(self) -> int:
        return self.op.dim

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def theta_natural(self) -> np.ndarray:
        nw = self.noise_w
        vals = [*self.beta, self.noise_y.sigma, *(getattr(nw, k) for k in nw.param_names)]
        return np.array(vals + list(self.op.params.values()), dtype=float)

    def with_theta(self, theta_natural) -> "Model":
        """Rebuild the model at a new natural-scale parameter vector."""
        theta = np.asarray(theta_natural, dtype=float)
        if theta.shape != (self.n_params,):
            raise AssemblyError(
                f"theta has length {theta.shape}, model has {self.n_params} parameters"
            )
        p, names = self.p, self.noise_w.param_names
        end = p + 1 + len(names)
        noise_y = self.noise_y.with_params(sigma=float(theta[p]))
        noise_w = self.noise_w.with_params(
            **{k: float(x) for k, x in zip(names, theta[p + 1 : end])}
        )
        kernel = dict(zip(self.op.params, theta[end:]))
        op = self.op.with_params(kernel) if kernel else self.op
        return replace(self, op=op, noise_w=noise_w, noise_y=noise_y, beta=theta[:p].copy())

    def theta_unconstrained(self) -> np.ndarray:
        return tr.to_unconstrained(self.theta_natural(), self.transform_tags)


# transform tag of each noise parameter, by name
_NOISE_TAGS = {"mu": tr.IDENTITY, "sigma": tr.LOG, "nu": tr.LOG}


def _param_layout(X, op, noise_w):
    """Names and transform tags of theta, block by block."""
    p = X.shape[1]
    names = [f"beta[{i}]" for i in range(p)] + ["sigma_eps", *noise_w.param_names, *op.params]
    tags = [tr.IDENTITY] * p + [tr.LOG] + [_NOISE_TAGS[k] for k in noise_w.param_names]
    return tuple(names), tuple(tags + [op.transforms[k] for k in op.params])


def _weighted(noise: NoiseSpec, h, message: str) -> NoiseSpec:
    """The noise block with weights h; weights it already has must equal h."""
    if noise.h is None:
        return noise.with_h(h)
    if noise.dim != h.size or not np.allclose(noise.h, h):
        raise AssemblyError(message)
    return noise


def assemble_model(
    A,
    X,
    op: LatentOperator,
    noise_w: NoiseSpec,
    noise_y: NoiseSpec,
    priors: Optional[PriorSet] = None,
    beta=None,
) -> Model:
    """Validate and assemble the full hierarchy.

    Raises AssemblyError naming the offending component on any dimension
    mismatch or missing prior.
    """
    A = sparse.csr_matrix(A)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        X = X.reshape(A.shape[0], 0)
    if not op.is_square:
        raise AssemblyError(
            f"operator ({op.kind}) must be square for model assembly; "
            "pin intrinsic operators first (pin_operator)"
        )
    if A.shape[1] != op.dim:
        raise AssemblyError(
            f"observation matrix A has {A.shape[1]} columns but the operator "
            f"dimension is {op.dim}"
        )
    m = A.shape[0]
    if X.shape[0] != m:
        raise AssemblyError(
            f"covariate matrix X has {X.shape[0]} rows but A has {m}"
        )
    noise_w = _weighted(noise_w, op.h, "process noise weights (noise_w.h) must equal op.h")
    noise_y = _weighted(noise_y, np.ones(m), "measurement noise weights (noise_y.h) must all be 1")
    beta = np.zeros(X.shape[1]) if beta is None else np.asarray(beta, dtype=float)
    if beta.shape != (X.shape[1],):
        raise AssemblyError(
            f"beta has shape {beta.shape}, expected ({X.shape[1]},)"
        )
    names, tags = _param_layout(X, op, noise_w)
    if priors is None:
        priors = default_priors(names, noise_w.h)
    missing = [n for n in names if n not in priors.entries]
    if missing:
        raise AssemblyError(f"missing prior for parameter(s): {missing}")
    return Model(
        A=A,
        X=X,
        op=op,
        noise_w=noise_w,
        noise_y=noise_y,
        beta=beta,
        priors=priors,
        param_names=names,
        transform_tags=tags,
        plan=StructurePlan(op.K, A, op.dK_support),
    )


def simulate(model: Model, theta=None, rng=None):
    """Draw (Y, LatentState) from the generative hierarchy.

    Mixing variables come from their GIG priors, W = K^-1 eps_W through the
    operator's own solve (``LatentOperator.solve``), and
    Y = A W + X beta + eps_Y.  The rng is consumed in a fixed order
    (process block first), so equal seeds give identical output.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    mdl = model if theta is None else model.with_theta(theta)
    eps_w, v_w = gh_noise_sample(rng, mdl.noise_w)
    W = mdl.op.solve(eps_w)
    eps_y, v_y = gh_noise_sample(rng, mdl.noise_y)
    Y = mdl.A @ W + mdl.X @ mdl.beta + eps_y
    return Y, LatentState(W=W, V_W=v_w, V_Y=v_y)
