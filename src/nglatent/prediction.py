"""Posterior prediction of the linear predictor and proper scoring.

Predictive samples come from the Gibbs sampler run at the fitted
parameters: each latent draw W is mapped through the prediction
operator, eta* = A* W + X* beta.  Scores are negatively oriented
(smaller is better): MAE/MSE of the predictive mean, the sample CRPS

    mean |X_j - y|  -  1/2 mean_{j != j'} |X_j - X_j'|,

and the scaled CRPS  mean|X - y| / E|X - X'| + 1/2 log E|X - X'|, which
is invariant to common rescaling of samples and observation up to the
additive log term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DegenerateSamplesError, InputError
from .gibbs import gibbs_run
from .model import Model

__all__ = [
    "PredictiveSamples",
    "ScoreReport",
    "posterior_predict",
    "crps_sample",
    "scrps_sample",
    "score_report",
]


@dataclass
class PredictiveSamples:
    """Samples of the linear predictor at prediction targets."""

    eta_star: np.ndarray  # (k, m_star)
    targets: np.ndarray

    @property
    def k(self) -> int:
        return self.eta_star.shape[0]

    def mean(self) -> np.ndarray:
        return self.eta_star.mean(axis=0)

    def sd(self) -> np.ndarray:
        return self.eta_star.std(axis=0, ddof=1)

    def quantiles(self, qs) -> np.ndarray:
        return np.quantile(self.eta_star, qs, axis=0)


@dataclass
class ScoreReport:
    mae: float
    mse: float
    crps: float
    scrps: float
    scrps_undefined: bool = False


def posterior_predict(
    fit,
    model: Model,
    Y,
    A_star,
    X_star,
    k: int,
    seed: int = 0,
    burnin: int = 100,
    thin: int = 1,
    targets=None,
) -> PredictiveSamples:
    """Draw k predictive samples of eta* = A* W + X* beta.

    ``fit`` is either a FitResult (its MAP estimate is used) or a
    natural-scale parameter vector.  The Gibbs sampler targets the
    augmented posterior at those parameters.
    """
    theta = getattr(fit, "theta_map", fit)
    mdl = model.with_theta(np.asarray(theta, dtype=float))
    A_star = sparse.csr_matrix(A_star)
    X_star = np.atleast_2d(np.asarray(X_star, dtype=float))
    if X_star.size == 0:
        X_star = X_star.reshape(A_star.shape[0], 0)
    if A_star.shape[1] != mdl.n:
        raise InputError(
            f"prediction operator has {A_star.shape[1]} columns, latent dimension is {mdl.n}"
        )
    if X_star.shape[0] != A_star.shape[0]:
        raise InputError(
            f"prediction covariates have {X_star.shape[0]} rows, operator has {A_star.shape[0]}"
        )
    if k < 1:
        raise InputError("need at least one predictive sample")
    rng = np.random.default_rng(seed)
    draws = gibbs_run(rng, mdl, None, Y, iters=burnin + k * thin, burnin=burnin, thin=thin)
    offset = X_star @ mdl.beta
    eta = np.stack([A_star @ s.W + offset for s in draws.states[:k]])
    if targets is None:
        targets = np.arange(A_star.shape[0])
    return PredictiveSamples(eta_star=eta, targets=np.asarray(targets))


def _pairwise_mean_abs(x: np.ndarray) -> float:
    """Unbiased mean |X_i - X_j| over ordered pairs i != j, O(k log k).

    Uses the sorted-gap form (each gap separates (i+1)(k-1-i) pairs), so
    identical samples give exactly zero."""
    k = x.size
    xs = np.sort(x)
    gaps = np.diff(xs)
    i = np.arange(k - 1)
    total = np.sum(gaps * (i + 1) * (k - 1 - i))
    return float(2.0 * total / (k * (k - 1)))


def crps_sample(samples, y: float) -> float:
    """Sample CRPS, negatively oriented; exactly 0 for a degenerate
    forecast concentrated on the observation."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InputError("crps_sample needs at least two samples")
    return float(np.mean(np.abs(x - y)) - 0.5 * _pairwise_mean_abs(x))


def scrps_sample(samples, y: float) -> float:
    """Scaled sample CRPS, negatively oriented; undefined for degenerate
    samples (zero mean pairwise distance)."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InputError("scrps_sample needs at least two samples")
    spread = _pairwise_mean_abs(x)
    if spread <= 0.0:
        raise DegenerateSamplesError("scaled CRPS undefined for zero-spread samples")
    return float(np.mean(np.abs(x - y)) / spread + 0.5 * np.log(spread))


def score_report(pred: PredictiveSamples, y_true) -> ScoreReport:
    """Average MAE, MSE, CRPS and sCRPS over targets; the point forecast
    is the predictive mean."""
    y = np.asarray(y_true, dtype=float).ravel()
    if y.size != pred.eta_star.shape[1]:
        raise InputError(
            f"got {y.size} observations for {pred.eta_star.shape[1]} targets"
        )
    mean = pred.mean()
    mae = float(np.mean(np.abs(mean - y)))
    mse = float(np.mean((mean - y) ** 2))
    crps_vals = []
    scrps_vals = []
    undefined = False
    for j in range(y.size):
        col = pred.eta_star[:, j]
        crps_vals.append(crps_sample(col, y[j]))
        try:
            scrps_vals.append(scrps_sample(col, y[j]))
        except DegenerateSamplesError:
            undefined = True
    scrps = float(np.mean(scrps_vals)) if scrps_vals and not undefined else float("nan")
    return ScoreReport(
        mae=mae,
        mse=mse,
        crps=float(np.mean(crps_vals)),
        scrps=scrps,
        scrps_undefined=undefined,
    )
