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


def _pairwise_mean_abs(x: np.ndarray):
    """Unbiased mean |X_i - X_j| over ordered pairs i != j of the samples
    along axis 0, one value per column of a (k, m) ``x``; O(k log k).

    Uses the sorted-gap form (each gap separates (i+1)(k-1-i) pairs), so
    identical samples give exactly zero."""
    k = x.shape[0]
    gaps = np.diff(np.sort(x, axis=0), axis=0)
    i = np.arange(k - 1).reshape((-1,) + (1,) * (x.ndim - 1))
    gaps *= i + 1
    gaps *= k - 1 - i
    return 2.0 * np.sum(gaps, axis=0) / (k * (k - 1))


def _column_scores(x: np.ndarray, y: np.ndarray):
    """CRPS and sCRPS of each column of a (k, m) sample array against its
    observation in y, and which columns have zero spread (their sCRPS is
    undefined and left NaN).  One sort of the samples serves every column;
    the (k, m) temporaries are worked in place, one or two at a time."""
    err = x - y
    abs_err = np.mean(np.abs(err, out=err), axis=0)
    del err
    spread = _pairwise_mean_abs(x)
    degenerate = spread <= 0.0
    s = np.where(degenerate, 1.0, spread)
    scrps = np.where(degenerate, np.nan, abs_err / s + 0.5 * np.log(s))
    return abs_err - 0.5 * spread, scrps, degenerate


def _sample_column(samples, name: str) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise InputError(f"{name} needs at least two samples")
    return x[:, None]


def crps_sample(samples, y: float) -> float:
    """Sample CRPS, negatively oriented; exactly 0 for a degenerate
    forecast concentrated on the observation."""
    crps, _, _ = _column_scores(_sample_column(samples, "crps_sample"), y)
    return float(crps[0])


def scrps_sample(samples, y: float) -> float:
    """Scaled sample CRPS, negatively oriented; undefined for degenerate
    samples (zero mean pairwise distance)."""
    _, scrps, degenerate = _column_scores(_sample_column(samples, "scrps_sample"), y)
    if degenerate[0]:
        raise DegenerateSamplesError("scaled CRPS undefined for zero-spread samples")
    return float(scrps[0])


def score_report(pred: PredictiveSamples, y_true) -> ScoreReport:
    """Average MAE, MSE, CRPS and sCRPS over targets; the point forecast
    is the predictive mean."""
    y = np.asarray(y_true, dtype=float).ravel()
    if y.size != pred.eta_star.shape[1]:
        raise InputError(
            f"got {y.size} observations for {pred.eta_star.shape[1]} targets"
        )
    eta = pred.eta_star
    if eta.shape[0] < 2:
        raise InputError("score_report needs at least two samples")
    mean = pred.mean()
    mae = float(np.mean(np.abs(mean - y)))
    mse = float(np.mean((mean - y) ** 2))
    crps, scrps, degenerate = _column_scores(eta, y)
    undefined = bool(np.any(degenerate))
    return ScoreReport(
        mae=mae,
        mse=mse,
        crps=float(np.mean(crps)),
        scrps=float("nan") if undefined else float(np.mean(scrps)),
        scrps_undefined=undefined,
    )
