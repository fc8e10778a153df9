"""Reference computations made apart from the package, with numpy and
scipy alone, for the benchmark's output checks."""

from __future__ import annotations

import numpy as np
from scipy import stats


def crps_direct(samples, y) -> np.ndarray:
    """Sample CRPS per target by the O(k^2) double sum,

        mean_j |X_j - y| - sum_{j != j'} |X_j - X_j'| / (2 k (k - 1)),

    for samples of shape (k, m) and observations of shape (m,)."""
    cols = np.ascontiguousarray(np.asarray(samples, dtype=float).T)
    y = np.asarray(y, dtype=float)
    k = cols.shape[1]
    return np.array([
        np.abs(c - yj).mean() - np.abs(c[:, None] - c[None, :]).sum() / (2.0 * k * (k - 1))
        for c, yj in zip(cols, y)
    ])


def climatology_crps(observed, y) -> float:
    """Mean CRPS at y of the forecast that draws from the observed
    responses alone, the same ensemble for every target."""
    obs = np.asarray(observed, dtype=float)
    k = obs.size
    pair = np.abs(obs[:, None] - obs[None, :]).sum() / (2.0 * k * (k - 1))
    return float(np.mean([np.abs(obs - yj).mean() for yj in np.ravel(y)]) - pair)


def nig_logpdf(x, mu, sigma, nu, h=1.0):
    """Log density of eps = mu (V - h) + sigma sqrt(V) Z with V inverse
    Gaussian of mean h and shape nu h^2, through scipy's norminvgauss:
    alpha = sqrt(nu + (mu/sigma)^2), beta = mu/sigma, delta = h sqrt(nu),
    on the scale sigma and centred at -mu h."""
    beta = mu / sigma
    alpha = np.sqrt(nu + beta**2)
    delta = h * np.sqrt(nu)
    return stats.norminvgauss.logpdf(
        x, alpha * delta, beta * delta, loc=-mu * h, scale=sigma * delta
    )


def nig_kld(true, est, h=1.0) -> float:
    """KL(true || est) between two NIG noise laws given as (mu, sigma, nu),
    by the trapezoid rule on a grid that holds the true law's mass."""
    mu, sigma, nu = true
    sd = np.sqrt(sigma**2 * h + mu**2 * h / nu)
    x = np.linspace(-60.0 * sd, 60.0 * sd, 100001)
    lt = nig_logpdf(x, *true, h=h)
    le = nig_logpdf(x, *est, h=h)
    f = np.exp(lt)
    return float(np.trapezoid(np.where(f > 0, f * (lt - le), 0.0), x))


def dense_band(Q, width) -> np.ndarray:
    """S[d, i] = inv(Q)[i, i + d] for 0 <= d <= width, zero past the end."""
    sigma = np.linalg.inv(Q.toarray())
    n = sigma.shape[0]
    S = np.zeros((width + 1, n))
    for d in range(min(width, n - 1) + 1):
        S[d, : n - d] = np.diagonal(sigma, offset=d)
    return S


def dense_trace(K, dK) -> float:
    """tr(K^-1 dK) by a dense solve."""
    return float(np.trace(np.linalg.solve(K.toarray(), dK.toarray())))
