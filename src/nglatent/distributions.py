"""Generalized inverse Gaussian mixing laws and the driving-noise families.

The mixing variable V follows a GIG(p, a, b) law with density

    f(x; p, a, b) = (a/b)^{p/2} / (2 K_p(sqrt(ab))) * x^{p-1}
                    * exp(-(a x + b/x) / 2),   x > 0,

where K_p is the modified Bessel function of the second kind.  The two
boundary cases are Gamma (b = 0, needs p > 0) and inverse-Gamma (a = 0,
needs p < 0).  Driving noise is the normal mean-variance mixture

    eps = -mu*h + mu*V + sigma*sqrt(V)*Z,    Z ~ N(0, 1),

with E[V] = h so that eps is centered; V = h recovers the Gaussian case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .errors import NumericalError, ParameterDomainError, UnsupportedFamilyError

__all__ = [
    "GigParams",
    "NoiseSpec",
    "gig_logpdf",
    "gig_sample",
    "gig_sample_many",
    "gig_moments",
    "mixing_prior",
    "gh_noise_sample",
    "noise_logpdf",
    "noise_kld",
]

GAUSSIAN = "gaussian"
NIG = "nig"
GAL = "gal"

_FAMILIES = (GAUSSIAN, NIG, GAL)


@dataclass(frozen=True)
class GigParams:
    """Parameter triple (p, a, b) of one GIG mixing variable.

    Admissible region: a > 0, b > 0 for any p; b = 0 requires p > 0
    (Gamma limit); a = 0 requires p < 0 (inverse-Gamma limit).
    """

    p: float
    a: float
    b: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.p, self.a, self.b])):
            raise ParameterDomainError(f"non-finite GIG parameters {self}")
        if self.a < 0 or self.b < 0:
            raise ParameterDomainError(f"GIG requires a, b >= 0, got {self}")
        if self.a == 0 and self.b == 0:
            raise ParameterDomainError("GIG with a = 0 and b = 0 is invalid")
        if self.b == 0 and self.p <= 0:
            raise ParameterDomainError(f"GIG with b = 0 requires p > 0, got {self}")
        if self.a == 0 and self.p >= 0:
            raise ParameterDomainError(f"GIG with a = 0 requires p < 0, got {self}")


def _log_kv(p, x):
    """log K_p(x), overflow-safe via the exponentially scaled Bessel."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(special.kve(p, x)) - x


def _gig_log_norm(p: float, a: float, b: float):
    """Log normalizing constant of the GIG density (the prefactor)."""
    if a > 0 and b > 0:
        omega = np.sqrt(a * b)
        return 0.5 * p * (np.log(a) - np.log(b)) - np.log(2.0) - _log_kv(p, omega)
    if b == 0:
        return p * np.log(a / 2.0) - special.gammaln(p)
    return -p * np.log(b / 2.0) - special.gammaln(-p)


def gig_logpdf(x, g: GigParams):
    """Log density of GIG(p, a, b) at x > 0.

    Boundary cases (a = 0 or b = 0) evaluate through the inverse-Gamma
    and Gamma limits.  Vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ParameterDomainError("gig_logpdf requires x > 0")
    out = _gig_log_norm(g.p, g.a, g.b) + (g.p - 1.0) * np.log(x)
    out = out - 0.5 * (g.a * x + np.where(g.b > 0, g.b / x, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def gig_moments(g: GigParams) -> Tuple[float, float]:
    """Return (E[V], E[1/V]) for V ~ GIG(p, a, b).

    Bessel ratios use scaled evaluations so large sqrt(ab) cannot
    overflow.  Raises when the requested moment does not exist in a
    boundary case.
    """
    p, a, b = g.p, g.a, g.b
    if a > 0 and b > 0:
        omega = np.sqrt(a * b)
        ratio = special.kve(p + 1.0, omega) / special.kve(p, omega)
        mean = np.sqrt(b / a) * ratio
        inv_mean = np.sqrt(a / b) * ratio - 2.0 * p / b
        return float(mean), float(inv_mean)
    if b == 0:
        # Gamma(shape p, rate a/2)
        if p <= 1.0:
            raise ParameterDomainError(
                f"E[1/V] does not exist for Gamma shape p = {p} <= 1"
            )
        return 2.0 * p / a, a / (2.0 * (p - 1.0))
    # a == 0: inverse-Gamma(shape -p, rate b/2)
    if -p <= 1.0:
        raise ParameterDomainError(
            f"E[V] does not exist for inverse-Gamma shape {-p} <= 1"
        )
    return b / (2.0 * (-p - 1.0)), -2.0 * p / b


# ---------------------------------------------------------------------------
# Sampling.  The general case uses Devroye's rejection scheme for the
# two-parameter form gig(lam, omega) with density ~ z^(lam-1) *
# exp(-omega (z + 1/z) / 2): the log-transformed density is concave, so a
# uniform-center / two-exponential-tail envelope has a bounded rejection
# constant over the whole admissible region.  Half-integer orders go
# through the exact inverse-Gaussian (Wald) transform and the boundary
# cases through Gamma / inverse-Gamma draws.
# ---------------------------------------------------------------------------


def _psi(x, alpha, lam):
    with np.errstate(over="ignore"):
        return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)


def _dpsi(x, alpha, lam):
    with np.errstate(over="ignore"):
        return -alpha * np.sinh(x) - lam * np.expm1(x)


def _devroye_gig2(rng, lam, omega, size):
    """Draw from gig(lam, omega), lam >= 0 elementwise, omega > 0."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), size).ravel()
    omega = np.broadcast_to(np.asarray(omega, dtype=float), size).ravel()
    n = lam.size
    # stable alpha = sqrt(omega^2 + lam^2) - lam
    hyp = np.hypot(omega, lam)
    alpha = omega**2 / (hyp + lam)

    # right tail point t with psi(t) in [-2, -0.5]
    x = -_psi(1.0, alpha, lam)
    t = np.ones(n)
    big = x > 2.0
    t[big] = np.sqrt(2.0 / (alpha + lam))[big]
    small = x < 0.5
    t[small] = np.log(4.0 / (alpha + 2.0 * lam))[small]

    # left tail point s with psi(-s) in [-2, -0.5]
    x = -_psi(-1.0, alpha, lam)
    s = np.ones(n)
    big = x > 2.0
    s[big] = np.sqrt(4.0 / (alpha * np.cosh(1.0) + lam))[big]
    small = x < 0.5
    with np.errstate(divide="ignore"):
        inv_alpha = np.where(alpha > 0, 1.0 / alpha, np.inf)
        s_log = np.log1p(inv_alpha + np.sqrt(inv_alpha**2 + 2.0 * inv_alpha))
        s_lam = np.where(lam > 0, 1.0 / lam, np.inf)
    s[small] = np.minimum(s_lam, s_log)[small]

    eta = -_psi(t, alpha, lam)
    zeta = -_dpsi(t, alpha, lam)
    theta = -_psi(-s, alpha, lam)
    xi = _dpsi(-s, alpha, lam)
    p_w = 1.0 / xi
    r_w = 1.0 / zeta
    t_sh = t - r_w * eta
    s_sh = s - p_w * theta
    q_w = t_sh + s_sh
    total = p_w + q_w + r_w

    y = np.empty(n)
    pending = np.ones(n, dtype=bool)
    for _ in range(1000):
        idx = np.flatnonzero(pending)
        m = idx.size
        if m == 0:
            break
        u = rng.random(m)
        v = rng.random(m)
        w = rng.random(m)
        cand = np.where(
            u * total[idx] < q_w[idx],
            -s_sh[idx] + q_w[idx] * v,
            np.where(
                u * total[idx] < q_w[idx] + r_w[idx],
                t_sh[idx] - r_w[idx] * np.log(v),
                -s_sh[idx] + p_w[idx] * np.log(v),
            ),
        )
        log_env = np.where(
            cand > t_sh[idx],
            -eta[idx] - zeta[idx] * (cand - t[idx]),
            np.where(cand < -s_sh[idx], -theta[idx] + xi[idx] * (cand + s[idx]), 0.0),
        )
        accept = np.log(w) + log_env <= _psi(cand, alpha[idx], lam[idx])
        y[idx[accept]] = cand[accept]
        pending[idx[accept]] = False
    else:
        raise NumericalError("GIG rejection sampler failed to accept")

    mode = (lam + hyp) / omega
    return (np.exp(y) * mode).reshape(size)


def gig_sample_many(rng, p, a, b, size=None):
    """Vectorized GIG draws with elementwise (p, a, b).

    Parameters
    ----------
    rng : numpy.random.Generator
    p, a, b : float or ndarray
        Broadcastable parameter arrays; each element must be admissible.
    size : tuple, optional
        Output shape; defaults to the broadcast shape.
    """
    p, a, b = np.broadcast_arrays(
        np.asarray(p, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    if size is None:
        size = p.shape
    p = np.broadcast_to(p, size).ravel()
    a = np.broadcast_to(a, size).ravel()
    b = np.broadcast_to(b, size).ravel()
    out = np.empty(p.size)

    gamma_m = b == 0
    if np.any(gamma_m):
        out[gamma_m] = rng.gamma(shape=p[gamma_m], scale=2.0 / a[gamma_m])
    invgamma_m = (a == 0) & ~gamma_m
    if np.any(invgamma_m):
        out[invgamma_m] = 1.0 / rng.gamma(shape=-p[invgamma_m], scale=2.0 / b[invgamma_m])
    interior = ~gamma_m & ~invgamma_m

    half_neg = interior & (p == -0.5)
    if np.any(half_neg):
        out[half_neg] = rng.wald(np.sqrt(b[half_neg] / a[half_neg]), b[half_neg])
    half_pos = interior & (p == 0.5)
    if np.any(half_pos):
        out[half_pos] = 1.0 / rng.wald(np.sqrt(a[half_pos] / b[half_pos]), a[half_pos])

    general = interior & (np.abs(p) != 0.5)
    if np.any(general):
        lam = p[general]
        omega = np.sqrt(a[general] * b[general])
        swap = lam < 0
        z = _devroye_gig2(rng, np.abs(lam), omega, (lam.size,))
        z[swap] = 1.0 / z[swap]
        out[general] = z * np.sqrt(b[general] / a[general])
    return out.reshape(size)


def gig_sample(rng, g: GigParams, size=None):
    """Draw from GIG(p, a, b); deterministic given the rng state."""
    if size is None:
        return float(gig_sample_many(rng, g.p, g.a, g.b, size=(1,))[0])
    return gig_sample_many(rng, g.p, g.a, g.b, size=size)


# ---------------------------------------------------------------------------
# Noise blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """One noise block: family plus (mu, sigma, nu) and mesh weights h.

    The Gaussian family ignores mu and nu; NIG and GAL require nu > 0.
    len(h) is the block dimension.
    """

    family: str
    sigma: float
    mu: float = 0.0
    nu: Optional[float] = None
    h: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnsupportedFamilyError(f"unknown noise family {self.family!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ParameterDomainError(f"sigma must be positive, got {self.sigma}")
        if self.family != GAUSSIAN:
            if self.nu is None or not (np.isfinite(self.nu) and self.nu > 0):
                raise ParameterDomainError(
                    f"{self.family} noise requires nu > 0, got {self.nu}"
                )
            if not np.isfinite(self.mu):
                raise ParameterDomainError(f"mu must be finite, got {self.mu}")
        if self.h is not None:
            h = np.asarray(self.h, dtype=float)
            if h.ndim != 1 or h.size == 0 or np.any(h <= 0) or not np.all(np.isfinite(h)):
                raise ParameterDomainError("mesh weights h must be a positive vector")
            object.__setattr__(self, "h", h)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def with_h(self, h) -> "NoiseSpec":
        return NoiseSpec(self.family, self.sigma, self.mu, self.nu, np.asarray(h, float))

    def with_params(self, mu=None, sigma=None, nu=None) -> "NoiseSpec":
        return NoiseSpec(
            self.family,
            self.sigma if sigma is None else sigma,
            self.mu if mu is None else mu,
            self.nu if nu is None else nu,
            self.h,
        )


def mixing_prior(spec: NoiseSpec, i: int) -> GigParams:
    """GIG prior of the i-th mixing variable (0-based index).

    NIG uses the inverse-Gaussian parameterization GIG(-1/2, nu, nu*h_i^2)
    and GAL the Gamma one GIG(h_i*nu, 2*nu, 0); both have mean h_i.
    """
    if spec.family == GAUSSIAN:
        raise UnsupportedFamilyError("Gaussian noise has no mixing variables")
    if not 0 <= i < spec.dim:
        raise ParameterDomainError(f"index {i} outside noise block of size {spec.dim}")
    h_i = float(spec.h[i])
    if spec.family == NIG:
        return GigParams(-0.5, spec.nu, spec.nu * h_i**2)
    return GigParams(h_i * spec.nu, 2.0 * spec.nu, 0.0)


def mixing_prior_arrays(spec: NoiseSpec):
    """(p, a, b) arrays of the mixing priors for the whole block."""
    if spec.family == GAUSSIAN:
        raise UnsupportedFamilyError("Gaussian noise has no mixing variables")
    h = spec.h
    if spec.family == NIG:
        return np.full_like(h, -0.5), np.full_like(h, spec.nu), spec.nu * h**2
    return h * spec.nu, np.full_like(h, 2.0 * spec.nu), np.zeros_like(h)


def gh_noise_sample(rng, spec: NoiseSpec):
    """Draw one noise vector and its mixing variables.

    Returns (eps, V) with eps_i = mu*(V_i - h_i) + sigma*sqrt(V_i)*Z_i;
    the Gaussian family returns V = h exactly.
    """
    h = spec.h
    z = rng.standard_normal(spec.dim)
    if spec.family == GAUSSIAN:
        return spec.sigma * np.sqrt(h) * z, h.copy()
    p, a, b = mixing_prior_arrays(spec)
    v = gig_sample_many(rng, p, a, b)
    eps = spec.mu * (v - h) + spec.sigma * np.sqrt(v) * z
    return eps, v


# ---------------------------------------------------------------------------
# Marginal noise densities.  Integrating the mixture over V gives a
# generalized-hyperbolic density with a Bessel-K closed form; used for
# comparing fitted against true innovation distributions.
# ---------------------------------------------------------------------------


def noise_logpdf(spec: NoiseSpec, x, h: float = 1.0):
    """Marginal log density of one noise coordinate with weight h.

    Vectorized over x.  For the mixture eps = -mu*h + mu*V + sigma*sqrt(V)*Z
    with V ~ GIG(p, a, b), the marginal is

        f(x) = N_gig / sqrt(2 pi sigma^2) * exp(mu (x + mu h) / sigma^2)
               * 2 (B/A)^(q/2) K_q(sqrt(A B)),

    with q = p - 1/2, A = a + mu^2/sigma^2, B = b + (x + mu h)^2/sigma^2.
    """
    x = np.asarray(x, dtype=float)
    sig2 = spec.sigma**2
    if spec.family == GAUSSIAN:
        out = -0.5 * np.log(2.0 * np.pi * sig2 * h) - 0.5 * x**2 / (sig2 * h)
        return float(out) if out.ndim == 0 else out
    if spec.family == NIG:
        g = GigParams(-0.5, spec.nu, spec.nu * h**2)
    else:
        g = GigParams(h * spec.nu, 2.0 * spec.nu, 0.0)
    centered = x + spec.mu * h
    q = g.p - 0.5
    big_a = g.a + spec.mu**2 / sig2
    big_b = g.b + centered**2 / sig2
    big_b = np.maximum(big_b, 1e-300)
    out = (
        _gig_log_norm(g.p, g.a, g.b)
        - 0.5 * np.log(2.0 * np.pi * sig2)
        + spec.mu * centered / sig2
        + np.log(2.0)
        + 0.5 * q * (np.log(big_b) - np.log(big_a))
        + _log_kv(q, np.sqrt(big_a * big_b))
    )
    return float(out) if out.ndim == 0 else out


def _noise_sd(spec: NoiseSpec, h: float) -> float:
    """Marginal standard deviation of one noise coordinate."""
    var = spec.sigma**2 * h
    if spec.family != GAUSSIAN:
        # Var(V) = h/nu for both mixing parameterizations
        var += spec.mu**2 * h / spec.nu
    return float(np.sqrt(var))


def noise_kld(spec_true: NoiseSpec, spec_est: NoiseSpec, h: float = 1.0) -> float:
    """KL divergence KL(true || est) between two marginal noise densities.

    Computed by adaptive quadrature of f_true * log(f_true / f_est) on a
    window wide enough to hold all of the true density's mass; both
    densities use weight h.
    """

    def integrand(x):
        lt = noise_logpdf(spec_true, x, h)
        if lt < -700.0:
            return 0.0
        le = noise_logpdf(spec_est, x, h)
        return np.exp(lt) * (lt - le)

    from scipy import integrate  # slow to load and needed only here

    scale = _noise_sd(spec_true, h)
    pts = [k * scale for k in (-5, -1, 0, 1, 5)]
    val, _ = integrate.quad(
        integrand, -80.0 * scale, 80.0 * scale, points=pts, limit=500
    )
    return float(val)
