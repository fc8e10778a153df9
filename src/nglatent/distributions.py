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


# scipy's kve returns NaN from x of about 5e9 on; from here on K_p(x) e^x
# comes from its large-argument expansion (DLMF 10.40.2), whose terms fall
# like (4 p^2 / 8 x)^k and so are negligible after a few for |p| << 1e4
_KV_LARGE = 1e8
_KV_TERMS = 8


def _kve(p, x):
    """K_p(x) e^x for a scalar order p and x > 0."""
    from scipy import special  # slow to load, so imported where it is used

    x = np.asarray(x, dtype=float)
    large = x >= _KV_LARGE
    if not np.any(large):
        return special.kve(p, x)
    xl = x[large]
    term = total = np.ones_like(xl)
    for j in range(1, _KV_TERMS + 1):
        term = term * (4.0 * p * p - (2 * j - 1) ** 2) / (8.0 * j * xl)
        total = total + term
    out = np.array(special.kve(p, x))
    out[large] = np.sqrt(np.pi / (2.0 * xl)) * total
    return out


def _log_kv(p, x):
    """log K_p(x), overflow-safe via the exponentially scaled Bessel."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(_kve(p, x)) - x


def _gig_log_norm(p: float, a: float, b: float):
    """Log normalizing constant of the GIG density (the prefactor)."""
    if a > 0 and b > 0:
        omega = np.sqrt(a * b)
        return 0.5 * p * (np.log(a) - np.log(b)) - np.log(2.0) - _log_kv(p, omega)
    from scipy import special

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
        ratio = _kve(p + 1.0, omega) / _kve(p, omega)
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
#
# Order p = -1, the law of every NIG mixing variable given W and Y, has
# its own exact sampler on the scale-free form gig(-1, omega), omega =
# sqrt(ab), scaled by sqrt(b/a) at the end.  It proposes the
# inverse-Gaussian gig(-1/2, omega, c omega), one numpy Wald draw
# (Michael, Schucany & Haas 1976) per try.  The ratio of target to
# proposal is ~ x^(-1/2) exp(-(1 - c) omega / 2x), at most
# ((1 - c) omega e)^(-1/2), so a try is accepted when
# log u <= (1 + log t - t) / 2, with t = (1 - c) omega / x.  The choice
# c = (1 - d)^2, d = 1 / (2 omega + 4), is one Newton step from s = 1
# towards the root of omega s^3 + 2 s^2 - omega s - 1, where the
# acceptance is largest (it is 0.65 as omega -> 0, 0.84 at omega = 1 and
# 0.98 at omega = 10); 1 - c is formed as d (2 - d), since 1 - s^2 rounds
# to 0 at large omega and nothing would be accepted.  Below
# _WALD_MIN_OMEGA numpy's Wald draw loses its accuracy to cancellation
# (its draws fail a KS test against Devroye's at omega = 1e-14), so those
# elements, which arise where b sits at its floor, stay on the Devroye
# path.
#
# Each rejection round costs a fixed dozen numpy calls, tens of
# microseconds, whatever the number of pending elements; at omega = 0.25
# a call over 600 elements took 5.8 rounds on average, with about 600,
# 161, 43, 12, 3 and 1 elements pending.  So the first round makes one
# try per element and each later round _TAIL_TRIES tries per pending
# element, keeping its first accepted try; the same call then takes two
# or three rounds.  The tries of an element are independent draws from the
# proposal, each with its own acceptance test, so the first accepted one
# has the target law: the sampler stays exact.  Of 2, 4 and 8 tries, 4
# was the fastest overall: 2 was slower on the NIG conditionals of every
# benchmark workload, and 8 at 2000 and 20 000 elements.
# ---------------------------------------------------------------------------

_WALD_MIN_OMEGA = 1e-10
_TAIL_TRIES = 4


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


def _gig_minus_one(rng, omega):
    """Draw from gig(-1, omega), omega >= _WALD_MIN_OMEGA elementwise, by
    rejection from the inverse-Gaussian gig(-1/2, omega, c omega); the
    exponential E = -log u decides acceptance.  The first round makes one
    try per element, each later round _TAIL_TRIES per pending element."""
    d = 1.0 / (2.0 * omega + 4.0)
    mean = 1.0 - d
    shape = mean * mean * omega
    k = d * (2.0 - d) * omega  # (1 - c) omega
    out = rng.wald(mean, shape)
    t = k / out
    ok = rng.exponential(2.0, out.size) >= t - 1.0 - np.log(t)
    if ok.all():
        return out
    idx = np.flatnonzero(~ok)
    mean, shape, k = (x[idx, None] for x in (mean, shape, k))
    for _ in range(1000):
        x = rng.wald(mean, shape, size=(idx.size, _TAIL_TRIES))
        t = k / x
        ok = rng.exponential(2.0, x.shape) >= t - 1.0 - np.log(t)
        hit = ok.any(axis=1)
        out[idx[hit]] = x[hit, ok[hit].argmax(axis=1)]
        if hit.all():
            return out
        keep = ~hit
        idx, mean, shape, k = idx[keep], mean[keep], shape[keep], k[keep]
    raise NumericalError("GIG rejection sampler failed to accept")


def _minus_one_draw(rng, p, a, b, omega):
    return _gig_minus_one(rng, omega) * np.sqrt(b / a)


def _gamma_draw(rng, p, a, b, omega):
    return rng.gamma(shape=p, scale=2.0 / a)


def _inv_gamma_draw(rng, p, a, b, omega):
    return 1.0 / rng.gamma(shape=-p, scale=2.0 / b)


def _wald_draw(rng, p, a, b, omega):
    return rng.wald(np.sqrt(b / a), b)


def _inv_wald_draw(rng, p, a, b, omega):
    return 1.0 / rng.wald(np.sqrt(a / b), a)


def _devroye_draw(rng, p, a, b, omega):
    z = _devroye_gig2(rng, np.abs(p), omega, (p.size,))
    swap = p < 0
    z[swap] = 1.0 / z[swap]
    return z * np.sqrt(b / a)


# The first test an element passes picks its draw; Devroye's takes the
# rest.  No element passes two tests.  Order p = -1 is tested first, so
# that an NIG conditional, whose elements all take that draw, runs one
# test; the others keep their order, and with it their random streams.
_BRANCHES = (
    (lambda p, a, b, omega: (p == -1.0) & (omega >= _WALD_MIN_OMEGA), _minus_one_draw),
    (lambda p, a, b, omega: b == 0, _gamma_draw),
    (lambda p, a, b, omega: a == 0, _inv_gamma_draw),
    (lambda p, a, b, omega: p == -0.5, _wald_draw),
    (lambda p, a, b, omega: p == 0.5, _inv_wald_draw),
)


def gig_sample_many(rng, p, a, b, size=None):
    """Vectorized GIG draws with elementwise (p, a, b).

    Order -1 with sqrt(ab) >= _WALD_MIN_OMEGA, orders -1/2 and 1/2 and the
    Gamma and inverse-Gamma limits have exact samplers of their own; the
    other elements take Devroye's envelope.

    Parameters
    ----------
    rng : numpy.random.Generator
    p, a, b : float or ndarray
        Broadcastable parameter arrays; each element must be admissible.
    size : tuple, optional
        Output shape; defaults to the broadcast shape.
    """
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    if size is None:
        size = p.shape if p.shape == a.shape == b.shape else np.broadcast_shapes(
            p.shape, a.shape, b.shape
        )
    p, a, b = (x.ravel() if x.shape == size else np.broadcast_to(x, size).ravel()
               for x in (p, a, b))
    args = (p, a, b, np.sqrt(a * b))
    idx = None  # output positions of the rows of args; None while args are whole
    for test, draw in _BRANCHES:
        hit = test(*args)
        if not hit.any():
            continue
        if hit.all():
            break
        if idx is None:
            out, idx = np.empty(p.size), np.arange(p.size)
        out[idx[hit]] = draw(rng, *(x[hit] for x in args))
        miss = ~hit
        idx, args = idx[miss], tuple(x[miss] for x in args)
    else:
        draw = _devroye_draw
    drawn = draw(rng, *args)
    if idx is None:
        return drawn.reshape(size)
    out[idx] = drawn
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

    mu must be finite; the Gaussian family, whose V is h, ignores it and
    nu.  NIG and GAL require nu > 0.  len(h) is the block dimension.
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
        if not np.isfinite(self.mu):
            raise ParameterDomainError(f"mu must be finite, got {self.mu}")
        if self.family != GAUSSIAN:
            if self.nu is None or not (np.isfinite(self.nu) and self.nu > 0):
                raise ParameterDomainError(f"{self.family} noise requires nu > 0, got {self.nu}")
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

    @property
    def param_names(self) -> Tuple[str, ...]:
        """The block's parameters in the order of the model's theta:
        Gaussian noise has sigma only, NIG and GAL (mu, sigma, nu)."""
        return ("sigma",) if self.family == GAUSSIAN else ("mu", "sigma", "nu")

    def with_params(self, mu=None, sigma=None, nu=None) -> "NoiseSpec":
        return NoiseSpec(
            self.family,
            self.sigma if sigma is None else sigma,
            self.mu if mu is None else mu,
            self.nu if nu is None else nu,
            self.h,
        )


def _prior_law(spec: NoiseSpec, h):
    """(p, a, b) of the GIG prior of mixing variables with weights h, a
    float or an array: NIG takes the inverse-Gaussian GIG(-1/2, nu, nu h^2)
    and GAL the Gamma GIG(h nu, 2 nu, 0); both have mean h."""
    if spec.family == GAUSSIAN:
        raise UnsupportedFamilyError("Gaussian noise has no mixing variables")
    if spec.family == NIG:
        return -0.5, spec.nu, spec.nu * h**2
    return h * spec.nu, 2.0 * spec.nu, 0.0


def mixing_prior_arrays(spec: NoiseSpec):
    """(p, a, b) arrays of the mixing priors for the whole block."""
    return tuple(np.full_like(spec.h, x) for x in _prior_law(spec, spec.h))


def mixing_prior(spec: NoiseSpec, i: int) -> GigParams:
    """GIG prior of the i-th mixing variable (0-based index)."""
    law = mixing_prior_arrays(spec)
    if not 0 <= i < spec.dim:
        raise ParameterDomainError(f"index {i} outside noise block of size {spec.dim}")
    return GigParams(*(float(x[i]) for x in law))


def _log_prior_v(spec: NoiseSpec, v) -> float:
    """log pi(V) of a block's mixing variables v; 0 for Gaussian noise,
    whose V is fixed at h."""
    h, nu = spec.h, spec.nu
    if spec.family == GAUSSIAN:
        return 0.0
    if spec.family == NIG:
        terms = 0.5 * np.log(nu * h**2 / (2.0 * np.pi * v**3)) - 0.5 * nu * (v**2 + h**2) / v
        terms = terms + nu * h
    else:
        from scipy import special

        terms = -v * nu + h * nu * np.log(v * nu) - np.log(v) - special.gammaln(h * nu)
    return float(np.sum(terms))


def _nu_grad(spec: NoiseSpec, v, nu=None):
    """d/dnu of log pi(V): a float, or one value per row of a stacked
    ``v`` (rows along its last axis).  ``nu``, when given, stands for
    ``spec.nu``: one value per chain, shaped to broadcast against v."""
    h = spec.h
    nu = spec.nu if nu is None else nu
    if spec.family == NIG:
        # -(h^2)/(2v) - v/2 + 1/(2 nu) + h, in place over one temporary
        terms = 2.0 * v
        np.divide(-(h**2), terms, out=terms)
        terms -= 0.5 * v
        terms += 0.5 / nu
        terms += h
    else:
        from scipy import special

        terms = h - v + h * np.log(v) + h * np.log(nu) - h * special.psi(h * nu)
    return np.sum(terms, axis=-1)


def gh_noise_sample(rng, spec: NoiseSpec):
    """Draw one noise vector and its mixing variables.

    Returns (eps, V) with eps_i = mu*(V_i - h_i) + sigma*sqrt(V_i)*Z_i;
    the Gaussian family returns V = h exactly.
    """
    h = spec.h
    z = rng.standard_normal(spec.dim)
    v = h.copy() if spec.family == GAUSSIAN else gig_sample_many(rng, *mixing_prior_arrays(spec))
    return spec.mu * (v - h) + spec.sigma * np.sqrt(v) * z, v


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
    g = GigParams(*_prior_law(spec, h))
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
