"""Per-parameter maps between natural and unconstrained scales.

Tags: ``identity``; ``log`` for positive parameters; ``stationary-logit``
u = log((1+rho)/(1-rho)) for correlation-type parameters in (-1, 1).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ParameterDomainError

IDENTITY = "identity"
LOG = "log"
STATIONARY_LOGIT = "stationary-logit"

TAGS = (IDENTITY, LOG, STATIONARY_LOGIT)


def _check_tags(tags):
    for t in tags:
        if t not in TAGS:
            raise InputError(f"unknown transform tag {t!r}")


def to_unconstrained(theta_natural, tags):
    """Map natural-scale values to the unconstrained optimization scale."""
    _check_tags(tags)
    x = np.asarray(theta_natural, dtype=float)
    out = np.empty_like(x)
    for i, t in enumerate(tags):
        v = x[i]
        if t == IDENTITY:
            out[i] = v
        elif t == LOG:
            if not v > 0:
                raise ParameterDomainError(f"log transform needs a positive value, got {v}")
            out[i] = np.log(v)
        else:
            if not -1.0 < v < 1.0:
                raise ParameterDomainError(
                    f"stationarity transform needs a value in (-1, 1), got {v}"
                )
            out[i] = np.log((1.0 + v) / (1.0 - v))
    return out


def to_natural(theta_unconstrained, tags):
    """Inverse of :func:`to_unconstrained`.  Row i holds parameter i, so a
    (params, draws) array maps every draw at once.  A mapped value that is
    not finite (an overflowing ``exp``, say) raises ParameterDomainError."""
    _check_tags(tags)
    u = np.asarray(theta_unconstrained, dtype=float)
    out = np.empty_like(u)
    for i, t in enumerate(tags):
        v = u[i]
        if t == IDENTITY:
            out[i] = v
        elif t == LOG:
            with np.errstate(over="ignore"):
                out[i] = np.exp(v)
        else:
            out[i] = np.tanh(0.5 * v)
        if not np.all(np.isfinite(out[i])):
            raise ParameterDomainError(
                f"parameter {i} ({t} scale) maps to a non-finite natural value"
            )
    return out


def jacobian_natural(theta_natural, tags):
    """d(natural)/d(unconstrained), evaluated from natural values."""
    _check_tags(tags)
    x = np.asarray(theta_natural, dtype=float)
    out = np.empty_like(x)
    for i, t in enumerate(tags):
        if t == IDENTITY:
            out[i] = 1.0
        elif t == LOG:
            out[i] = x[i]
        else:
            out[i] = 0.5 * (1.0 - x[i] ** 2)
    return out
