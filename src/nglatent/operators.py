"""Sparse latent dependence operators K(theta) and their compositions.

Each operator bundles the matrix K, its innovation weights h, named
parameter slots on the natural scale, per-parameter derivative matrices
dK/dtheta_i, and per-parameter transform tags.  Operators are immutable;
``with_params`` rebuilds a new value at updated parameters.  Kronecker
compositions are materialized as sparse matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping

import numpy as np
from scipy import sparse

from .errors import InputError, ParameterDomainError, ParameterLookupError
from .mesh import Mesh1D, fem_matrices

__all__ = [
    "LatentOperator",
    "ar1_operator",
    "rw_operator",
    "ou_operator",
    "matern_operator",
    "tensor_operator",
    "bivariate_operator",
    "replicate_operator",
    "advdiff_operator",
    "pin_operator",
    "operator_dtheta",
]

IDENTITY = "identity"
LOG = "log"
STATIONARY_LOGIT = "stationary-logit"


@dataclass(frozen=True, eq=False)
class LatentOperator:
    """A sparse operator K with weights, parameters, and derivatives."""

    kind: str
    K: sparse.csr_matrix
    h: np.ndarray
    params: Dict[str, float]
    dK: Dict[str, sparse.csr_matrix]
    transforms: Dict[str, str]
    _rebuild: Callable[[Mapping[str, float]], "LatentOperator"] = field(repr=False)

    @property
    def shape(self):
        return self.K.shape

    @property
    def dim(self) -> int:
        return self.K.shape[1]

    @property
    def is_square(self) -> bool:
        return self.K.shape[0] == self.K.shape[1]

    def with_params(self, updates: Mapping[str, float]) -> "LatentOperator":
        """Rebuild the operator with some parameters replaced."""
        unknown = set(updates) - set(self.params)
        if unknown:
            raise ParameterLookupError(
                f"unknown parameter(s) {sorted(unknown)} for {self.kind} operator"
            )
        merged = dict(self.params)
        merged.update({k: float(v) for k, v in updates.items()})
        return self._rebuild(merged)

    def dtheta(self, name: str) -> sparse.csr_matrix:
        if name not in self.dK:
            raise ParameterLookupError(
                f"{self.kind} operator has no parameter {name!r}"
            )
        return self.dK[name]


def operator_dtheta(op: LatentOperator, name: str) -> sparse.csr_matrix:
    """dK/dtheta_i at the operator's current parameter values."""
    return op.dtheta(name)


def _as_csr(m) -> sparse.csr_matrix:
    return sparse.csr_matrix(m)


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def ar1_operator(phi: float, T: int) -> LatentOperator:
    """Stationary AR(1) operator on T integer-indexed points.

    Lower-bidiagonal with sqrt(1 - phi^2) in the first row so the first
    state carries the stationary variance; h = 1.
    """
    phi = float(phi)
    if not abs(phi) < 1:
        raise ParameterDomainError(f"AR(1) requires |phi| < 1, got {phi}")
    T = int(T)
    if T < 1:
        raise InputError("AR(1) needs T >= 1")
    root = np.sqrt(1.0 - phi**2)
    diag = np.ones(T)
    diag[0] = root
    K = sparse.diags([np.full(T - 1, -phi), diag], offsets=[-1, 0], format="csr")
    d_diag = np.zeros(T)
    d_diag[0] = -phi / root
    dK = sparse.diags([np.full(T - 1, -1.0), d_diag], offsets=[-1, 0], format="csr")

    def build(params):
        return ar1_operator(params["phi"], T)

    return LatentOperator(
        kind="ar1",
        K=_as_csr(K),
        h=np.ones(T),
        params={"phi": phi},
        dK={"phi": _as_csr(dK)},
        transforms={"phi": STATIONARY_LOGIT},
        _rebuild=build,
    )


def rw_operator(order: int, mesh: Mesh1D) -> LatentOperator:
    """Intrinsic random-walk difference operator of order 1 or 2.

    Rectangular (n - order) x n; each innovation row carries the spacing
    ending at its node as weight.  Pin a node with :func:`pin_operator`
    before using it in a model to be fitted.
    """
    if order not in (1, 2):
        raise InputError(f"random walk order must be 1 or 2, got {order}")
    n = mesh.n
    if n < order + 1:
        raise InputError(f"order-{order} random walk needs at least {order + 1} nodes")
    if order == 1:
        ones = np.ones(n - 1)
        K = sparse.diags([-ones, ones], offsets=[0, 1], shape=(n - 1, n), format="csr")
        h = mesh.spacings.copy()
    else:
        ones = np.ones(n - 2)
        K = sparse.diags(
            [ones, -2.0 * ones, ones], offsets=[0, 1, 2], shape=(n - 2, n), format="csr"
        )
        h = mesh.spacings[1:].copy()

    def build(params):
        return rw_operator(order, mesh)

    return LatentOperator(
        kind=f"rw{order}",
        K=_as_csr(K),
        h=h,
        params={},
        dK={},
        transforms={},
        _rebuild=build,
    )


def pin_operator(op: LatentOperator, node: int = 0, weight: float = 1.0) -> LatentOperator:
    """Append a constraint row pinning one latent node, squaring an
    intrinsic (rectangular) operator so it can be fitted."""
    rows, cols = op.shape
    if rows >= cols:
        raise InputError("pin_operator applies to rectangular (intrinsic) operators")
    if rows + 1 != cols:
        raise InputError("pin_operator supports a single missing constraint")
    if not 0 <= node < cols:
        raise InputError(f"pin node {node} outside 0..{cols - 1}")
    e = sparse.csr_matrix(([1.0], ([0], [node])), shape=(1, cols))
    K = sparse.vstack([op.K, e], format="csr")
    h = np.concatenate([op.h, [float(weight)]])
    dK = {k: sparse.vstack([d, sparse.csr_matrix((1, cols))], format="csr") for k, d in op.dK.items()}

    def build(params):
        return pin_operator(op.with_params(params), node, weight)

    return LatentOperator(
        kind=f"pinned-{op.kind}",
        K=K,
        h=h,
        params=dict(op.params),
        dK=dK,
        transforms=dict(op.transforms),
        _rebuild=build,
    )


def ou_operator(theta: float, mesh: Mesh1D) -> LatentOperator:
    """Ornstein-Uhlenbeck operator on a (possibly irregular) 1D mesh.

    rho_i = exp(-theta * (x_{i+1} - x_i)); lower-bidiagonal with
    sqrt(1 - rho_1^2) in the first row.  h holds the step sizes, with the
    first row assigned the first step.
    """
    theta = float(theta)
    if not theta > 0:
        raise ParameterDomainError(f"OU requires theta > 0, got {theta}")
    n = mesh.n
    dx = mesh.spacings
    rho = np.exp(-theta * dx)
    diag = np.ones(n)
    diag[0] = np.sqrt(1.0 - rho[0] ** 2)
    K = sparse.diags([-rho, diag], offsets=[-1, 0], format="csr")
    d_diag = np.zeros(n)
    d_diag[0] = rho[0] ** 2 * dx[0] / np.sqrt(1.0 - rho[0] ** 2)
    dK = sparse.diags([dx * rho, d_diag], offsets=[-1, 0], format="csr")
    h = np.concatenate([[dx[0]], dx])

    def build(params):
        return ou_operator(params["theta"], mesh)

    return LatentOperator(
        kind="ou",
        K=_as_csr(K),
        h=h,
        params={"theta": theta},
        dK={"theta": _as_csr(dK)},
        transforms={"theta": LOG},
        _rebuild=build,
    )


def matern_operator(kappa: float, mesh: Mesh1D) -> LatentOperator:
    """Whittle-Matern SPDE operator K = kappa^2 C + G on a 1D mesh."""
    kappa = float(kappa)
    if not kappa > 0:
        raise ParameterDomainError(f"Matern requires kappa > 0, got {kappa}")
    fm = fem_matrices(mesh)
    K = (kappa**2) * fm.C_lumped + fm.G
    dK = 2.0 * kappa * fm.C_lumped

    def build(params):
        return matern_operator(params["kappa"], mesh)

    return LatentOperator(
        kind="matern",
        K=_as_csr(K),
        h=mesh.weights.copy(),
        params={"kappa": kappa},
        dK={"kappa": _as_csr(dK)},
        transforms={"kappa": LOG},
        _rebuild=build,
    )


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------


def _prefixed(prefix: str, d: Dict) -> Dict:
    return {f"{prefix}.{k}": v for k, v in d.items()}


def _strip_prefix(prefix: str, params: Mapping[str, float]) -> Dict[str, float]:
    tag = prefix + "."
    return {k[len(tag):]: v for k, v in params.items() if k.startswith(tag)}


def tensor_operator(outer: LatentOperator, inner: LatentOperator) -> LatentOperator:
    """Kronecker composition K = K_outer (x) K_inner with h = h_o (x) h_i.

    Derivatives lift through the product rule, e.g.
    d(K_o (x) K_i)/dtheta_o = dK_o/dtheta_o (x) K_i.
    """
    if not (outer.is_square and inner.is_square):
        raise InputError("tensor composition requires square operators")
    K = sparse.kron(outer.K, inner.K, format="csr")
    h = np.kron(outer.h, inner.h)
    params = {**_prefixed("outer", outer.params), **_prefixed("inner", inner.params)}
    transforms = {
        **_prefixed("outer", outer.transforms),
        **_prefixed("inner", inner.transforms),
    }
    dK = {}
    for name, d in outer.dK.items():
        dK[f"outer.{name}"] = sparse.kron(d, inner.K, format="csr")
    for name, d in inner.dK.items():
        dK[f"inner.{name}"] = sparse.kron(outer.K, d, format="csr")

    def build(p):
        return tensor_operator(
            outer.with_params(_strip_prefix("outer", p)),
            inner.with_params(_strip_prefix("inner", p)),
        )

    return LatentOperator(
        kind="tensor",
        K=K,
        h=h,
        params=params,
        dK=dK,
        transforms=transforms,
        _rebuild=build,
    )


def _dependence_matrix(zeta: float, rho: float):
    """2x2 coupling matrix from a rotation and a 'correlation' parameter."""
    c, s = np.cos(zeta), np.sin(zeta)
    r = np.sqrt(1.0 + rho**2)
    D = np.array([[c + rho * s, -s * r], [s - rho * c, c * r]])
    dD_zeta = np.array([[-s + rho * c, -c * r], [c + rho * s, -s * r]])
    dr = rho / r
    dD_rho = np.array([[s, -s * dr], [-c, c * dr]])
    return D, dD_zeta, dD_rho


def bivariate_operator(
    op1: LatentOperator, op2: LatentOperator, zeta: float, rho: float
) -> LatentOperator:
    """Couple two equal-size operators through a 2x2 dependence matrix:
    K = (D(zeta, rho) (x) I_d) blockdiag(K_1, K_2)."""
    if not (op1.is_square and op2.is_square):
        raise InputError("bivariate composition requires square operators")
    if op1.dim != op2.dim:
        raise InputError(
            f"bivariate components must match: {op1.dim} vs {op2.dim}"
        )
    zeta, rho = float(zeta), float(rho)
    if not 0.0 <= zeta <= 2.0 * np.pi:
        raise ParameterDomainError(f"zeta must lie in [0, 2pi], got {zeta}")
    d = op1.dim
    eye = sparse.identity(d, format="csr")
    D, dD_zeta, dD_rho = _dependence_matrix(zeta, rho)
    block = sparse.block_diag([op1.K, op2.K], format="csr")
    mix = sparse.kron(sparse.csr_matrix(D), eye, format="csr")
    K = (mix @ block).tocsr()
    h = np.concatenate([op1.h, op2.h])
    params = {
        **_prefixed("k1", op1.params),
        **_prefixed("k2", op2.params),
        "zeta": zeta,
        "rho": rho,
    }
    transforms = {
        **_prefixed("k1", op1.transforms),
        **_prefixed("k2", op2.transforms),
        "zeta": IDENTITY,
        "rho": IDENTITY,
    }
    zero1 = sparse.csr_matrix(op1.shape)
    zero2 = sparse.csr_matrix(op2.shape)
    dK = {}
    for name, dmat in op1.dK.items():
        dK[f"k1.{name}"] = (mix @ sparse.block_diag([dmat, zero2], format="csr")).tocsr()
    for name, dmat in op2.dK.items():
        dK[f"k2.{name}"] = (mix @ sparse.block_diag([zero1, dmat], format="csr")).tocsr()
    dK["zeta"] = (sparse.kron(sparse.csr_matrix(dD_zeta), eye) @ block).tocsr()
    dK["rho"] = (sparse.kron(sparse.csr_matrix(dD_rho), eye) @ block).tocsr()

    def build(p):
        # D(zeta, rho) is 2pi-periodic in zeta, so an iterate may leave [0, 2pi]
        return bivariate_operator(
            op1.with_params(_strip_prefix("k1", p)),
            op2.with_params(_strip_prefix("k2", p)),
            np.mod(p["zeta"], 2.0 * np.pi),
            p["rho"],
        )

    return LatentOperator(
        kind="bivariate",
        K=K,
        h=h,
        params=params,
        dK=dK,
        transforms=transforms,
        _rebuild=build,
    )


def replicate_operator(op: LatentOperator, R: int) -> LatentOperator:
    """R independent replicates sharing one operator: K = I_R (x) K_0,
    h = 1_R (x) h_0; parameters stay shared."""
    R = int(R)
    if R < 1:
        raise InputError("replicate count must be >= 1")
    if R == 1:
        return op
    eye = sparse.identity(R, format="csr")
    K = sparse.kron(eye, op.K, format="csr")
    h = np.tile(op.h, R)
    dK = {name: sparse.kron(eye, d, format="csr") for name, d in op.dK.items()}

    def build(p):
        return replicate_operator(op.with_params(p), R)

    return LatentOperator(
        kind="replicate",
        K=K,
        h=h,
        params=dict(op.params),
        dK=dK,
        transforms=dict(op.transforms),
        _rebuild=build,
    )


def advdiff_operator(
    kappa: float, gamma: float, c: float, mesh: Mesh1D, T: int
) -> LatentOperator:
    """Implicit-Euler advection-diffusion operator on T time steps.

    Block-lower-bidiagonal with diagonal blocks sqrt(c) C + L / sqrt(c),
    sub-diagonal blocks -sqrt(c) C, and spatial operator
    L = kappa^2 C + G + B(gamma) (no streamline stabilization).
    """
    kappa, gamma, c = float(kappa), float(gamma), float(c)
    if not kappa > 0:
        raise ParameterDomainError(f"advection-diffusion requires kappa > 0, got {kappa}")
    if not c > 0:
        raise ParameterDomainError(f"advection-diffusion requires c > 0, got {c}")
    T = int(T)
    if T < 2:
        raise InputError("advection-diffusion needs T >= 2 time steps")
    fm = fem_matrices(mesh, advection=1.0)
    C, G, B_unit = fm.C_lumped, fm.G, fm.B
    rc = np.sqrt(c)
    L = (kappa**2) * C + G + gamma * B_unit
    K_tt = rc * C + L / rc
    K_sub = -rc * C
    eye = sparse.identity(T, format="csr")
    sub = sparse.diags([np.ones(T - 1)], offsets=[-1], format="csr")
    K = sparse.kron(eye, K_tt, format="csr") + sparse.kron(sub, K_sub, format="csr")
    h = np.tile(mesh.weights, T)
    dK = {
        "kappa": sparse.kron(eye, (2.0 * kappa / rc) * C, format="csr"),
        "gamma": sparse.kron(eye, B_unit / rc, format="csr"),
        "c": (
            sparse.kron(eye, C / (2.0 * rc) - L / (2.0 * c * rc), format="csr")
            + sparse.kron(sub, -C / (2.0 * rc), format="csr")
        ),
    }

    def build(p):
        return advdiff_operator(p["kappa"], p["gamma"], p["c"], mesh, T)

    return LatentOperator(
        kind="advdiff",
        K=K.tocsr(),
        h=h,
        params={"kappa": kappa, "gamma": gamma, "c": c},
        dK={k: _as_csr(v) for k, v in dK.items()},
        transforms={"kappa": LOG, "gamma": IDENTITY, "c": LOG},
        _rebuild=build,
    )
