"""Sparse latent dependence operators K(theta) and their compositions.

Each operator bundles the matrix K, its innovation weights h, named
parameter slots on the natural scale, per-parameter derivative matrices
dK/dtheta_i, and per-parameter transform tags.  Operators are immutable.

An operator fixes one stored pattern when it is built, shared by K and
every dK; an entry that a parameter value makes zero stays stored (phi =
0 in an AR(1), zeta = rho = 0 in a bivariate coupling).  Its value map
takes the parameters to the data of K and of each dK on that pattern.
Construction and ``with_params`` both call it, so a parameter update
swaps data arrays and assembles no sparse matrix (Rue & Held 2005,
section 2.4: fix the graph once, then refill the values).  Compositions
gather their parts' data through index maps built once.

Each value map also supplies ``logdet_grad()`` = (log|det K|,
{name: tr(K^-1 dK/dtheta)}) from the structure it builds (Magnus &
Neudecker, Matrix Differential Calculus, ch. 8): triangular operators read
their diagonal, the SPD Matern operator a banded Cholesky and selected
inverse (Rue & Held 2005, section 2.4), compositions their parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, NamedTuple, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ._linalg import SpdFactor, entry_rows
from .errors import FactorizationError, InputError, ParameterDomainError, ParameterLookupError
from .mesh import Mesh1D, fem_matrices
from .transforms import IDENTITY, LOG, STATIONARY_LOGIT

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


class _Values(NamedTuple):
    """An operator at one parameter point, as its value map gives it."""

    params: Dict[str, float]
    data: np.ndarray  # of K, on the stored pattern
    ddata: Dict[str, np.ndarray]  # of each dK, on the same pattern
    logdet_grad: Callable[[], Tuple[float, Dict[str, float]]]


@dataclass(frozen=True, eq=False)
class LatentOperator:
    """A sparse operator K with weights, parameters, and derivatives."""

    kind: str
    K: sparse.csr_matrix
    h: np.ndarray
    params: Dict[str, float]
    dK: Dict[str, sparse.csr_matrix]
    transforms: Dict[str, str]
    _values: Callable[[Mapping[str, float]], _Values] = field(repr=False)
    _logdet_grad: Callable[[], Tuple[float, Dict[str, float]]] = field(repr=False)

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
        """The operator, on the same stored pattern, with some parameters
        replaced."""
        unknown = set(updates) - set(self.params)
        if unknown:
            raise ParameterLookupError(
                f"unknown parameter(s) {sorted(unknown)} for {self.kind} operator"
            )
        merged = dict(self.params)
        merged.update({k: float(v) for k, v in updates.items()})
        return _operator(self.kind, self.K, self.h, self.transforms, self._values, merged)

    def dtheta(self, name: str) -> sparse.csr_matrix:
        if name not in self.dK:
            raise ParameterLookupError(
                f"{self.kind} operator has no parameter {name!r}"
            )
        return self.dK[name]

    def logdet_grad(self) -> Tuple[float, Dict[str, float]]:
        """log|det K| and, per parameter name, its derivative
        tr(K^-1 dK/dtheta_name)."""
        return self._logdet_grad()


def operator_dtheta(op: LatentOperator, name: str) -> sparse.csr_matrix:
    """dK/dtheta_i at the operator's current parameter values."""
    return op.dtheta(name)


def _operator(kind, pattern, h, transforms, values, params) -> LatentOperator:
    """The operator at ``params``, its K and dK on the stored pattern of
    ``pattern`` with the data the value map ``values`` gives."""
    v = values(params)
    return LatentOperator(
        kind=kind,
        K=_on(pattern, v.data),
        h=h,
        params=v.params,
        dK={name: _on(pattern, d) for name, d in v.ddata.items()},
        transforms=transforms,
        _values=values,
        _logdet_grad=v.logdet_grad,
    )


def _on(pattern, data) -> sparse.csr_matrix:
    """``data`` on the stored pattern of ``pattern``, sharing its index arrays."""
    return sparse.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _layout(shape, *pieces):
    """The stored pattern of a matrix laid out from copies of smaller ones.

    A piece (M, rows, cols) places a copy of M's stored pattern with its
    top-left corner at each (rows[j], cols[j]); copies may overlap.
    Returns the union pattern in canonical CSR form (sorted, no
    duplicates) and, per piece, the slots place[j, k] of M.data[k] in
    copy j, shape (len(rows), M.nnz).
    """
    keys = [
        (np.asarray(rows)[:, None] + entry_rows(M)) * shape[1]
        + (np.asarray(cols)[:, None] + M.indices)
        for M, rows, cols in pieces
    ]
    unique, slot = np.unique(np.concatenate([k.ravel() for k in keys]), return_inverse=True)
    row, col = np.divmod(unique, shape[1])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=shape[0]))])
    pattern = sparse.csr_matrix((np.ones(unique.size), col, indptr), shape=shape)
    places = np.split(slot, np.cumsum([k.size for k in keys])[:-1])
    return pattern, [p.reshape(k.shape) for p, k in zip(places, keys)]


def _fill(nnz: int, *placed) -> np.ndarray:
    """Data of ``nnz`` slots: each (place, values) pair writes values at
    place; slots that no pair names hold zero."""
    data = np.zeros(nnz)
    for place, values in placed:
        data[place] = values
    return data


def _union(*matrices):
    """The union of the stored patterns of equal-shape CSR matrices without
    duplicate entries, and each matrix's data laid onto it."""
    pattern, places = _layout(matrices[0].shape, *[(M, [0], [0]) for M in matrices])
    return pattern, [_fill(pattern.nnz, (p, M.data)) for p, M in zip(places, matrices)]


def _lu_logdet_grad(K, dK):
    """Log-determinant and traces from one sparse LU of K (L has a unit
    diagonal); each trace solves against a dense dK, so K must be small."""
    try:
        lu = splu(sparse.csc_matrix(K))
    except RuntimeError as exc:
        raise FactorizationError(f"operator factorization failed: {exc}") from exc
    return (
        float(np.sum(np.log(np.abs(lu.U.diagonal())))),
        {name: float(np.trace(lu.solve(d.toarray()))) for name, d in dK.items()},
    )


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def _bidiagonal(kind, h, name, transform, value, rows) -> LatentOperator:
    """A lower-bidiagonal operator with one parameter ``name``, K_ii = 1 for
    i > 0, and ``rows(theta)`` = (K_00, sub-diagonal, dK_00, dK's
    sub-diagonal).

    K is triangular and dK shares its triangle, so K^-1 is triangular with
    diagonal 1 / K_ii: log|det K| and tr(K^-1 dK) read the diagonals."""
    n = h.size
    eye = sparse.identity(n, format="csr")
    pattern, (diag, sub) = _layout((n, n), (eye, [0], [0]), (eye[1:, 1:], [1], [0]))

    def values(p):
        theta = float(p[name])
        k00, k_sub, d00, d_sub = rows(theta)
        k_diag, d_diag = np.ones(n), np.zeros(n)
        k_diag[0], d_diag[0] = k00, d00
        return _Values(
            {name: theta},
            _fill(pattern.nnz, (diag, k_diag), (sub, k_sub)),
            {name: _fill(pattern.nnz, (diag, d_diag), (sub, d_sub))},
            lambda: (float(np.sum(np.log(np.abs(k_diag)))), {name: float(np.sum(d_diag / k_diag))}),
        )

    return _operator(kind, pattern, h, {name: transform}, values, {name: value})


def ar1_operator(phi: float, T: int) -> LatentOperator:
    """Stationary AR(1) operator on T integer-indexed points.

    Lower-bidiagonal with sqrt(1 - phi^2) in the first row so the first
    state carries the stationary variance; h = 1.
    """
    T = int(T)
    if T < 1:
        raise InputError("AR(1) needs T >= 1")

    def rows(phi):
        if not abs(phi) < 1:
            raise ParameterDomainError(f"AR(1) requires |phi| < 1, got {phi}")
        root = np.sqrt(1.0 - phi**2)
        return root, -phi, -phi / root, -1.0

    return _bidiagonal("ar1", np.ones(T), "phi", STATIONARY_LOGIT, phi, rows)


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
    stencil = [-1.0, 1.0] if order == 1 else [1.0, -2.0, 1.0]
    eye = sparse.identity(n - order, format="csr")
    pattern, places = _layout((n - order, n), *[(eye, [0], [j]) for j in range(order + 1)])
    data = _fill(pattern.nnz, *zip(places, stencil))

    def rectangular():
        raise InputError("a rectangular random walk has no determinant; pin it first")

    h = mesh.spacings[order - 1 :].copy()
    return _operator(f"rw{order}", pattern, h, {}, lambda p: _Values({}, data, {}, rectangular), {})


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
    pattern, (body, pin) = _layout((cols, cols), (op.K, [0], [0]), (e, [rows], [0]))

    def values(p):
        v = op._values(p)
        data = _fill(pattern.nnz, (body, v.data), (pin, 1.0))
        ddata = {name: _fill(pattern.nnz, (body, d)) for name, d in v.ddata.items()}
        # factor K once per parameter point
        logdet_grad = _lu_logdet_grad(
            _on(pattern, data), {k: _on(pattern, d) for k, d in ddata.items()}
        )
        return _Values(v.params, data, ddata, lambda: logdet_grad)

    h = np.concatenate([op.h, [float(weight)]])
    return _operator(f"pinned-{op.kind}", pattern, h, dict(op.transforms), values, dict(op.params))


def ou_operator(theta: float, mesh: Mesh1D) -> LatentOperator:
    """Ornstein-Uhlenbeck operator on a (possibly irregular) 1D mesh.

    rho_i = exp(-theta * (x_{i+1} - x_i)); lower-bidiagonal with
    sqrt(1 - rho_1^2) in the first row.  h holds the step sizes, with the
    first row assigned the first step.
    """
    dx = mesh.spacings

    def rows(theta):
        if not theta > 0:
            raise ParameterDomainError(f"OU requires theta > 0, got {theta}")
        rho = np.exp(-theta * dx)
        root = np.sqrt(1.0 - rho[0] ** 2)
        return root, -rho, rho[0] ** 2 * dx[0] / root, dx * rho

    return _bidiagonal("ou", np.concatenate([[dx[0]], dx]), "theta", LOG, theta, rows)


def matern_operator(kappa: float, mesh: Mesh1D) -> LatentOperator:
    """Whittle-Matern SPDE operator K = kappa^2 C + G on a 1D mesh."""
    fm = fem_matrices(mesh)
    pattern, (mass, stiff) = _union(fm.C_lumped, fm.G)

    def values(p):
        kappa = float(p["kappa"])
        if not kappa > 0:
            raise ParameterDomainError(f"Matern requires kappa > 0, got {kappa}")
        data = kappa**2 * mass + stiff

        def logdet_grad():
            # K is SPD and dK = 2 kappa C diagonal, so the trace needs only diag(K^-1)
            factor = SpdFactor(_on(pattern, data))
            trace = (2.0 * kappa * fm.C_lumped.diagonal()) @ factor.sigma_band(0).diagonal()
            return factor.logdet(), {"kappa": float(trace)}

        return _Values({"kappa": kappa}, data, {"kappa": 2.0 * kappa * mass}, logdet_grad)

    h = mesh.weights.copy()
    return _operator("matern", pattern, h, {"kappa": LOG}, values, {"kappa": kappa})


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
    n_o, n_i = outer.dim, inner.dim
    # one copy of K_i's pattern per stored entry of K_o
    pattern, (place,) = _layout(
        (n_o * n_i, n_o * n_i), (inner.K, entry_rows(outer.K) * n_i, outer.K.indices * n_i)
    )

    def joint(of_outer, of_inner):
        return {**_prefixed("outer", of_outer), **_prefixed("inner", of_inner)}

    def kron(a, b):
        return _fill(pattern.nnz, (place, np.outer(a, b)))

    def values(p):
        o = outer._values(_strip_prefix("outer", p))
        i = inner._values(_strip_prefix("inner", p))

        def logdet_grad():
            # det(K_o (x) K_i) = det(K_o)^n_i det(K_i)^n_o, and
            # tr((K_o (x) K_i)^-1 (dK_o (x) K_i)) = n_i tr(K_o^-1 dK_o)
            ld_o, tr_o = o.logdet_grad()
            ld_i, tr_i = i.logdet_grad()
            traces = joint(
                {k: n_i * v for k, v in tr_o.items()}, {k: n_o * v for k, v in tr_i.items()}
            )
            return n_i * ld_o + n_o * ld_i, traces

        ddata = joint(
            {k: kron(d, i.data) for k, d in o.ddata.items()},
            {k: kron(o.data, d) for k, d in i.ddata.items()},
        )
        return _Values(joint(o.params, i.params), kron(o.data, i.data), ddata, logdet_grad)

    transforms = joint(outer.transforms, inner.transforms)
    h = np.kron(outer.h, inner.h)
    return _operator("tensor", pattern, h, transforms, values, joint(outer.params, inner.params))


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
    # block column j holds D[0, j] K_j above D[1, j] K_j
    pattern, (left, right) = _layout(
        (2 * d, 2 * d), (op1.K, [0, d], [0, 0]), (op2.K, [0, d], [d, d])
    )

    def joint(of1, of2, of_zeta, of_rho):
        return {**_prefixed("k1", of1), **_prefixed("k2", of2), "zeta": of_zeta, "rho": of_rho}

    def mixed(M, x1, x2):
        """The data of (M (x) I_d) blockdiag(X_1, X_2); X_j = None is zero."""
        blocks = [(left, M[:, :1], x1), (right, M[:, 1:], x2)]
        return _fill(pattern.nnz, *[(at, m * x) for at, m, x in blocks if x is not None])

    def values(p):
        # D(zeta, rho) is 2pi-periodic in zeta, so an iterate may leave [0, 2pi]
        zeta, rho = float(np.mod(p["zeta"], 2.0 * np.pi)), float(p["rho"])
        a = op1._values(_strip_prefix("k1", p))
        b = op2._values(_strip_prefix("k2", p))
        D, dD_zeta, dD_rho = _dependence_matrix(zeta, rho)

        def logdet_grad():
            # det D = sqrt(1 + rho^2) whatever zeta, and the block-diagonal part
            # gives each component its own determinant and traces
            ld1, tr1 = a.logdet_grad()
            ld2, tr2 = b.logdet_grad()
            traces = joint(tr1, tr2, 0.0, d * rho / (1.0 + rho**2))
            return d * 0.5 * np.log1p(rho**2) + ld1 + ld2, traces

        ddata = joint(
            {k: mixed(D, x, None) for k, x in a.ddata.items()},
            {k: mixed(D, None, x) for k, x in b.ddata.items()},
            mixed(dD_zeta, a.data, b.data),
            mixed(dD_rho, a.data, b.data),
        )
        params = joint(a.params, b.params, zeta, rho)
        return _Values(params, mixed(D, a.data, b.data), ddata, logdet_grad)

    transforms = joint(op1.transforms, op2.transforms, IDENTITY, IDENTITY)
    h = np.concatenate([op1.h, op2.h])
    params = joint(op1.params, op2.params, zeta, rho)
    return _operator("bivariate", pattern, h, transforms, values, params)


def replicate_operator(op: LatentOperator, R: int) -> LatentOperator:
    """R independent replicates sharing one operator: K = I_R (x) K_0,
    h = 1_R (x) h_0; parameters stay shared."""
    R = int(R)
    if R < 1:
        raise InputError("replicate count must be >= 1")
    if R == 1:
        return op
    (rows, cols), copies = op.shape, np.arange(R)
    pattern, (place,) = _layout((R * rows, R * cols), (op.K, copies * rows, copies * cols))

    def values(p):
        v = op._values(p)

        def logdet_grad():
            ld, traces = v.logdet_grad()
            return R * ld, {k: R * t for k, t in traces.items()}

        ddata = {k: _fill(pattern.nnz, (place, d)) for k, d in v.ddata.items()}
        return _Values(v.params, _fill(pattern.nnz, (place, v.data)), ddata, logdet_grad)

    h = np.tile(op.h, R)
    return _operator("replicate", pattern, h, dict(op.transforms), values, dict(op.params))


def advdiff_operator(
    kappa: float, gamma: float, c: float, mesh: Mesh1D, T: int
) -> LatentOperator:
    """Implicit-Euler advection-diffusion operator on T time steps.

    Block-lower-bidiagonal with diagonal blocks sqrt(c) C + L / sqrt(c),
    sub-diagonal blocks -sqrt(c) C, and spatial operator
    L = kappa^2 C + G + B(gamma) (no streamline stabilization).
    """
    T = int(T)
    if T < 2:
        raise InputError("advection-diffusion needs T >= 2 time steps")
    # C, G and B do not depend on the parameters: they are laid once onto
    # the pattern of a diagonal block; the sub-diagonal blocks keep C's
    fm = fem_matrices(mesh, advection=1.0)
    block, (mass, stiff, adv) = _union(fm.C_lumped, fm.G, fm.B)
    lumped, starts = fm.C_lumped.data, np.arange(T) * mesh.n
    pattern, (diag, sub) = _layout(
        (T * mesh.n, T * mesh.n), (block, starts, starts), (fm.C_lumped, starts[1:], starts[:-1])
    )

    def values(p):
        kappa, gamma, c = float(p["kappa"]), float(p["gamma"]), float(p["c"])
        if not kappa > 0:
            raise ParameterDomainError(f"advection-diffusion requires kappa > 0, got {kappa}")
        if not c > 0:
            raise ParameterDomainError(f"advection-diffusion requires c > 0, got {c}")
        rc = np.sqrt(c)
        L = kappa**2 * mass + stiff + gamma * adv
        K_tt = rc * mass + L / rc
        dK_tt = {
            "kappa": (2.0 * kappa / rc) * mass,
            "gamma": adv / rc,
            "c": mass / (2.0 * rc) - L / (2.0 * c * rc),
        }
        ddata = {k: _fill(pattern.nnz, (diag, v)) for k, v in dK_tt.items()}
        ddata["c"] = _fill(pattern.nnz, (diag, dK_tt["c"]), (sub, -lumped / (2.0 * rc)))

        def logdet_grad():
            # K and K^-1 are block lower triangular with diagonal blocks K_tt and
            # K_tt^-1, so the sub-diagonal blocks of dK drop out of the traces
            ld, traces = _lu_logdet_grad(
                _on(block, K_tt), {k: _on(block, v) for k, v in dK_tt.items()}
            )
            return T * ld, {k: T * v for k, v in traces.items()}

        data = _fill(pattern.nnz, (diag, K_tt), (sub, -rc * lumped))
        return _Values({"kappa": kappa, "gamma": gamma, "c": c}, data, ddata, logdet_grad)

    transforms = {"kappa": LOG, "gamma": IDENTITY, "c": LOG}
    params = {"kappa": kappa, "gamma": gamma, "c": c}
    return _operator("advdiff", pattern, np.tile(mesh.weights, T), transforms, values, params)
