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

Each value map also supplies, from the structure it builds, the
log-determinant with its traces, ``logdet_grad()`` = (log|det K|,
{name: tr(K^-1 dK/dtheta)}) (Magnus & Neudecker, Matrix Differential
Calculus, ch. 8), and the solve ``solve(b)`` = K^-1 b.  Neither is built
until it is called, so a parameter update factors nothing.  Triangular
operators read their diagonal and take one triangular band solve; the
pinned walk sums its differences out from the pinned node; the SPD Matern
operator takes a banded Cholesky and selected inverse (Rue & Held 2005,
section 2.4); advection-diffusion takes one banded LU of its diagonal
block and substitutes forward over the time steps; compositions use their
parts'.
The Matern operator builds the map of its pattern into band storage
(``BandMap``) once, so each call scatters K's data into the band and
factors it, with no sparse conversion.

A dK that is zero by structure on part of K's pattern records its
support, fixed at construction (``dK_support``): the stored entries
outside which it is zero at every parameter value (K_00 and the
sub-diagonal of a bidiagonal operator, the mass diagonal of the Matern
operator, the parts' supports mapped through a composition's index
maps).  A parameter with no such structure (the bivariate zeta and rho,
advection-diffusion) is not listed and may touch every entry.  The
model's structure plan reads the supports, so each Rao-Blackwellized
cross term sums only the row pairs its dK can touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Dict, Mapping, NamedTuple, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs, dtbtrs

from ._linalg import BandMap, SpdFactor, entry_rows
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
    solve: Callable[[np.ndarray], np.ndarray]  # K^-1 b, b of shape (n,) or (n, r)


@dataclass(frozen=True, eq=False)
class LatentOperator:
    """A sparse operator K with weights, parameters, and derivatives."""

    kind: str
    K: sparse.csr_matrix
    h: np.ndarray
    params: Dict[str, float]
    dK: Dict[str, sparse.csr_matrix]
    transforms: Dict[str, str]
    # per parameter whose dK is zero by structure on part of K's pattern,
    # the places in K.data outside which it is zero at every parameter
    # value; a parameter not listed may touch every stored entry
    dK_support: Dict[str, np.ndarray] = field(repr=False)
    _values: Callable[[Mapping[str, float]], _Values] = field(repr=False)
    _logdet_grad: Callable[[], Tuple[float, Dict[str, float]]] = field(repr=False)
    _solve: Callable[[np.ndarray], np.ndarray] = field(repr=False)

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
        return _operator(
            self.kind, self.K, self.h, self.transforms, self._values, merged, self.dK_support
        )

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

    def solve(self, b) -> np.ndarray:
        """K^-1 b for b of shape (n,) or (n, r), through K's own structure."""
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.K.shape[0]:
            raise InputError(f"right-hand side of shape {b.shape} for a {self.shape} operator")
        return self._solve(b)


def operator_dtheta(op: LatentOperator, name: str) -> sparse.csr_matrix:
    """dK/dtheta_i at the operator's current parameter values."""
    return op.dtheta(name)


def _operator(kind, pattern, h, transforms, values, params, support) -> LatentOperator:
    """The operator at ``params``, its K and dK on the stored pattern of
    ``pattern`` with the data the value map ``values`` gives, and the
    dK supports ``support`` in that pattern (``dK_support``)."""
    v = values(params)
    return LatentOperator(
        kind=kind,
        K=_on(pattern, v.data),
        h=h,
        params=v.params,
        dK={name: _on(pattern, d) for name, d in v.ddata.items()},
        transforms=transforms,
        dK_support=support,
        _values=values,
        _logdet_grad=v.logdet_grad,
        _solve=v.solve,
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
    duplicate entries, each matrix's data laid onto it, and the slots of
    each matrix's stored entries in it."""
    pattern, places = _layout(matrices[0].shape, *[(M, [0], [0]) for M in matrices])
    slots = [p[0] for p in places]
    return pattern, [_fill(pattern.nnz, (p, M.data)) for p, M in zip(slots, matrices)], slots


def _blockwise(solve, b, count: int) -> np.ndarray:
    """(I_count (x) M^-1) b, with ``solve`` = M^-1: the count blocks of b
    are the columns of one solve."""
    blocks = b.reshape(count, b.shape[0] // count, -1)
    m = blocks.shape[1]
    x = solve(blocks.transpose(1, 0, 2).reshape(m, -1))
    return x.reshape(m, count, -1).transpose(1, 0, 2).reshape(b.shape)


# ---------------------------------------------------------------------------
# Elementary operators
# ---------------------------------------------------------------------------


def _bidiagonal(kind, h, name, transform, value, rows) -> LatentOperator:
    """A lower-bidiagonal operator with one parameter ``name``, K_ii = 1 for
    i > 0, and ``rows(theta)`` = (K_00, sub-diagonal, dK_00, dK's
    sub-diagonal); dK's support is K_00 and the sub-diagonal.

    K is triangular and dK shares its triangle, so K^-1 is triangular with
    diagonal 1 / K_ii: log|det K| and tr(K^-1 dK) read the diagonals, and
    K^-1 b is one triangular band solve."""
    n = h.size
    eye = sparse.identity(n, format="csr")
    pattern, (diag, sub) = _layout((n, n), (eye, [0], [0]), (eye[1:, 1:], [1], [0]))

    def values(p):
        theta = float(p[name])
        k00, k_sub, d00, d_sub = rows(theta)
        k_diag, d_diag = np.ones(n), np.zeros(n)
        k_diag[0], d_diag[0] = k00, d00

        def solve(b):
            # lower band storage: K_jj in row 0, K_j+1,j in row 1
            ab = np.zeros((2, n))
            ab[0], ab[1, :-1] = k_diag, k_sub
            return dtbtrs(ab, b, uplo="L")[0]

        return _Values(
            {name: theta},
            _fill(pattern.nnz, (diag, k_diag), (sub, k_sub)),
            {name: _fill(pattern.nnz, (diag, d_diag), (sub, d_sub))},
            lambda: (float(np.sum(np.log(np.abs(k_diag)))), {name: float(np.sum(d_diag / k_diag))}),
            solve,
        )

    support = {name: np.concatenate([diag[0, :1], sub[0]])}
    return _operator(kind, pattern, h, {name: transform}, values, {name: value}, support)


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

    def rectangular(*_):
        raise InputError("a rectangular random walk is not invertible; pin it first")

    h = mesh.spacings[order - 1 :].copy()
    v = _Values({}, data, {}, rectangular, rectangular)
    return _operator(f"rw{order}", pattern, h, {}, lambda p: v, {}, {})


def pin_operator(op: LatentOperator, node: int = 0, weight: float = 1.0) -> LatentOperator:
    """Append a constraint row pinning one node of an order-1 random walk,
    squaring it so it can be fitted.

    The rows of K are x_i+1 - x_i for i < n - 1 and x_node, so K is totally
    unimodular with |det K| = 1, and K x = b sums the differences out from
    the pinned node."""
    if op.kind != "rw1":
        raise InputError(f"pin_operator pins an order-1 random walk, got a {op.kind} operator")
    rows, cols = op.shape
    if not 0 <= node < cols:
        raise InputError(f"pin node {node} outside 0..{cols - 1}")
    e = sparse.csr_matrix(([1.0], ([0], [node])), shape=(1, cols))
    pattern, (body, pin) = _layout((cols, cols), (op.K, [0], [0]), (e, [rows], [0]))

    def solve(b):
        x = np.concatenate([np.zeros_like(b[:1]), np.cumsum(b[:-1], axis=0)])
        return x - x[node] + b[-1]

    v = _Values({}, _fill(pattern.nnz, (body, op.K.data), (pin, 1.0)), {}, lambda: (0.0, {}), solve)
    h = np.concatenate([op.h, [float(weight)]])
    return _operator("pinned-rw1", pattern, h, {}, lambda p: v, {}, {})


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
    """Whittle-Matern SPDE operator K = kappa^2 C + G on a 1D mesh.

    dK = 2 kappa C has the support of the lumped mass matrix C, its
    diagonal.  K is SPD; its log-determinant, trace and solve come from a
    banded Cholesky of K, laid out through a ``BandMap`` of the stored
    pattern built here once."""
    fm = fem_matrices(mesh)
    pattern, (mass, stiff), (mass_at, _) = _union(fm.C_lumped, fm.G)
    bands = BandMap(pattern)

    def values(p):
        kappa = float(p["kappa"])
        if not kappa > 0:
            raise ParameterDomainError(f"Matern requires kappa > 0, got {kappa}")
        data = kappa**2 * mass + stiff

        factor = cache(lambda: SpdFactor(bands.band(data)))

        def logdet_grad():
            # K is SPD and dK = 2 kappa C diagonal, so the trace needs only diag(K^-1)
            trace = (2.0 * kappa * fm.C_lumped.diagonal()) @ factor().sigma_band(0).diagonal()
            return factor().logdet(), {"kappa": float(trace)}

        return _Values(
            {"kappa": kappa}, data, {"kappa": 2.0 * kappa * mass}, logdet_grad,
            lambda b: factor().solve(b),
        )

    h = mesh.weights.copy()
    support = {"kappa": mass_at}
    return _operator("matern", pattern, h, {"kappa": LOG}, values, {"kappa": kappa}, support)


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

        def solve(b):
            # (K_o (x) K_i)^-1 = (K_o^-1 (x) I)(I (x) K_i^-1)
            x = _blockwise(i.solve, b, n_o)
            return o.solve(x.reshape(n_o, -1)).reshape(b.shape)

        ddata = joint(
            {k: kron(d, i.data) for k, d in o.ddata.items()},
            {k: kron(o.data, d) for k, d in i.ddata.items()},
        )
        return _Values(joint(o.params, i.params), kron(o.data, i.data), ddata, logdet_grad, solve)

    transforms = joint(outer.transforms, inner.transforms)
    h = np.kron(outer.h, inner.h)
    # place[j, k] holds K_o.data[j] K_i.data[k]: a part's dK covers its own support
    support = joint(
        {k: place[s].ravel() for k, s in outer.dK_support.items()},
        {k: place[:, s].ravel() for k, s in inner.dK_support.items()},
    )
    params = joint(outer.params, inner.params)
    return _operator("tensor", pattern, h, transforms, values, params, support)


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

        def solve(rhs):
            # K^-1 = blockdiag(K_1^-1, K_2^-1) (D^-1 (x) I_d)
            y = np.linalg.solve(D, rhs.reshape(2, -1)).reshape((2, d) + rhs.shape[1:])
            return np.concatenate([a.solve(y[0]), b.solve(y[1])])

        ddata = joint(
            {k: mixed(D, x, None) for k, x in a.ddata.items()},
            {k: mixed(D, None, x) for k, x in b.ddata.items()},
            mixed(dD_zeta, a.data, b.data),
            mixed(dD_rho, a.data, b.data),
        )
        params = joint(a.params, b.params, zeta, rho)
        return _Values(params, mixed(D, a.data, b.data), ddata, logdet_grad, solve)

    transforms = joint(op1.transforms, op2.transforms, IDENTITY, IDENTITY)
    h = np.concatenate([op1.h, op2.h])
    params = joint(op1.params, op2.params, zeta, rho)
    # a component's dK fills both blocks of its block column; dD, which
    # fills every block, is not restricted
    support = {
        **_prefixed("k1", {k: left[:, s].ravel() for k, s in op1.dK_support.items()}),
        **_prefixed("k2", {k: right[:, s].ravel() for k, s in op2.dK_support.items()}),
    }
    return _operator("bivariate", pattern, h, transforms, values, params, support)


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

        def solve(b):
            return _blockwise(v.solve, b, R)

        ddata = {k: _fill(pattern.nnz, (place, d)) for k, d in v.ddata.items()}
        return _Values(v.params, _fill(pattern.nnz, (place, v.data)), ddata, logdet_grad, solve)

    h = np.tile(op.h, R)
    support = {k: place[:, s].ravel() for k, s in op.dK_support.items()}
    return _operator(
        "replicate", pattern, h, dict(op.transforms), values, dict(op.params), support
    )


def advdiff_operator(
    kappa: float, gamma: float, c: float, mesh: Mesh1D, T: int
) -> LatentOperator:
    """Implicit-Euler advection-diffusion operator on T time steps.

    Block-lower-bidiagonal with diagonal blocks sqrt(c) C + L / sqrt(c),
    sub-diagonal blocks -sqrt(c) C, and spatial operator
    L = kappa^2 C + G + B(gamma) (no streamline stabilization).  One
    banded LU of the mesh-sized diagonal block K_tt per parameter value
    serves the log-determinant, its traces and the solve.
    """
    T = int(T)
    if T < 2:
        raise InputError("advection-diffusion needs T >= 2 time steps")
    # C, G and B do not depend on the parameters: they are laid once onto
    # the pattern of a diagonal block; the sub-diagonal blocks keep C's
    fm = fem_matrices(mesh, advection=1.0)
    block, (mass, stiff, adv), _ = _union(fm.C_lumped, fm.G, fm.B)
    lumped, starts = fm.C_lumped.data, np.arange(T) * mesh.n
    pattern, (diag, sub) = _layout(
        (T * mesh.n, T * mesh.n), (block, starts, starts), (fm.C_lumped, starts[1:], starts[:-1])
    )
    # K_tt's slots in LAPACK's general band storage, ab[2 w + i - j, j] = K_tt[i, j],
    # whose top w rows hold the LU's fill-in (w = 1 on a 1D mesh)
    rows, cols = entry_rows(block), block.indices
    w = int(np.max(np.abs(rows - cols)))
    slots = (2 * w + rows - cols) * mesh.n + cols

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

        @cache
        def block_lu():
            ab = np.zeros((3 * w + 1, mesh.n))
            ab.flat[slots] = K_tt
            lu, piv, info = dgbtrf(ab, w, w)
            if info != 0 or not np.all(np.isfinite(lu[2 * w])):
                raise FactorizationError(f"advection-diffusion block LU failed (info {info})")
            return lu, piv

        def logdet_grad():
            # K and K^-1 are block lower triangular with diagonal blocks K_tt and
            # K_tt^-1, so the sub-diagonal blocks of dK drop out of the traces;
            # tr(K_tt^-1 dK_tt) reads K_tt^-1 on dK_tt's transposed pattern, one
            # solve against the identity for every parameter
            lu, piv = block_lu()
            inv = dgbtrs(lu, w, w, np.eye(mesh.n), piv)[0]
            ld = float(np.sum(np.log(np.abs(lu[2 * w]))))
            return T * ld, {k: T * float(inv[cols, rows] @ v) for k, v in dK_tt.items()}

        def solve(b):
            # block forward substitution: K_tt x_t = b_t + sqrt(c) C x_t-1
            lu, piv = block_lu()
            x = b.reshape(T, mesh.n, -1).copy()
            for t in range(T):
                if t:
                    x[t] += rc * lumped[:, None] * x[t - 1]
                x[t] = dgbtrs(lu, w, w, x[t], piv)[0]
            return x.reshape(b.shape)

        data = _fill(pattern.nnz, (diag, K_tt), (sub, -rc * lumped))
        return _Values({"kappa": kappa, "gamma": gamma, "c": c}, data, ddata, logdet_grad, solve)

    transforms = {"kappa": LOG, "gamma": IDENTITY, "c": LOG}
    params = {"kappa": kappa, "gamma": gamma, "c": c}
    # no structure to exploit: each dK may touch every stored entry
    h = np.tile(mesh.weights, T)
    return _operator("advdiff", pattern, h, transforms, values, params, {})
