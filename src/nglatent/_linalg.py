"""Sparse SPD factorization and partial-inverse machinery.

The latent conditional precision Q = K' D_w^-1 K + A' D_y^-1 A is banded
for the 1D operators with local observation maps, so the default path is
a banded Cholesky Q = U'U.  The covariance band comes from a selected
inverse (Takahashi, Fagan & Chin 1973; Rue & Held 2005, section 2.4) run
backwards over blocks of b >= bandwidth rows: U is then block upper
bidiagonal, the requested band of Sigma = Q^-1 lies inside its block
tridiagonal part, and each block costs a few dense b x b LAPACK/BLAS
calls, O(n b^2) in all.  The fallback for general sparsity is a sparse
LU for solves plus a dense inverse for the covariance entries, exact in
both cases.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solve_banded
from scipy.linalg.lapack import dtrtri
from scipy.sparse.linalg import splu

from .errors import FactorizationError

BAND_LIMIT = 64
DENSE_LIMIT = 4000
# fewest rows per block of the selected inverse: smaller blocks spend
# their time in per-block Python overhead, larger ones in dense O(b^3) work
MIN_BLOCK = 32


def bandwidth_of(M) -> int:
    coo = M.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.max(np.abs(coo.row - coo.col)))


def _to_upper_banded(Q, w: int) -> np.ndarray:
    """Upper 'ab' storage: ab[w + i - j, j] = Q[i, j] for j-w <= i <= j."""
    n = Q.shape[0]
    ab = np.zeros((w + 1, n))
    coo = sparse.triu(Q).tocoo()
    ab[w + coo.row - coo.col, coo.col] = coo.data
    return ab


def _diagonals(M: np.ndarray, k: int) -> np.ndarray:
    """Writable view V of a C-contiguous m x (m + k) array with
    V[d, r] = M[r, r + d] for 0 <= d <= k."""
    m, ncol = M.shape
    step = M.itemsize
    return np.ndarray((k + 1, m), M.dtype, M, 0, (step, step * (ncol + 1)))


class SpdFactor:
    """Factorization of a sparse symmetric positive definite matrix."""

    def __init__(self, Q, force_dense: bool = False):
        Q = sparse.csr_matrix(Q)
        self.n = Q.shape[0]
        self.Q = Q
        self._sigma_dense = None
        w = bandwidth_of(Q)
        self.bandwidth = w
        self.is_banded = (not force_dense) and w <= BAND_LIMIT and w < self.n
        if self.is_banded:
            try:
                self._cb = cholesky_banded(_to_upper_banded(Q, w), lower=False)
            except LinAlgError as exc:
                raise FactorizationError(
                    f"banded Cholesky failed: precision not positive definite ({exc})"
                ) from exc
            self._lu = None
        else:
            try:
                self._lu = splu(Q.tocsc())
            except RuntimeError as exc:
                raise FactorizationError(
                    f"sparse LU failed: singular or ill-conditioned precision ({exc})"
                ) from exc

    def solve(self, b):
        """Q^-1 b for a vector or a dense matrix of right-hand sides."""
        if self.is_banded:
            return cho_solve_banded((self._cb, False), b)
        return self._lu.solve(np.asarray(b))

    def whiten(self, z):
        """x with Cov(x) = Q^-1 from standard normal z, via backward
        substitution on the Cholesky factor.  None when no triangular
        factor is available (caller falls back to a noise-built RHS)."""
        if not self.is_banded:
            return None
        return solve_banded((0, self.bandwidth), self._cb, z)

    def logdet(self) -> float:
        if self.is_banded:
            return 2.0 * float(np.sum(np.log(self._cb[-1])))
        return float(
            np.sum(np.log(np.abs(self._lu.U.diagonal())))
            + np.sum(np.log(np.abs(self._lu.L.diagonal())))
        )

    # -- covariance access ------------------------------------------------

    def sigma_dense(self) -> np.ndarray:
        if self._sigma_dense is None:
            if self.n > DENSE_LIMIT:
                raise FactorizationError(
                    f"dense covariance fallback capped at n = {DENSE_LIMIT}, got {self.n}"
                )
            self._sigma_dense = self.solve(np.eye(self.n))
        return self._sigma_dense

    def sigma_band(self, width: int):
        """Entries Sigma[i, i+d] of Q^-1 for 0 <= d <= width.

        Banded factors run the selected inverse backwards over blocks of
        b = max(width, bandwidth, MIN_BLOCK) rows, so that the factor U
        (Q = U'U) is block upper bidiagonal and the band of each block
        row lies in its own and the next block.  With U_II and
        U_I,I+1 the diagonal and coupling blocks of the Cholesky factor
        and Uinv = U_II^-1, each block takes, from Sigma_I+1,I+1,

            X            = U_I,I+1' Uinv'
            Sigma_I+1,I  = -Sigma_I+1,I+1 X
            Sigma_II     = Uinv Uinv' - X' Sigma_I+1,I

        which is exact: no entry of the band is approximated.  Only the
        first bandwidth rows of X are nonzero, so the products run on
        those.  The cost is O(n b^2).  Without a banded factor the
        entries come from the dense inverse.
        """
        if not self.is_banded:
            return DenseSigma(self.sigma_dense())
        w, n = self.bandwidth, self.n
        width = max(width, w)
        b = max(width, MIN_BLOCK)
        # R[d, i] = U[i, i+d] from the upper 'ab' storage cb[w-d, i+d]
        R = np.zeros((w + 1, n))
        for d in range(w + 1):
            R[d, : n - d] = self._cb[w - d, d:]
        S = np.zeros((width + 1, n))
        sig_next = None
        for s in range((n - 1) // b * b, -1, -b):
            e = min(s + b, n)
            m = e - s
            U = np.zeros((m, m + w))  # [U_II, first w columns of U_I,I+1]
            _diagonals(U, w)[:] = R[:, s:e]
            Uinv, info = dtrtri(U[:, :m], lower=0)
            if info != 0:
                raise FactorizationError(f"block triangular inverse failed (info {info})")
            sig = Uinv @ Uinv.T
            T = np.zeros((m, m + width))  # [Sigma_II, Sigma_I,I+1] within the band
            if sig_next is not None:
                k = min(w, n - e)  # nonzero columns of U_I,I+1
                kk = min(width, n - e)  # columns of the next block in the band
                X = U[:, m : m + k].T @ Uinv.T
                lower = -(sig_next[:kk, :k] @ X)  # rows :kk of Sigma_I+1,I
                sig -= X.T @ lower[:k]
                T[:, m : m + kk] = lower.T
            T[:, :m] = sig
            S[:, s:e] = _diagonals(T, width)
            sig_next = sig
        return BandedSigma(S)


class BandedSigma:
    """Covariance entries within a band: S[d, i] = Sigma[i, i+d]."""

    def __init__(self, S: np.ndarray):
        self.S = S
        self.width = S.shape[0] - 1
        self.n = S.shape[1]

    def entries(self, rows, cols):
        d = np.abs(cols - rows)
        if np.any(d > self.width):
            raise FactorizationError("covariance entry requested outside stored band")
        return self.S[d, np.minimum(rows, cols)]

    def diagonal(self):
        return self.S[0]


class DenseSigma:
    def __init__(self, sigma: np.ndarray):
        self.sigma = sigma
        self.n = sigma.shape[0]

    def entries(self, rows, cols):
        return self.sigma[rows, cols]

    def diagonal(self):
        return np.diag(self.sigma)


def sigma_trace_with(sig, M) -> float:
    """tr(M Sigma) for sparse M with entries inside the stored band."""
    coo = M.tocoo()
    if coo.nnz == 0:
        return 0.0
    if isinstance(sig, DenseSigma):
        return float(np.sum(coo.data * sig.sigma[coo.col, coo.row]))
    return float(np.sum(coo.data * sig.entries(coo.col, coo.row)))


def sigma_cross_quad_diag(sig, P, K) -> np.ndarray:
    """Vector of P_i. Sigma K_i.' over rows i, for square same-shape P, K."""
    if isinstance(sig, DenseSigma):
        T = P @ sig.sigma
        return np.asarray(K.multiply(T).sum(axis=1)).ravel()
    n = K.shape[0]
    p_coo, k_coo = P.tocoo(), K.tocoo()
    p_offsets = np.unique(p_coo.col - p_coo.row)
    k_offsets = np.unique(k_coo.col - k_coo.row)
    p_diags = {int(d): P.diagonal(int(d)) for d in p_offsets}
    k_diags = {int(d): K.diagonal(int(d)) for d in k_offsets}
    out = np.zeros(n)
    for d1 in p_offsets:
        d1 = int(d1)
        p1 = p_diags[d1]
        for d2 in k_offsets:
            d2 = int(d2)
            k2 = k_diags[d2]
            # rows i where both P[i, i+d1] and K[i, i+d2] exist
            lo = max(0, -d1, -d2)
            hi = min(n, n - d1, n - d2)
            if hi <= lo:
                continue
            i = np.arange(lo, hi)
            v1 = p1[i + d1] if d1 < 0 else p1[i]
            v2 = k2[i + d2] if d2 < 0 else k2[i]
            s = sig.entries(i + d1, i + d2)
            out[lo:hi] += v1 * v2 * s
    return out


def sigma_quad_diag(sig, K) -> np.ndarray:
    """diag(K Sigma K') for square sparse K within the stored band."""
    return sigma_cross_quad_diag(sig, K, K)


def sigma_obs_quad_trace(sig, A) -> float:
    """tr(A Sigma A') for a (possibly rectangular) sparse observation map."""
    if isinstance(sig, DenseSigma):
        T = A @ sig.sigma
        return float(A.multiply(T).sum())
    A = sparse.csr_matrix(A)
    nnz_per_row = np.diff(A.indptr)
    total = 0.0
    single = nnz_per_row == 1
    if np.any(single):
        rows = np.flatnonzero(single)
        cols = A.indices[A.indptr[rows]]
        vals = A.data[A.indptr[rows]]
        total += float(np.sum(vals**2 * sig.diagonal()[cols]))
    for r in np.flatnonzero(nnz_per_row > 1):
        sl = slice(A.indptr[r], A.indptr[r + 1])
        cols = A.indices[sl]
        vals = A.data[sl]
        ci, cj = np.meshgrid(cols, cols)
        total += float(vals @ sig.entries(ci.ravel(), cj.ravel()).reshape(ci.shape) @ vals)
    return total


def obs_row_span(A) -> int:
    """Largest latent-index span of any observation row."""
    A = sparse.csr_matrix(A)
    span = 0
    nnz_per_row = np.diff(A.indptr)
    for r in np.flatnonzero(nnz_per_row > 1):
        cols = A.indices[A.indptr[r] : A.indptr[r + 1]]
        span = max(span, int(cols.max() - cols.min()))
    return span


def logdet_sparse(K) -> float:
    """log |det K| via sparse LU."""
    try:
        lu = splu(sparse.csc_matrix(K))
    except RuntimeError as exc:
        raise FactorizationError(f"operator factorization failed: {exc}") from exc
    return float(
        np.sum(np.log(np.abs(lu.U.diagonal())))
        + np.sum(np.log(np.abs(lu.L.diagonal())))
    )


def _orientation(M):
    """'lower', 'upper', 'diag', or None by stored pattern."""
    coo = M.tocoo()
    low = bool(np.all(coo.row >= coo.col))
    up = bool(np.all(coo.row <= coo.col))
    if low and up:
        return "diag"
    if low:
        return "lower"
    if up:
        return "upper"
    return None


class OperatorLU:
    """Sparse LU of an operator K, computed at its first solve, so that
    the traces of several derivatives against one K share it."""

    def __init__(self, K):
        self.K = K
        self._lu = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            try:
                self._lu = splu(sparse.csc_matrix(self.K))
            except RuntimeError as exc:
                raise FactorizationError(f"operator factorization failed: {exc}") from exc
        return self._lu.solve(rhs)


def trace_kinv_dk(K, dK, chunk: int = 256, lu: OperatorLU | None = None) -> float:
    """tr(K^-1 dK) via sparse solves against the nonzero columns of dK.

    For (pattern-)triangular K whose derivative pattern lies inside it,
    the inverse is triangular with the same orientation and the trace
    collapses to sum(diag(dK) / diag(K)).  Pass ``lu`` to share one
    factorization of K across several derivatives.
    """
    coo = dK.tocoo()
    mask = coo.data != 0.0
    cols = np.unique(coo.col[mask])
    if cols.size == 0:
        return 0.0
    orient = _orientation(K)
    if orient == "diag" or (orient in ("lower", "upper") and _orientation(dK) in ("diag", orient)):
        return float(np.sum(dK.diagonal() / K.diagonal()))
    lu = OperatorLU(K) if lu is None else lu
    dK = sparse.csc_matrix(dK)
    total = 0.0
    for start in range(0, cols.size, chunk):
        block = cols[start : start + chunk]
        rhs = np.asarray(dK[:, block].todense())
        X = lu.solve(rhs)
        total += float(X[block, np.arange(block.size)].sum())
    return total
