"""Banded factorization of the latent conditional precision.

The precision of W | V, Y is Q = K' D_w^-1 K + A' D_y^-1 A.  Its sparsity
is that of K'K + A'A.  An operator stores K and every dK on one pattern
fixed when it is built, so a ``StructurePlan`` built once per model from
the stored patterns of K and A holds

* a band order of the latent nodes: reverse Cuthill-McKee (Cuthill &
  McKee 1969) on the pattern of K'K + A'A, kept only when it narrows
  the bandwidth (Rue & Held 2005, section 2.4.3), the natural order
  otherwise;
* the pairs of stored entries that share a row of K, and of A, each
  mapped to its place in Q's upper band and in the covariance band, in
  that order; K's pairs also serve each dK with K.

The products of K's pairs depend on K's values only and are formed
once per parameter value (``pair_products``), as are A's terms of Q
and of the right-hand side when D_y is fixed (``obs_band_terms``,
``obs_rhs_terms``).  Each draw then assembles Q's band with one
``bincount`` over the pairs of K and of A and factors it with a banded
Cholesky Q = U'U; every model takes this one path.  The covariance band
comes from a selected inverse (Takahashi, Fagan & Chin 1973; Rue & Held
2005, section 2.4).  When Q has bandwidth <= 1 (AR1, OU, a pinned
first-order random walk) U is bidiagonal and the band has a closed
form: an affine recurrence for the diagonal, run as a suffix scan in
ceil(log2 n) vector steps (Blelloch 1990), then one vector step per
further diagonal.  Wider factors run
the recursion backwards over blocks of b >= bandwidth rows: U is then
block upper bidiagonal, the requested band of Sigma = Q^-1 lies inside
its block tridiagonal part, and each block costs a few dense b x b
LAPACK/BLAS calls, O(n b^2) in all.  The quadratic forms of the
Rao-Blackwellized gradient contract the same row pairs with that band,
for the bands of all k draws of a gradient at once.

The cross terms dK Sigma K' of the gradient take, per kernel parameter,
only the row pairs of K whose dK entry can be nonzero: the plan keeps
one sub-list per parameter, built once from the supports the operator
records for its dKs.

The log-determinant of the operator K and its gradient are not computed
here: each operator supplies them from its own structure
(``LatentOperator.logdet_grad``); the SPD Matern operator does so with
``SpdFactor`` of K's band, laid out through a ``BandMap`` of its stored
pattern built once with the operator.  ``SpdFactor`` also takes a sparse
matrix, mapped to its band through a ``BandMap`` built on each call, for
callers off the sampler's path.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs, dtrtri
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import FactorizationError

# fewest rows per block of the selected inverse: smaller blocks spend
# their time in per-block Python overhead, larger ones in dense O(b^3) work
MIN_BLOCK = 32


def _diagonals(M: np.ndarray, k: int) -> np.ndarray:
    """Writable view V of a C-contiguous m x (m + k) array with
    V[d, r] = M[r, r + d] for 0 <= d <= k."""
    m, ncol = M.shape
    step = M.itemsize
    return np.ndarray((k + 1, m), M.dtype, M, 0, (step, step * (ncol + 1)))


def _inverse(order: np.ndarray) -> np.ndarray:
    """position[order[k]] = k."""
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return position


# ---------------------------------------------------------------------------
# Structure plan
# ---------------------------------------------------------------------------


def entry_rows(M) -> np.ndarray:
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))


def _row_pairs(M1, M2):
    """(r, a, b) for every pair of stored entries M1.data[a] and
    M2.data[b] in a common row r of two CSR matrices."""
    n1, n2 = np.diff(M1.indptr), np.diff(M2.indptr)
    count = n1 * n2
    row = np.repeat(np.arange(count.size), count)
    k = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    return row, M1.indptr[row] + k // n2[row], M2.indptr[row] + k % n2[row]


class RowPairs:
    """The products M1[r, i] M2[r, j] of stored entries sharing a row r,
    with the place of Sigma[i, j] in a band-order covariance band: ``d``
    the distance of i and j in band order, and ``flat`` the index of
    S[d, min] in the flattened band S (shape (width + 1, n)).

    ``first``, when given, lists the stored entries of M1 (places in
    ``M1.data``) that can be nonzero; the pairs on any other entry of M1
    have a zero product and are left out."""

    def __init__(self, M1, M2, position: np.ndarray, first: np.ndarray | None = None):
        self.rows = M1.shape[0]
        self.row, self.a, self.b = _row_pairs(M1, M2)
        if first is not None:
            keep = np.isin(self.a, first)
            self.row, self.a, self.b = self.row[keep], self.a[keep], self.b[keep]
        self.pi = position[M1.indices[self.a]]
        self.pj = position[M2.indices[self.b]]
        self.d = np.abs(self.pi - self.pj)
        self.flat = self.d * position.size + np.minimum(self.pi, self.pj)
        # the pairs of a row are contiguous, rows in order; rows with no
        # pair sum to zero
        count = np.bincount(self.row, minlength=self.rows)
        self._filled = count > 0
        self._starts = (np.cumsum(count) - count)[self._filled]

    def row_sums(self, M1, M2, sig: "BandedSigma") -> np.ndarray:
        """Vector over rows r of M1[r, :] Sigma M2[r, :]', one row per band
        of a stacked ``sig``."""
        S = sig.S.reshape(sig.S.shape[:-2] + (-1,))
        coef = np.take(M1.data, self.a) * np.take(M2.data, self.b)
        w = coef * np.take(S, self.flat, axis=-1)
        sums = np.zeros(w.shape[:-1] + (self.rows,))
        sums[..., self._filled] = np.add.reduceat(w, self._starts, axis=-1)
        return sums


def _structure(M) -> sparse.csr_matrix:
    """The stored pattern of a CSR matrix, with every entry one."""
    return sparse.csr_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)


def _band_order(K, A) -> np.ndarray:
    """Reverse Cuthill-McKee order of the pattern of K'K + A'A when it
    gives a narrower band than the natural order, else the natural order."""
    P, B = _structure(K), _structure(A)
    G = (P.T @ P + B.T @ B).tocsr()
    coo = G.tocoo()
    natural = np.arange(G.shape[0])
    if coo.nnz == 0:
        return natural
    rcm = reverse_cuthill_mckee(G, symmetric_mode=True).astype(natural.dtype)
    position = _inverse(rcm)
    if np.max(np.abs(position[coo.row] - position[coo.col])) < np.max(np.abs(coo.row - coo.col)):
        return rcm
    return natural


class BandMap:
    """The slots in upper 'ab' storage of the upper triangle of a square
    CSR pattern, ab[w + i - j, j] = M[i, j] for j - w <= i <= j, with w
    (``bandwidth``) the largest distance of a stored entry from the
    diagonal.  Built once from the pattern, it lays the data of any matrix
    stored on that pattern into its band (``band``) with one scatter, so a
    caller that keeps the map converts no sparse matrix per call."""

    def __init__(self, M):
        rows, cols = entry_rows(M), M.indices
        self.bandwidth = int(np.max(np.abs(rows - cols), initial=0))
        self.n = M.shape[1]
        self._upper = np.flatnonzero(rows <= cols)
        i, j = rows[self._upper], cols[self._upper]
        self._slot = (self.bandwidth + i - j) * self.n + j

    def band(self, data: np.ndarray) -> np.ndarray:
        """The upper band of the matrix with ``data`` on the pattern."""
        ab = np.zeros((self.bandwidth + 1) * self.n)
        ab[self._slot] = data[self._upper]
        return ab.reshape(self.bandwidth + 1, self.n)


class StructurePlan:
    """Index maps from the stored patterns of K and of the observation map
    A (both CSR) to Q's band and to the covariance band, in a band order
    of the latent nodes.

    The maps address positions in ``.data``, so a plan serves every matrix
    stored on those patterns: K at any parameter value, and each dK, which
    an operator stores on K's pattern.  Attributes: ``order`` (order[k] is
    the natural index of band position k) and ``bandwidth`` of Q in that
    order, which is also the largest distance in band order between two
    entries of one row of K, dK or A, as the gradient's quadratic forms
    need.

    ``supports`` maps a kernel parameter to the stored entries of K's
    pattern outside which its dK is zero at every parameter value (the
    operator's ``dK_support``).  The plan keeps, per such parameter, the
    sub-list of K's row pairs whose dK entry lies in that support
    (``dk``), so each cross term dK Sigma K' sums only the pairs it can
    touch; a parameter not in ``supports`` takes all of K's pairs
    (``cross_pairs``).
    """

    def __init__(self, K, A, supports: dict | None = None):
        self.n = K.shape[1]
        self.order = _band_order(K, A)
        position = _inverse(self.order)
        self.kk = RowPairs(K, K, position)
        self.aa = RowPairs(A, A, position)
        self.dk = {
            name: RowPairs(K, K, position, slots) for name, slots in (supports or {}).items()
        }
        w = max(int(self.kk.d.max(initial=0)), int(self.aa.d.max(initial=0)))
        self.bandwidth = w
        # each pair with pi <= pj adds to Q[pi, pj], stored at ab[w + pi - pj, pj]
        k_up, a_up = self.kk.pi <= self.kk.pj, self.aa.pi <= self.aa.pj
        self._k = self.kk.row[k_up], self.kk.a[k_up], self.kk.b[k_up]
        self._a = self.aa.row[a_up], self.aa.a[a_up], self.aa.b[a_up]
        pi = np.concatenate([self.kk.pi[k_up], self.aa.pi[a_up]])
        pj = np.concatenate([self.kk.pj[k_up], self.aa.pj[a_up]])
        self._slot = (w + pi - pj) * self.n + pj
        # the row of each stored entry of K and of A, and its column
        self._entry_rows = [entry_rows(M) for M in (K, A)]
        self._entry_cols = np.concatenate([K.indices, A.indices])

    def cross_pairs(self, name: str) -> RowPairs:
        """The row pairs of K that the cross term of parameter ``name``
        sums: those on its dK's support, or all of K's."""
        return self.dk.get(name, self.kk)

    def pair_products(self, K) -> np.ndarray:
        """The products K[r, i] K[r, j] that Q's upper band sums: they
        depend on K's values only, so one set serves every draw at them."""
        _, ka, kb = self._k
        return K.data[ka] * K.data[kb]

    def obs_band_terms(self, A, dy: np.ndarray) -> np.ndarray:
        """A's terms of Q's upper band, A[r, i] A[r, j] / dy[r], one per
        pair of A."""
        ar, aa, ab = self._a
        return A.data[aa] * A.data[ab] / dy[ar]

    def band(self, products: np.ndarray, dw: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """Q = K' diag(dw)^-1 K + A' diag(dy)^-1 A in upper 'ab' storage,
        band order, from K's ``pair_products`` and A's terms ``obs``
        (``obs_band_terms`` at dy)."""
        weights = np.concatenate([products / dw[self._k[0]], obs])
        size = (self.bandwidth + 1) * self.n
        return np.bincount(self._slot, weights, minlength=size).reshape(-1, self.n)

    def obs_rhs_terms(self, A, r: np.ndarray) -> np.ndarray:
        """A's terms of A' r, one per stored entry of A."""
        return A.data * r[self._entry_rows[1]]

    def rhs(self, K, u: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """K' u + A' r in natural order, from A's terms ``obs``
        (``obs_rhs_terms`` at r)."""
        weights = np.concatenate([K.data * u[self._entry_rows[0]], obs])
        return np.bincount(self._entry_cols, weights, minlength=self.n)


# ---------------------------------------------------------------------------
# Factorization and covariance access
# ---------------------------------------------------------------------------


class SpdFactor:
    """Banded Cholesky factor Q = U'U of a symmetric positive definite
    matrix, held in a band order of its nodes.

    ``Q`` is a sparse matrix, factored in its own order, or its upper band
    in 'ab' storage (ab[w + i - j, j] = Q[i, j]) in the order ``order``,
    where order[k] is the natural index of band position k.  ``solve``
    and ``whiten`` take and return vectors in natural order.
    """

    # every precision takes the banded path
    is_banded = True

    def __init__(self, Q, order: np.ndarray | None = None):
        if sparse.issparse(Q):
            Q = sparse.csr_matrix(Q)
            Q = BandMap(Q).band(Q.data)
        self.bandwidth = Q.shape[0] - 1
        self.n = Q.shape[1]
        self.order = np.arange(self.n) if order is None else order
        self._cb, info = dpbtrf(Q, lower=0)
        # LAPACK passes NaN through; a NaN anywhere in Q reaches U's diagonal
        if info != 0 or not np.all(np.isfinite(self._cb[-1])):
            raise FactorizationError(
                "banded Cholesky failed: precision not positive definite or not "
                f"finite (info {info})"
            )

    def _natural(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[self.order] = x
        return out

    def solve(self, b):
        """Q^-1 b for a vector or a dense matrix of right-hand sides."""
        x, _ = dpbtrs(self._cb, np.asarray(b)[self.order], lower=0)
        return self._natural(x)

    def whiten(self, z):
        """x with Cov(x) = Q^-1 from standard normal z, via backward
        substitution on the Cholesky factor."""
        x, _ = dtbtrs(self._cb, z, uplo="U")
        return self._natural(x)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(self._cb[-1])))

    def sigma_dense(self) -> np.ndarray:
        """Q^-1 as a dense matrix, from the banded factor."""
        return self.solve(np.eye(self.n))

    def sigma_band(self, width: int):
        """Entries of Q^-1 within ``width`` positions of the diagonal, in
        band order.

        The path follows the factor's bandwidth.  With U = U(d, e) the
        Cholesky factor (Q = U'U), its diagonal d and superdiagonal e and
        r_i = e_i / d_i, a bidiagonal U gives Sigma in closed form:

            Sigma_ii    = 1/d_i^2 + r_i^2 Sigma_i+1,i+1
            Sigma_i,i+d = -r_i Sigma_i+1,i+d          (d >= 1)

        The first line is an affine recurrence, run as a suffix scan in
        ceil(log2 n) vector steps (every term is positive, so no
        cancellation); each further line is one vector step.  A diagonal
        U (bandwidth 0) gives Sigma_ii = 1/d_i^2.

        Wider factors run the selected inverse backwards over blocks of
        b = max(width, bandwidth, MIN_BLOCK) rows, so that U is block
        upper bidiagonal and the band of each block row lies in its own
        and the next block.  With U_II and U_I,I+1 the diagonal and
        coupling blocks and Uinv = U_II^-1, each block takes, from
        Sigma_I+1,I+1,

            X            = U_I,I+1' Uinv'
            Sigma_I+1,I  = -Sigma_I+1,I+1 X
            Sigma_II     = Uinv Uinv' - X' Sigma_I+1,I

        which is exact: no entry of the band is approximated.  Only the
        first bandwidth rows of X are nonzero, so the products run on
        those.  The cost is O(n b^2).  The band is held in the factor's
        order; ``BandedSigma`` maps natural indices into it.
        """
        w, n = self.bandwidth, self.n
        width = max(width, w)
        if w <= 1:
            return BandedSigma(self._sigma_bidiagonal(width), self.order)
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
        return BandedSigma(S, self.order)

    def _sigma_bidiagonal(self, width: int) -> np.ndarray:
        """The band S[d, i] = Sigma[i, i+d] of a factor of bandwidth <= 1."""
        n = self.n
        d = self._cb[-1]
        S = np.zeros((width + 1, n))
        a = 1.0 / d**2
        if self.bandwidth == 0:
            S[0] = a
            return S
        r = self._cb[0, 1:] / d[:-1]
        # before the step of shift s, Sigma_ii = a_i + c_i Sigma_i+s,i+s,
        # with Sigma zero past the last row; each step doubles s
        c = np.zeros(n)
        c[:-1] = r**2
        s = 1
        while s < n:
            a[:-s] += c[:-s] * a[s:]
            c[:-s] *= c[s:]
            s *= 2
        S[0] = a
        for k in range(1, min(width, n - 1) + 1):
            S[k, : n - k] = -r[: n - k] * S[k - 1, 1 : n - k + 1]
        return S


class BandedSigma:
    """Covariance entries within a band, held in a band order:
    S[d, k] = Sigma[order[k], order[k + d]].  ``entries`` and ``diagonal``
    take and return natural indices of one band.  The quadratic forms also
    take the bands of several covariances in the same order stacked along
    a leading axis, S of shape (k, width + 1, n), and return one row per
    band."""

    def __init__(self, S: np.ndarray, order: np.ndarray):
        self.S = S
        self.order = order
        self.width = S.shape[-2] - 1
        self.n = S.shape[-1]

    def entries(self, rows, cols):
        position = _inverse(self.order)
        pr, pc = position[rows], position[cols]
        d = np.abs(pc - pr)
        if np.any(d > self.width):
            raise FactorizationError("covariance entry requested outside stored band")
        return self.S[d, np.minimum(pr, pc)]

    def diagonal(self):
        out = np.empty(self.n)
        out[self.order] = self.S[0]
        return out


def sigma_cross_quad_diag(sig: BandedSigma, P, K, pairs: RowPairs) -> np.ndarray:
    """Vector of P_i. Sigma K_i.' over rows i for a P stored on K's
    pattern (a dK), from the row pairs of K that P's entries can make
    nonzero (``plan.cross_pairs``); one row per band of a stacked
    ``sig``."""
    return pairs.row_sums(P, K, sig)


def sigma_quad_diag(sig: BandedSigma, K, pairs: RowPairs) -> np.ndarray:
    """diag(K Sigma K') from the row pairs of K with itself; one row per
    band of a stacked ``sig``."""
    return pairs.row_sums(K, K, sig)


def sigma_obs_quad_trace(sig: BandedSigma, A, pairs: RowPairs):
    """tr(A Sigma A') from the row pairs of A with itself; one value per
    band of a stacked ``sig``."""
    return pairs.row_sums(A, A, sig).sum(axis=-1)
