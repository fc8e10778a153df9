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
Cholesky Q = U'U; every model takes this one path.

Several chains at one structure form one system.  Their precisions
never couple, so laid out block by block along n (``StructurePlan.
stacked``, built once per chain count) they make one block-diagonal Q:
one ``bincount`` assembles the C chains' bands, one banded Cholesky
factors them, with exact zeros between the blocks (Rue & Held 2005,
section 2.4), and ``SpdFactor.block`` hands each chain its own factor as
a view.  One chain is the case C = 1.

The covariance band comes from a selected inverse (Takahashi, Fagan &
Chin 1973; Rue & Held 2005, section 2.4).  When Q has bandwidth <= 1
(AR1, OU, a pinned first-order random walk) U is bidiagonal and the band
has a closed form: an affine recurrence for the diagonal, run as a
suffix scan in ceil(log2 n) vector steps (Blelloch 1990), then one
vector step per further diagonal.  ``sigma_bands`` runs that scan once
over the factors of all draws of all chains, laid end to end.  Wider
factors run the recursion backwards over blocks of b >= bandwidth rows,
one factor at a time: U is then block upper bidiagonal, the requested
band of Sigma = Q^-1 lies inside its block tridiagonal part, and each
block costs a few dense b x b LAPACK/BLAS calls, O(n b^2) in all.  The
quadratic forms of the Rao-Blackwellized gradient contract the same row
pairs with those bands, for all draws of all chains at once, each
chain's values broadcast along a chain axis.

The cross terms dK Sigma K' of the gradient take, per kernel parameter,
only the row pairs of K whose dK entry can be nonzero: the plan keeps
one sub-list per parameter, K's pairs filtered on the supports the
operator records for its dKs.

The log-determinant of the operator K and its gradient are not computed
here: each operator supplies them from its own structure
(``LatentOperator.logdet_grad``); the SPD Matern operator does so with
``SpdFactor`` of K's band, laid out through a ``BandMap`` of its stored
pattern built once with the operator.  ``SpdFactor`` also takes a sparse
matrix, mapped to its band through a ``BandMap`` built on each call, for
callers off the sampler's path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs, dtrtri
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import FactorizationError

# fewest rows per block of the selected inverse: smaller blocks spend
# their time in per-block Python overhead, larger ones in dense O(b^3) work
MIN_BLOCK = 32

# most pairs in a row for which numpy's reduceat adds the products after
# the first one by one, left to right (beyond it, pairwise)
COLUMN_PAIRS = 8

# most rows of the bidiagonal selected inverse's scan over factors laid end
# to end: longer vectors leave the cache, and each of their temporaries
# costs fresh pages (at n = 5000, one factor per pass beats twenty)
SCAN_LENGTH = 16384


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

    ``row_sums`` adds each row's products as ``np.add.reduceat`` does: the
    first plus the sum of the others.  When no row has more than
    ``COLUMN_PAIRS`` pairs that inner sum runs left to right, so the pairs
    are laid out in columns, the j-th pair of every row in column j (a
    zero product where a row has fewer), and each column takes one vector
    step: the same sums without the per-row loop of ``reduceat`` and with
    temporaries of one value per row, not per pair.  Longer rows, whose
    inner sums numpy splits pairwise, keep ``reduceat``."""

    def __init__(self, M1, M2, position: np.ndarray):
        row, a, b = _row_pairs(M1, M2)
        pi, pj = position[M1.indices[a]], position[M2.indices[b]]
        self._set(M1.shape[0], position.size, row, a, b, pi, pj)

    def _set(self, rows, n, row, a, b, pi, pj):
        self.rows, self.n = rows, n
        self.row, self.a, self.b, self.pi, self.pj = row, a, b, pi, pj
        self.d = np.abs(pi - pj)
        self.flat = self.d * n + np.minimum(pi, pj)
        # the pairs of a row are contiguous, rows in order
        count = np.bincount(row, minlength=rows)
        starts = np.cumsum(count) - count
        if count.max(initial=0) <= COLUMN_PAIRS:
            # column j holds the j-th pair of each row, or the index of an
            # appended zero product
            cols = np.full((max(count.max(initial=0), 1), rows), row.size)
            cols[np.arange(row.size) - starts[row], row] = np.arange(row.size)
            self._cols = cols
            self._col_flat = np.append(self.flat, 0)[cols]
        else:
            # rows with no pair sum to zero
            self._cols = None
            self._filled = count > 0
            self._starts = starts[self._filled]

    def on(self, first: np.ndarray) -> "RowPairs":
        """The pairs whose entry of M1 is one of ``first`` (places in
        ``M1.data``), in the same order: when only those entries can be
        nonzero (a dK's support), the other pairs have a zero product."""
        keep = np.isin(self.a, first)
        sub = object.__new__(RowPairs)
        picked = (self.row, self.a, self.b, self.pi, self.pj)
        sub._set(self.rows, self.n, *(x[keep] for x in picked))
        return sub

    def row_sums(self, d1, d2, sig: "BandedSigma") -> np.ndarray:
        """Vector over rows r of M1[r, :] Sigma M2[r, :]', one row per band
        of a stacked ``sig``, from the stored values d1 and d2 of M1 and
        M2.  Values with leading axes (one row per chain, shape (C, 1,
        nnz)) broadcast against bands stacked (C, k, width + 1, n); d1 may
        stack several matrices along a further leading axis, which then
        share each gather of the band."""
        S = sig.S.reshape(sig.S.shape[:-2] + (-1,))
        if self._cols is None:
            # chain by chain, then matrix by matrix: the stacked matrices
            # share each gather of the band, and every temporary holds one
            # chain's values per pair (larger ones cost fresh pages per call)
            stacked = d1.ndim > d2.ndim
            bands = S if d2.ndim > 1 else S[None]
            d2s = d2.reshape(len(bands), -1)
            d1s = d1.reshape(-1, len(bands), d1.shape[-1])
            sums = np.zeros((len(d1s),) + bands.shape[:-1] + (self.rows,))
            w = None
            for i, band in enumerate(bands):
                values = np.take(band, self.flat, axis=-1)
                other = np.take(d2s[i], self.b)
                for out, d in zip(sums, d1s):
                    coef = np.take(d[i], self.a)
                    coef *= other
                    w = np.multiply(coef, values, out=w)
                    out[i][..., self._filled] = np.add.reduceat(w, self._starts, axis=-1)
            sums = sums if d2.ndim > 1 else sums[:, 0]
            return sums if stacked else sums[0]
        coef = np.take(d1, self.a, axis=-1) * np.take(d2, self.b, axis=-1)
        coef = np.concatenate([coef, np.zeros(coef.shape[:-1] + (1,))], axis=-1)
        total = rest = None
        for c, flat in zip(self._cols, self._col_flat):
            term, factor = np.take(S, flat, axis=-1), np.take(coef, c, axis=-1)
            # in place, unless stacked matrices give the product more axes
            term = np.multiply(term, factor, out=term if factor.ndim <= term.ndim else None)
            if total is None:
                total = term
            elif rest is None:
                rest = term
            else:
                rest += term
        if rest is not None:
            total += rest
        return total


def _row_slots(M):
    """(slots, cols), each (rows, r): the places in ``M.data`` and the
    columns of each row's stored entries in stored order, padded to the
    longest row r with place nnz (a zero appended to the data) and column 0."""
    counts = np.diff(M.indptr)
    rows = entry_rows(M)
    j = np.arange(M.nnz) - np.repeat(M.indptr[:-1], counts)
    slots = np.full((M.shape[0], int(counts.max(initial=0))), M.nnz)
    cols = np.zeros_like(slots)
    slots[rows, j] = np.arange(M.nnz)
    cols[rows, j] = M.indices
    return slots, cols


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


class _Stack(NamedTuple):
    """Index maps of C systems of one plan laid side by side along n,
    chain c at nodes c n to (c + 1) n - 1: the places of Q's band terms
    in the (bandwidth + 1, C n) band (``slots``, K's terms of every chain
    first, then A's), the node of each right-hand side term (``cols``, in
    the same grouping), the band order of all nodes (``order``), and the
    node whose dw divides each of K's pair terms (``pair_rows``) and the
    row of each stored entry of K (``entry_rows``), chain by chain."""

    slots: np.ndarray
    cols: np.ndarray
    order: np.ndarray
    pair_rows: np.ndarray
    entry_rows: np.ndarray


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
    (``kk``).

    Several chains at one structure share one system: their precisions
    never couple, so ``band`` and ``rhs`` lay C chains' terms out block
    by block along n, chain c at nodes c n to (c + 1) n - 1, through
    slots, columns and an order built once per chain count (``stacked``).
    """

    def __init__(self, K, A, supports: dict | None = None):
        self.n = K.shape[1]
        self.order = _band_order(K, A)
        position = _inverse(self.order)
        self.kk = RowPairs(K, K, position)
        self.aa = RowPairs(A, A, position)
        self.dk = {name: self.kk.on(slots) for name, slots in (supports or {}).items()}
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
        self._k_slots = _row_slots(K)
        self._stacks = {}

    def stacked(self, chains: int) -> "_Stack":
        """The index maps of ``chains`` systems side by side (``_Stack``),
        built on first use for each chain count."""
        got = self._stacks.get(chains)
        if got is None:
            n, size = self.n, chains * self.n
            offset = n * np.arange(chains)[:, None]
            diag, col = np.divmod(self._slot, n)
            slots = diag * size + col + offset
            cols = self._entry_cols + offset
            # K's terms of every chain, then A's: the order of the weights
            k_slots, k_cols = len(self._k[0]), len(self._entry_rows[0])
            got = self._stacks[chains] = _Stack(
                np.concatenate([slots[:, :k_slots].ravel(), slots[:, k_slots:].ravel()]),
                np.concatenate([cols[:, :k_cols].ravel(), cols[:, k_cols:].ravel()]),
                (self.order + offset).ravel(),
                (self._k[0] + offset).ravel(),
                (self._entry_rows[0] + offset).ravel(),
            )
        return got

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

    def band(self, products, dw, obs) -> np.ndarray:
        """Q = K' diag(dw)^-1 K + A' diag(dy)^-1 A in upper 'ab' storage,
        band order, from K's ``pair_products`` and A's terms ``obs``
        (``obs_band_terms`` at dy), each with one row per chain: the
        chains' block-diagonal Q, shape (bandwidth + 1, chains n)."""
        chains = dw.shape[0]
        stack = self.stacked(chains)
        weights = np.concatenate([products.ravel() / dw.ravel()[stack.pair_rows], obs.ravel()])
        size = (self.bandwidth + 1) * chains * self.n
        return np.bincount(stack.slots, weights, minlength=size).reshape(-1, chains * self.n)

    def obs_rhs_terms(self, A, r: np.ndarray) -> np.ndarray:
        """A's terms of A' r, one per stored entry of A."""
        return A.data * r[self._entry_rows[1]]

    def rhs(self, k_data, u, obs) -> np.ndarray:
        """K' u + A' r in natural order, from K's stored values ``k_data``
        and A's terms ``obs`` (``obs_rhs_terms`` at r), each with one row
        per chain: the chains' vectors one after another."""
        chains = u.shape[0]
        stack = self.stacked(chains)
        weights = np.concatenate([k_data.ravel() * u.ravel()[stack.entry_rows], obs.ravel()])
        return np.bincount(stack.cols, weights, minlength=chains * self.n)

    def k_product(self, data, X) -> np.ndarray:
        """Rows M X' of matrices M stored on K's pattern with values
        ``data``, one per chain: data (C, 1, nnz) and X (C, k, n) give
        (C, k, rows).  Each row adds its entries' products one at a time
        in stored order, as scipy's CSR product does, so the result equals
        ``(M @ X[c].T).T`` for each chain bit for bit."""
        slots, cols = self._k_slots
        padded = np.concatenate([data, np.zeros(data.shape[:-1] + (1,))], axis=-1)
        out = None
        for slot, col in zip(slots.T, cols.T):
            term = np.take(X, col, axis=-1)
            term *= np.take(padded, slot, axis=-1)
            if out is None:
                out = term
            else:
                out += term
        return out


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

    A Q of ``blocks`` equal diagonal blocks that never couple (several
    chains' precisions side by side, ``StructurePlan.stacked``) has the
    blocks' factors side by side, with exact zeros between them; ``block``
    hands out each one as a factor of its own, a view of this one.
    """

    # every precision takes the banded path
    is_banded = True

    def __init__(self, Q, order: np.ndarray | None = None, blocks: int = 1):
        if sparse.issparse(Q):
            Q = sparse.csr_matrix(Q)
            Q = BandMap(Q).band(Q.data)
        self.bandwidth = Q.shape[0] - 1
        self.n = Q.shape[1]
        self.blocks = blocks
        self.order = np.arange(self.n) if order is None else order
        self._cb, info = dpbtrf(Q, lower=0)
        # LAPACK passes NaN through; a NaN anywhere in Q reaches U's diagonal
        finite = np.isfinite(self._cb[-1])
        if info != 0 or not finite.all():
            # the first column that failed, and the block (chain) holding it
            col = info - 1 if info > 0 else int(np.argmin(finite))
            where = f" in block {col * blocks // self.n}" if blocks > 1 else ""
            raise FactorizationError(
                f"banded Cholesky failed{where}: precision not positive definite or not "
                f"finite (info {info})"
            )

    def block(self, c: int) -> "SpdFactor":
        """The factor of diagonal block c, in the band order of block 0."""
        if self.blocks == 1:
            return self
        n = self.n // self.blocks
        view = object.__new__(SpdFactor)
        view.bandwidth, view.n, view.blocks = self.bandwidth, n, 1
        view.order = self.order[:n]
        view._cb = self._cb[:, c * n : (c + 1) * n]
        return view

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
            return BandedSigma(_sigma_bidiagonal([self._cb], width)[0], self.order)
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


def _sigma_bidiagonal(cbs, width: int) -> np.ndarray:
    """The bands S[b, k, i] = Sigma[i, i+k] of the factors of bandwidth
    <= 1 whose upper 'ab' storage is listed in ``cbs``, all of size n.

    The factors run end to end as one bidiagonal factor of B n rows whose
    coupling r is zero at the last row of each: every window of the scan
    that crosses a factor's end then carries a zero, so each step adds
    exact zeros there and each factor's band is what it alone gives.  All
    steps act on contiguous vectors, in place where the arithmetic
    allows."""
    n, bandwidth = cbs[0].shape[1], cbs[0].shape[0] - 1
    S = np.zeros((len(cbs), width + 1, n))
    d = np.concatenate([cb[-1] for cb in cbs])
    a = np.square(d)
    np.divide(1.0, a, out=a)
    if bandwidth == 0:
        S[:, 0] = a.reshape(-1, n)
        return S
    r = np.concatenate([cb[0] for cb in cbs])[1:]
    r /= d[:-1]
    r[n - 1 :: n] = 0.0
    # before the step of shift s, Sigma_ii = a_i + c_i Sigma_i+s,i+s,
    # with Sigma zero past the last row; each step doubles s
    c = d
    c[-1] = 0.0
    np.square(r, out=c[:-1])
    tmp = np.empty_like(c)
    s = 1
    while s < n:
        np.multiply(c[:-s], a[s:], out=tmp[:-s])
        a[:-s] += tmp[:-s]
        np.multiply(c[:-s], c[s:], out=tmp[:-s])
        c[:-s] = tmp[:-s]
        s *= 2
    S[:, 0] = a.reshape(-1, n)
    prev = a
    for k in range(1, min(width, n - 1) + 1):
        cur = tmp
        cur[-k:] = 0.0
        np.multiply(r[: r.size - k + 1], prev[1 : prev.size - k + 1], out=cur[: cur.size - k])
        np.negative(cur[: cur.size - k], out=cur[: cur.size - k])
        S[:, k] = cur.reshape(-1, n)
        prev, tmp = cur, prev
    return S


def sigma_bands(factors, width: int) -> np.ndarray:
    """The covariance bands of several factors of one size, bandwidth and
    band order (the k draws of C chains), stacked: shape (len(factors),
    max(width, bandwidth) + 1, n).  Factors of bandwidth <= 1 take one
    closed-form pass over as many of them as ``SCAN_LENGTH`` rows hold;
    wider ones run the blocked recursion of ``sigma_band`` one by one (a
    recursion over stacked blocks is slower)."""
    w = factors[0].bandwidth
    if w <= 1:
        cbs, group = [f._cb for f in factors], max(1, SCAN_LENGTH // factors[0].n)
        parts = [
            _sigma_bidiagonal(cbs[i : i + group], max(width, w))
            for i in range(0, len(cbs), group)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
    return np.stack([f.sigma_band(width).S for f in factors])


class BandedSigma:
    """Covariance entries within a band, held in a band order:
    S[d, k] = Sigma[order[k], order[k + d]].  ``entries`` and ``diagonal``
    take and return natural indices of one band.  The quadratic forms also
    take the bands of several covariances in the same order stacked along
    leading axes, S of shape (..., width + 1, n), and return one row per
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
    pattern (a dK), from the stored values P and K (``.data``, or one row
    per chain) and the row pairs of K that P's entries can make nonzero
    (``plan.dk``, or all of K's, ``plan.kk``); one row per band of a stacked ``sig``."""
    return pairs.row_sums(P, K, sig)


def sigma_quad_diag(sig: BandedSigma, K, pairs: RowPairs, cross=()) -> np.ndarray:
    """diag(K Sigma K') from K's stored values (``.data``, or one row per
    chain) and the row pairs of K with itself; one row per band of a
    stacked ``sig``.

    ``cross`` holds the stored values of matrices P on K's pattern that
    these pairs serve whole (a dK with no listed support); diag(P Sigma K')
    of each comes from the same gathers of the band, and the result then
    stacks K's rows and theirs along a new leading axis, K's first."""
    if len(cross):
        return pairs.row_sums(np.stack([K, *cross]), K, sig)
    return pairs.row_sums(K, K, sig)


def sigma_obs_quad_trace(sig: BandedSigma, A, pairs: RowPairs):
    """tr(A Sigma A') from A's stored values and the row pairs of A with
    itself; one value per band of a stacked ``sig``."""
    return pairs.row_sums(A, A, sig).sum(axis=-1)
