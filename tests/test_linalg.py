"""The structure plan, the banded factor and the banded selected inverse
against dense numpy."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from nglatent import _linalg
from nglatent._linalg import (
    MIN_BLOCK,
    BandedSigma,
    SpdFactor,
    StructurePlan,
    _row_pairs,
    sigma_bands,
    sigma_cross_quad_diag,
    sigma_obs_quad_trace,
    sigma_quad_diag,
)
from nglatent.distributions import NoiseSpec
from nglatent.errors import FactorizationError
from nglatent.gibbs import conditional_w_params
from nglatent.mesh import build_interval_mesh
from nglatent.model import assemble_model
from nglatent.operators import (
    advdiff_operator,
    ar1_operator,
    bivariate_operator,
    matern_operator,
    ou_operator,
    replicate_operator,
    rw_operator,
    tensor_operator,
)


def dense_band(Q, width):
    """out[d, i] = inv(Q)[i, i+d], zero past the last row."""
    sigma = np.linalg.inv(Q.toarray())
    n = sigma.shape[0]
    out = np.zeros((width + 1, n))
    for d in range(min(width, n - 1) + 1):
        out[d, : n - d] = np.diagonal(sigma, d)
    return out


def bandwidth_of(M) -> int:
    """The largest distance of a stored entry from the diagonal."""
    coo = M.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=0))


def upper_band(Q, w: int) -> np.ndarray:
    """Upper 'ab' storage: ab[w + i - j, j] = Q[i, j] for j-w <= i <= j."""
    ab = np.zeros((w + 1, Q.shape[0]))
    coo = sparse.triu(Q).tocoo()
    ab[w + coo.row - coo.col, coo.col] = coo.data
    return ab


def assert_band_matches(Q, width):
    factor = SpdFactor(Q)
    assert factor.is_banded
    S = factor.sigma_band(width).S
    ref = dense_band(Q, max(width, factor.bandwidth))
    assert S.shape == ref.shape
    assert np.max(np.abs(S - ref)) <= 1e-10 * np.max(np.abs(ref))


def tridiagonal(n, rho=0.9):
    """Precision of a stationary AR1 with coefficient rho."""
    K = ar1_operator(rho, n).K
    return sparse.csr_matrix(K.T @ K)


def test_diagonal():
    Q = sparse.diags(np.linspace(0.5, 4.0, 50), format="csr")
    assert_band_matches(Q, 0)
    assert_band_matches(Q, 3)


@pytest.mark.parametrize(
    "n", [1, 2, 3, 2 * MIN_BLOCK, 2 * MIN_BLOCK + 7, MIN_BLOCK // 3, 500, 5000]
)
def test_tridiagonal(n):
    assert_band_matches(tridiagonal(n), 1)


@pytest.mark.parametrize("width", [2, 5, MIN_BLOCK + 9])
def test_width_above_bandwidth(width):
    assert_band_matches(tridiagonal(3 * MIN_BLOCK + 5), width)


def test_bidiagonal_closed_form_ill_conditioned():
    # cond(Q) is about 2e9, so the Cholesky factor itself carries relative
    # errors near cond(Q) * eps: inv(Q) and Q = U'U then agree to only
    # about 3e-9.  The closed form is checked against inv(U) inv(U)' for
    # the factor U it is given.
    n = 500
    K = ar1_operator(0.999999, n).K
    v = 1e6 * np.random.default_rng(0).uniform(0.5, 2.0, n)
    Q = sparse.csr_matrix(K.T @ sparse.diags(1.0 / v) @ K)
    factor = SpdFactor(Q)
    U = np.diag(factor._cb[1]) + np.diag(factor._cb[0, 1:], 1)
    U_inv = np.linalg.inv(U)
    sigma = U_inv @ U_inv.T
    S = factor.sigma_band(3).S
    for d in range(4):
        want = np.diagonal(sigma, d)
        assert np.max(np.abs(S[d, : n - d] - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("scan_length", [None, 80])
@pytest.mark.parametrize("bandwidth", [0, 1, 3])
@pytest.mark.parametrize("width", [0, 2])
def test_sigma_bands_match_each_factor(bandwidth, width, scan_length, monkeypatch):
    # the bands of several factors in one pass equal each factor's own, bit
    # for bit; the unused corner ab[0, 0] of a factor's band storage holds
    # a stray value here, which must not couple one factor to the next.  A
    # scan of 80 rows takes the three factors of 40 rows in two passes
    if scan_length is not None:
        monkeypatch.setattr(_linalg, "SCAN_LENGTH", scan_length)
    rng = np.random.default_rng(bandwidth)
    factors = []
    for _ in range(3):
        M = sparse.diags(
            [rng.uniform(1.0, 2.0, 40)] + [rng.uniform(-0.5, 0.5, 40 - k) for k in range(1, bandwidth + 1)],
            list(range(bandwidth + 1)),
        )
        ab = upper_band(sparse.csr_matrix(M.T @ M), bandwidth)
        ab[0, 0] = 7.0
        factors.append(SpdFactor(ab))
    got = sigma_bands(factors, width)
    for S, factor in zip(got, factors):
        assert np.array_equal(S, factor.sigma_band(width).S)


def test_tensor_bandwidth_above_block_floor():
    mesh = build_interval_mesh(np.linspace(0.0, 8.0, 32))
    K = tensor_operator(ar1_operator(0.7, 6), matern_operator(1.3, mesh)).K
    Q = sparse.csr_matrix(K.T @ K + 0.5 * sparse.identity(K.shape[0]))
    factor = SpdFactor(Q)
    assert factor.bandwidth > MIN_BLOCK
    assert_band_matches(Q, 2 * factor.bandwidth)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_sparse_input_factors_its_band(fmt):
    # a sparse precision is laid into its band through a BandMap; the
    # factor is that of the band the sparse conversion gives, bit for bit
    mesh = build_interval_mesh(np.linspace(0.0, 6.0, 14))
    K = tensor_operator(ar1_operator(0.7, 5), matern_operator(1.3, mesh)).K
    Q = sparse.csr_matrix(K.T @ K + 0.5 * sparse.identity(K.shape[0]))
    want = SpdFactor(upper_band(Q, bandwidth_of(Q)))
    got = SpdFactor(Q.asformat(fmt))
    assert got.bandwidth == want.bandwidth
    assert np.array_equal(got._cb, want._cb)


def test_not_positive_definite_raises():
    Q = tridiagonal(40)
    Q = sparse.csr_matrix(Q - 3.0 * sparse.identity(40))
    with pytest.raises(FactorizationError):
        SpdFactor(Q).sigma_band(1)


def test_not_finite_raises():
    ab = upper_band(tridiagonal(40), 1)
    ab[0, 17] = np.nan
    with pytest.raises(FactorizationError):
        SpdFactor(ab)


# ---------------------------------------------------------------------------
# Structure plan
# ---------------------------------------------------------------------------

MESH = build_interval_mesh(np.cumsum(np.r_[0.0, np.linspace(0.4, 1.2, 13)]))
SMALL = build_interval_mesh(np.linspace(0.0, 3.0, 6))

def pinned_rw2(mesh):
    """A second-order random walk squared by pinning both end nodes
    (pin_operator pins one node, which squares a first-order walk)."""
    op = rw_operator(2, mesh)
    n = mesh.n
    pins = sparse.csr_matrix(([1.0, 1.0], ([0, 1], [0, n - 1])), shape=(2, n))
    K = sparse.vstack([op.K, pins], format="csr")
    return dataclasses.replace(op, K=K, h=np.concatenate([op.h, [1.0, 1.0]]))


OPERATORS = {
    "ar1": lambda: ar1_operator(0.7, 30),
    "ou": lambda: ou_operator(0.8, MESH),
    "pinned-rw2": lambda: pinned_rw2(MESH),
    "matern": lambda: matern_operator(1.3, MESH),
    "tensor": lambda: tensor_operator(ar1_operator(0.6, 4), matern_operator(1.1, SMALL)),
    "bivariate": lambda: bivariate_operator(
        matern_operator(0.9, MESH), matern_operator(1.7, MESH), 2.5, 0.5
    ),
    "replicate": lambda: replicate_operator(ou_operator(0.5, SMALL), 3),
    "advdiff": lambda: advdiff_operator(1.2, 0.4, 0.8, SMALL, 4),
}


def observation_map(kind, n, rng):
    """Identity, linear interpolation at random points (two entries per
    row), or no observations at all."""
    if kind == "identity":
        return sparse.identity(n, format="csr")
    if kind == "empty":
        return sparse.csr_matrix((0, n))
    m = 2 * n
    x = rng.uniform(0.0, n - 1.0, m)
    i = np.minimum(np.floor(x).astype(int), n - 2)
    t = x - i
    rows = np.repeat(np.arange(m), 2)
    cols = np.column_stack([i, i + 1]).ravel()
    vals = np.column_stack([1.0 - t, t]).ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(m, n))


def assert_close(got, want, tol=1e-10, scale=None):
    scale = np.max(np.abs(want), initial=0.0) if scale is None else scale
    assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


def check_plan(plan, op, A, rng):
    """The plan's band against the sparse Q, and the factor in plan order
    (solve, log-det, whitening, covariance band, quadratic forms) against
    the dense inverse."""
    K, n = op.K, op.dim
    dw = rng.uniform(0.5, 2.0, K.shape[0])
    dy = rng.uniform(0.5, 2.0, A.shape[0])
    Q = (K.T @ sparse.diags(1.0 / dw) @ K + A.T @ sparse.diags(1.0 / dy) @ A).tocsr()
    p = plan.order
    assert np.array_equal(np.sort(p), np.arange(n))
    Qp = Q[p][:, p]
    assert bandwidth_of(Qp) <= plan.bandwidth
    band = plan.band(plan.pair_products(K)[None], dw[None], plan.obs_band_terms(A, dy)[None])
    assert_close(band, upper_band(Qp, plan.bandwidth), tol=1e-12)
    u, r = rng.standard_normal(K.shape[0]), rng.standard_normal(A.shape[0])
    assert_close(plan.rhs(K.data[None], u[None], plan.obs_rhs_terms(A, r)[None]), K.T @ u + A.T @ r, tol=1e-12)

    factor = SpdFactor(band, p)
    Qd = Q.toarray()
    sigma = np.linalg.inv(Qd)
    b = rng.standard_normal(n)
    assert_close(factor.solve(b), np.linalg.solve(Qd, b))
    logdet = np.linalg.slogdet(Qd)[1]
    assert abs(factor.logdet() - logdet) <= 1e-10 * max(1.0, abs(logdet))
    M = factor.whiten(np.eye(n))
    assert_close(M @ M.T, sigma)
    assert_close(factor.sigma_dense(), sigma)

    sig = factor.sigma_band(plan.bandwidth)
    position = np.empty(n, dtype=int)
    position[p] = np.arange(n)
    rows, cols = np.nonzero(np.abs(position[:, None] - position[None, :]) <= plan.bandwidth)
    assert_close(sig.entries(rows, cols), sigma[rows, cols])
    assert_close(sig.diagonal(), np.diag(sigma))
    Kd = K.toarray()
    assert_close(sigma_quad_diag(sig, K.data, plan.kk), np.diag(Kd @ sigma @ Kd.T))
    for name, dK in op.dK.items():
        # every dK is stored on K's pattern, so K's row pairs serve it; a
        # diagonal of dK K^-1 may vanish (the bivariate rotation), so the
        # error is measured against the size of the products summed
        assert np.array_equal(dK.indptr, K.indptr) and np.array_equal(dK.indices, K.indices)
        dKd = dK.toarray()
        scale = np.max(np.abs(dKd) @ np.abs(sigma) @ np.abs(Kd).T)
        got = sigma_cross_quad_diag(sig, dK.data, K.data, plan.kk)
        assert_close(got, np.diag(dKd @ sigma @ Kd.T), scale=scale)
    if A.shape[0]:
        Ad = A.toarray()
        want = np.trace(Ad @ sigma @ Ad.T)
        assert abs(sigma_obs_quad_trace(sig, A.data, plan.aa) - want) <= 1e-10 * want


@pytest.mark.parametrize("a_kind", ["identity", "interpolation", "empty"])
@pytest.mark.parametrize("op_name", list(OPERATORS))
def test_plan_matches_dense(op_name, a_kind):
    rng = np.random.default_rng(5)
    op = OPERATORS[op_name]()
    A = observation_map(a_kind, op.dim, rng)
    check_plan(StructurePlan(op.K, A), op, A, rng)


def test_band_order():
    # bivariate: nodes i and i + d are coupled, so the natural bandwidth is
    # about d while the reverse Cuthill-McKee order gives a narrow band
    op = OPERATORS["bivariate"]()
    A = sparse.identity(op.dim, format="csr")
    plan = StructurePlan(op.K, A)
    assert plan.bandwidth <= 8 < op.dim // 2
    assert not np.array_equal(plan.order, np.arange(op.dim))
    # AR(1) is already narrowest in natural order, and so is the tensor
    for name in ("ar1", "tensor"):
        op = OPERATORS[name]()
        plan = StructurePlan(op.K, sparse.identity(op.dim, format="csr"))
        assert np.array_equal(plan.order, np.arange(op.dim))


@pytest.mark.parametrize("op_name", ["tensor", "bivariate", "advdiff"])
def test_support_pairs_are_k_pairs_on_the_support(op_name):
    # each parameter's pair list is K's pairs filtered on its dK support:
    # the same rows, entries and band places, in the same order, as pairing
    # K's rows afresh and dropping the pairs off the support
    op = OPERATORS[op_name]()
    plan = StructurePlan(op.K, sparse.identity(op.dim, format="csr"), op.dK_support)
    position = np.empty(op.dim, dtype=int)
    position[plan.order] = np.arange(op.dim)
    row, a, b = _row_pairs(op.K, op.K)
    assert plan.dk.keys() == op.dK_support.keys()
    for name, slots in op.dK_support.items():
        keep = np.isin(a, slots)
        pi, pj = position[op.K.indices[a[keep]]], position[op.K.indices[b[keep]]]
        want = (row[keep], a[keep], b[keep], np.abs(pi - pj) * op.dim + np.minimum(pi, pj))
        got = plan.dk[name]
        for w, g in zip(want, (got.row, got.a, got.b, got.flat)):
            assert np.array_equal(g, w)


def reduceat_row_sums(pairs, d1, d2, S):
    """Each row's products d1[a] d2[b] S[flat], summed by np.add.reduceat
    (zero for a row with no pair)."""
    S = S.reshape(S.shape[:-2] + (-1,))
    products = d1[..., pairs.a] * d2[..., pairs.b] * S[..., pairs.flat]
    count = np.bincount(pairs.row, minlength=pairs.rows)
    starts = (np.cumsum(count) - count)[count > 0]
    out = np.zeros(products.shape[:-1] + (pairs.rows,))
    out[..., count > 0] = np.add.reduceat(products, starts, axis=-1)
    return out


@pytest.mark.parametrize("op_name", list(OPERATORS))
def test_row_sums_add_as_reduceat(op_name):
    # bit for bit, whichever way a pair list sums its rows (short rows
    # column by column, long ones by reduceat), for stacked chains and for
    # stacked matrices sharing the gathers: a regrouped sum would move the
    # gradient in its last bits
    op = OPERATORS[op_name]()
    rng = np.random.default_rng(8)
    A = observation_map("interpolation", op.dim, rng)
    plan = StructurePlan(op.K, A, op.dK_support)
    chains, k = 3, 4
    S = rng.standard_normal((chains, k, plan.bandwidth + 1, op.dim))
    sig = BandedSigma(S, plan.order)
    for pairs, nnz in [(plan.kk, op.K.nnz), (plan.aa, A.nnz)] + [
        (p, op.K.nnz) for p in plan.dk.values()
    ]:
        d1, d2, d3 = rng.standard_normal((3, chains, 1, nnz))
        assert np.array_equal(pairs.row_sums(d1, d2, sig), reduceat_row_sums(pairs, d1, d2, S))
        got = pairs.row_sums(np.stack([d1, d3]), d2, sig)
        for g, d in zip(got, (d1, d3)):
            assert np.array_equal(g, reduceat_row_sums(pairs, d, d2, S))
        one = BandedSigma(S[0, 0], plan.order)
        assert np.array_equal(
            pairs.row_sums(d1[0, 0], d2[0, 0], one), reduceat_row_sums(pairs, d1[0, 0], d2[0, 0], S[0, 0])
        )


def test_rows_of_every_short_length_add_as_reduceat():
    # rows of 1 to COLUMN_PAIRS pairs, summed column by column, and a list
    # with one row longer, which takes reduceat: both as reduceat sums
    rng = np.random.default_rng(10)
    n = 12
    for longest in (_linalg.COLUMN_PAIRS, _linalg.COLUMN_PAIRS + 1):
        rows = np.repeat(np.arange(longest), np.arange(1, longest + 1))
        cols = np.concatenate([rng.choice(n, k, replace=False) for k in range(1, longest + 1)])
        M1 = sparse.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(longest, n))
        M2 = sparse.csr_matrix(
            (rng.standard_normal(longest), (np.arange(longest), rng.integers(0, n, longest))),
            shape=(longest, n),
        )
        pairs = _linalg.RowPairs(M1, M2, rng.permutation(n))
        S = rng.standard_normal((2, 3, n, n))
        d1, d2 = rng.standard_normal((2, 1, M1.nnz)), rng.standard_normal((2, 1, M2.nnz))
        got = pairs.row_sums(d1, d2, BandedSigma(S, np.arange(n)))
        assert np.array_equal(got, reduceat_row_sums(pairs, d1, d2, S))


@pytest.mark.parametrize("op_name", list(OPERATORS))
def test_k_product_is_the_csr_product(op_name):
    # each chain's rows M X' equal scipy's CSR product bit for bit, for
    # matrices stored on K's pattern with any values (K and each dK)
    op = OPERATORS[op_name]()
    K = op.K
    plan = StructurePlan(K, sparse.identity(op.dim, format="csr"))
    rng = np.random.default_rng(9)
    chains, k = 3, 5
    X = rng.standard_normal((chains, k, op.dim))
    datas = [np.stack([K.data] * chains), rng.standard_normal((chains, K.nnz))]
    datas += [np.stack([dK.data] * chains) for dK in op.dK.values()]
    for data in datas:
        got = plan.k_product(data[:, None], X)
        for c in range(chains):
            M = sparse.csr_matrix((data[c], K.indices, K.indptr), shape=K.shape)
            assert np.array_equal(got[c], (M @ X[c].T).T)


def nig_model(op):
    return assemble_model(
        A=sparse.identity(op.dim, format="csr"),
        X=np.zeros((op.dim, 0)),
        op=op,
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )


@pytest.mark.parametrize(
    "op_name, zeros",
    [("ar1", {"phi": 0.0}), ("bivariate", {"zeta": 0.0, "rho": 0.0})],
)
def test_plan_kept_when_a_zero_appears(op_name, zeros):
    # phi = 0 zeroes the sub-diagonal of the AR(1) K; zeta = rho = 0 makes
    # the bivariate D diagonal and zeroes the coupling blocks.  The entries
    # stay stored, so the model keeps its plan.
    model = nig_model(OPERATORS[op_name]())
    theta = model.theta_natural()
    for name, value in zeros.items():
        theta[model.param_names.index(name)] = value
    mdl = model.with_theta(theta)
    assert mdl.plan is model.plan
    assert mdl.op.K.nnz == model.op.K.nnz
    assert mdl.op.K.count_nonzero() < model.op.K.count_nonzero()
    rng = np.random.default_rng(6)
    check_plan(mdl.plan, mdl.op, mdl.A, rng)
    V = (rng.uniform(0.5, 2.0, mdl.n), np.ones(mdl.m))
    Y = rng.standard_normal(mdl.m)
    mu, Q = conditional_w_params(mdl, None, V, Y)
    K = mdl.op.K.toarray()
    rhs = K.T @ (0.5 * (V[0] - mdl.noise_w.h) / V[0]) + Y / 0.25
    assert_close(mu, np.linalg.solve(Q.toarray(), rhs))
    back = mdl.with_theta(model.theta_natural())
    assert back.plan is model.plan
    assert np.array_equal(back.op.K.toarray(), model.op.K.toarray())
