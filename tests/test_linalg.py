"""The structure plan, the banded factor and the banded selected inverse
against dense numpy."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from nglatent._linalg import (
    MIN_BLOCK,
    SpdFactor,
    StructurePlan,
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
    band = plan.band(plan.pair_products(K), dw, plan.obs_band_terms(A, dy))
    assert_close(band, upper_band(Qp, plan.bandwidth), tol=1e-12)
    u, r = rng.standard_normal(K.shape[0]), rng.standard_normal(A.shape[0])
    assert_close(plan.rhs(K, u, plan.obs_rhs_terms(A, r)), K.T @ u + A.T @ r, tol=1e-12)

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
    assert_close(sigma_quad_diag(sig, K, plan.kk), np.diag(Kd @ sigma @ Kd.T))
    for name, dK in op.dK.items():
        # every dK is stored on K's pattern, so K's row pairs serve it; a
        # diagonal of dK K^-1 may vanish (the bivariate rotation), so the
        # error is measured against the size of the products summed
        assert np.array_equal(dK.indptr, K.indptr) and np.array_equal(dK.indices, K.indices)
        dKd = dK.toarray()
        scale = np.max(np.abs(dKd) @ np.abs(sigma) @ np.abs(Kd).T)
        got = sigma_cross_quad_diag(sig, dK, K, plan.kk)
        assert_close(got, np.diag(dKd @ sigma @ Kd.T), scale=scale)
    if A.shape[0]:
        Ad = A.toarray()
        want = np.trace(Ad @ sigma @ Ad.T)
        assert abs(sigma_obs_quad_trace(sig, A, plan.aa) - want) <= 1e-10 * want


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
