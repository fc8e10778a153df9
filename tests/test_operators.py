import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from nglatent.errors import InputError, ParameterDomainError, ParameterLookupError
from nglatent.mesh import build_interval_mesh
from nglatent.operators import (
    advdiff_operator,
    ar1_operator,
    bivariate_operator,
    matern_operator,
    operator_dtheta,
    ou_operator,
    pin_operator,
    replicate_operator,
    rw_operator,
    tensor_operator,
)

MESH3 = build_interval_mesh([0.0, 1.0, 2.0])


def finite_difference_dK(op, name, step=1e-6):
    up = op.with_params({name: op.params[name] + step})
    dn = op.with_params({name: op.params[name] - step})
    return (up.K.toarray() - dn.K.toarray()) / (2 * step)


def assert_derivatives_match_fd(op, rtol=1e-5, step=1e-6):
    for name in op.params:
        fd = finite_difference_dK(op, name, step)
        an = op.dtheta(name).toarray()
        scale = max(np.abs(an).max(), 1.0)
        assert np.abs(fd - an).max() <= rtol * scale, name


def splu_logdet(K):
    lu = splu(sparse.csc_matrix(K))
    return np.sum(np.log(np.abs(lu.U.diagonal()))) + np.sum(
        np.log(np.abs(lu.L.diagonal()))
    )


class TestAr1:
    def test_zero_phi_is_identity(self):
        assert np.array_equal(ar1_operator(0.0, 3).K.toarray(), np.eye(3))

    def test_direct_entries(self):
        K = ar1_operator(0.8, 3).K.toarray()
        expected = np.array([[0.6, 0, 0], [-0.8, 1, 0], [0, -0.8, 1]])
        assert np.allclose(K, expected)

    def test_stationary_variance_dense_oracle(self):
        op = ar1_operator(0.8, 30)
        cov = np.linalg.inv((op.K.T @ op.K).toarray())
        assert cov[0, 0] == pytest.approx(1.0 / (1 - 0.64), rel=1e-10)
        # all marginal variances share the stationary value
        assert np.allclose(np.diag(cov), 1.0 / (1 - 0.64))

    def test_unit_weights(self):
        assert np.array_equal(ar1_operator(0.3, 5).h, np.ones(5))

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            ar1_operator(1.0, 3)

    def test_derivative_matches_fd(self):
        assert_derivatives_match_fd(ar1_operator(0.5, 6))


class TestRandomWalk:
    def test_first_difference(self):
        op = rw_operator(1, MESH3)
        assert np.array_equal(op.K.toarray(), [[-1, 1, 0], [0, -1, 1]])
        assert np.array_equal(op.h, [1.0, 1.0])

    def test_second_difference(self):
        op = rw_operator(2, build_interval_mesh([0.0, 1.0, 2.0, 3.0]))
        assert np.array_equal(op.K.toarray(), [[1, -2, 1, 0], [0, 1, -2, 1]])

    def test_kills_constants(self):
        op = rw_operator(1, build_interval_mesh([0.0, 0.4, 1.1, 3.0]))
        assert np.allclose(op.K @ np.full(4, 7.3), 0.0)

    def test_too_few_nodes(self):
        with pytest.raises(InputError):
            rw_operator(2, MESH3.__class__(np.array([0.0, 1.0]), np.array([0.5, 0.5])))

    def test_pinning_makes_invertible(self):
        op = pin_operator(rw_operator(1, MESH3))
        assert op.is_square
        assert abs(np.linalg.det(op.K.toarray())) == pytest.approx(1.0)
        assert op.h[-1] == 1.0


class TestOu:
    def test_large_theta_limit(self):
        K = ou_operator(200.0, MESH3).K.toarray()
        assert np.allclose(K, np.eye(3), atol=1e-12)

    def test_uniform_subdiagonal(self):
        K = ou_operator(1.0, MESH3).K.toarray()
        assert K[1, 0] == pytest.approx(-np.exp(-1.0))
        assert K[2, 1] == pytest.approx(-np.exp(-1.0))

    def test_nonuniform_rhos(self):
        op = ou_operator(1.0, build_interval_mesh([0.0, 0.5, 2.0]))
        K = op.K.toarray()
        assert K[1, 0] == pytest.approx(-np.exp(-0.5))
        assert K[2, 1] == pytest.approx(-np.exp(-1.5))
        assert np.allclose(op.h, [0.5, 0.5, 1.5])

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            ou_operator(0.0, MESH3)

    def test_derivative_matches_fd(self):
        assert_derivatives_match_fd(ou_operator(0.7, build_interval_mesh([0.0, 0.5, 2.0, 2.2])))


class TestMatern:
    def test_hand_assembly(self):
        op = matern_operator(1.0, MESH3)
        G = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.allclose(op.K.toarray(), np.diag([0.5, 1.0, 0.5]) + G)

    def test_large_kappa_white_noise_limit(self):
        kappa = 1e4
        op = matern_operator(kappa, MESH3)
        dev = np.abs(op.K.toarray() - kappa**2 * np.diag(op.h)).max()
        assert dev <= 1e-7 * kappa**2

    def test_derivative_exact(self):
        op = matern_operator(2.0, MESH3)
        assert np.allclose(op.dtheta("kappa").toarray(), 4.0 * np.diag(op.h))

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            matern_operator(-1.0, MESH3)


class TestTensor:
    def test_identity_kron_gives_blockdiag(self):
        ident = ar1_operator(0.0, 2)
        inner = matern_operator(1.0, MESH3)
        op = tensor_operator(ident, inner)
        expected = np.block(
            [
                [inner.K.toarray(), np.zeros((3, 3))],
                [np.zeros((3, 3)), inner.K.toarray()],
            ]
        )
        assert np.allclose(op.K.toarray(), expected)

    def test_mixed_product_inverse(self):
        kt = ar1_operator(0.6, 3)
        ks = matern_operator(1.3, MESH3)
        op = tensor_operator(kt, ks)
        inv = np.kron(np.linalg.inv(kt.K.toarray()), np.linalg.inv(ks.K.toarray()))
        assert np.allclose(op.K.toarray() @ inv, np.eye(9), atol=1e-10)

    def test_weights_kron(self):
        op = tensor_operator(ar1_operator(0.5, 2), matern_operator(1.0, MESH3))
        assert np.allclose(op.h, [0.5, 1, 0.5, 0.5, 1, 0.5])

    def test_rejects_rectangular(self):
        with pytest.raises(InputError):
            tensor_operator(rw_operator(1, MESH3), ar1_operator(0.5, 2))

    def test_derivatives_match_fd(self):
        op = tensor_operator(ar1_operator(0.4, 3), matern_operator(1.2, MESH3))
        assert_derivatives_match_fd(op)

    def test_second_order_separability(self):
        # dense Cov(W) of the Gaussian tensor model equals the Kronecker
        # product of the component covariances
        kt = ar1_operator(0.7, 4)
        ks = matern_operator(0.9, build_interval_mesh(np.linspace(0, 3, 8)))
        op = tensor_operator(kt, ks)
        Kd = op.K.toarray()
        cov = np.linalg.solve(Kd, np.diag(op.h) @ np.linalg.inv(Kd).T)
        cov_t = np.linalg.solve(kt.K.toarray(), np.diag(kt.h) @ np.linalg.inv(kt.K.toarray()).T)
        cov_s = np.linalg.solve(ks.K.toarray(), np.diag(ks.h) @ np.linalg.inv(ks.K.toarray()).T)
        kron = np.kron(cov_t, cov_s)
        assert np.abs(cov - kron).max() <= 1e-10 * np.abs(kron).max()


class TestBivariate:
    def test_identity_coupling(self):
        op1 = matern_operator(1.0, MESH3)
        op2 = matern_operator(2.0, MESH3)
        op = bivariate_operator(op1, op2, zeta=0.0, rho=0.0)
        expected = np.block(
            [
                [op1.K.toarray(), np.zeros((3, 3))],
                [np.zeros((3, 3)), op2.K.toarray()],
            ]
        )
        assert np.allclose(op.K.toarray(), expected)

    def test_quarter_turn(self):
        op1 = ar1_operator(0.0, 2)
        op2 = ar1_operator(0.0, 2)
        op = bivariate_operator(op1, op2, zeta=np.pi / 2, rho=0.0)
        D = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(op.K.toarray(), np.kron(D, np.eye(2)), atol=1e-15)

    def test_dependence_determinant_positive(self):
        from nglatent.operators import _dependence_matrix

        for zeta in np.linspace(0, 2 * np.pi, 17):
            for rho in (-3.0, -0.5, 0.0, 0.8, 4.0):
                D, _, _ = _dependence_matrix(zeta, rho)
                assert np.linalg.det(D) == pytest.approx(np.sqrt(1 + rho**2))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            bivariate_operator(ar1_operator(0.2, 2), ar1_operator(0.2, 3), 0.0, 0.0)

    def test_uncoupled_cross_covariance_is_zero(self):
        op1 = matern_operator(1.0, MESH3)
        op2 = matern_operator(2.0, MESH3)
        op = bivariate_operator(op1, op2, zeta=0.0, rho=0.0)
        d = op1.dim
        assert op.K[:d, d:].nnz == 0 and op.K[d:, :d].nnz == 0
        Kd = op.K.toarray()
        cov = np.linalg.solve(Kd, np.diag(op.h) @ np.linalg.inv(Kd).T)
        assert np.abs(cov[:d, d:]).max() < 1e-14

    def test_derivatives_match_fd(self):
        op = bivariate_operator(
            matern_operator(1.0, MESH3), matern_operator(2.0, MESH3), zeta=0.7, rho=-0.4
        )
        assert_derivatives_match_fd(op)


class TestReplicate:
    def test_single_replicate_unchanged(self):
        op = ar1_operator(0.5, 4)
        assert replicate_operator(op, 1) is op

    def test_block_diagonal(self):
        op0 = ar1_operator(0.5, 2)
        op = replicate_operator(op0, 2)
        expected = np.block(
            [
                [op0.K.toarray(), np.zeros((2, 2))],
                [np.zeros((2, 2)), op0.K.toarray()],
            ]
        )
        assert np.allclose(op.K.toarray(), expected)
        assert np.allclose(op.h, np.tile(op0.h, 2))

    def test_shared_derivative(self):
        op0 = ar1_operator(0.5, 3)
        op = replicate_operator(op0, 3)
        expected = np.kron(np.eye(3), op0.dtheta("phi").toarray())
        assert np.allclose(op.dtheta("phi").toarray(), expected)
        assert_derivatives_match_fd(op)


class TestAdvDiff:
    def test_blocks_hand_assembled(self):
        mesh = build_interval_mesh([0.0, 1.0])
        kappa, c = 1.3, 2.0
        op = advdiff_operator(kappa, 0.0, c, mesh, T=2)
        C = np.diag([0.5, 0.5])
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        L = kappa**2 * C + G
        ktt = np.sqrt(c) * C + L / np.sqrt(c)
        ksub = -np.sqrt(c) * C
        expected = np.block([[ktt, np.zeros((2, 2))], [ksub, ktt]])
        assert np.allclose(op.K.toarray(), expected)

    def test_two_block_bands(self):
        mesh = build_interval_mesh(np.linspace(0, 1, 5))
        T, n = 4, 5
        op = advdiff_operator(1.0, 0.5, 1.5, mesh, T)
        ktt_nnz = advdiff_operator(1.0, 0.5, 1.5, mesh, 2).K[:n, :n].nnz
        assert op.K.nnz <= T * ktt_nnz + (T - 1) * n

    def test_persistence_cancellation(self):
        # the sqrt(c) C parts of the diagonal and sub-diagonal blocks cancel:
        # K_tt + K_{t,t-1} = L / sqrt(c)
        mesh = build_interval_mesh([0.0, 0.5, 2.0])
        kappa, gamma, c = 0.8, 0.3, 1.7
        op = advdiff_operator(kappa, gamma, c, mesh, T=3)
        n = 3
        ktt = op.K[n : 2 * n, n : 2 * n].toarray()
        ksub = op.K[n : 2 * n, :n].toarray()
        from nglatent.mesh import fem_matrices

        fm = fem_matrices(mesh, advection=gamma)
        L = kappa**2 * fm.C_lumped.toarray() + fm.G.toarray() + fm.B.toarray()
        assert np.allclose(ktt + ksub, L / np.sqrt(c))

    def test_weights_tiled(self):
        mesh = build_interval_mesh([0.0, 1.0, 2.0])
        op = advdiff_operator(1.0, 0.0, 1.0, mesh, T=2)
        assert np.allclose(op.h, np.tile(mesh.weights, 2))

    def test_derivatives_match_fd(self):
        mesh = build_interval_mesh([0.0, 0.4, 1.0, 1.5])
        op = advdiff_operator(0.9, -0.6, 1.4, mesh, T=3)
        assert_derivatives_match_fd(op, step=1e-6, rtol=2e-5)

    def test_domain(self):
        mesh = build_interval_mesh([0.0, 1.0])
        with pytest.raises(ParameterDomainError):
            advdiff_operator(0.0, 0.0, 1.0, mesh, T=2)
        with pytest.raises(ParameterDomainError):
            advdiff_operator(1.0, 0.0, -1.0, mesh, T=2)


@pytest.mark.parametrize(
    "make, params",
    [
        (lambda mesh, p: matern_operator(p["kappa"], mesh), {"kappa": 2.0}),
        (
            lambda mesh, p: advdiff_operator(p["kappa"], p["gamma"], p["c"], mesh, T=3),
            {"kappa": 0.7, "gamma": -0.2, "c": 2.0},
        ),
    ],
)
def test_fem_matrices_assembled_once_per_operator(monkeypatch, make, params):
    import nglatent.operators as operators

    calls = []
    fem = operators.fem_matrices
    monkeypatch.setattr(operators, "fem_matrices", lambda *a, **k: calls.append(a) or fem(*a, **k))
    mesh = build_interval_mesh([0.0, 0.5, 1.5, 2.0])
    op = make(mesh, {"kappa": 1.0, "gamma": 0.3, "c": 1.2})
    rebuilt = op.with_params(params).with_params(params)
    assert len(calls) == 1
    fresh = make(mesh, params)
    assert np.array_equal(rebuilt.K.toarray(), fresh.K.toarray())
    for name in fresh.dK:
        assert np.array_equal(rebuilt.dK[name].toarray(), fresh.dK[name].toarray())


class TestOperatorDtheta:
    def test_ar1_fd_oracle(self):
        op = ar1_operator(0.5, 5)
        fd = finite_difference_dK(op, "phi")
        assert np.abs(fd - op.dtheta("phi").toarray()).max() < 1e-6

    def test_matern_exact(self):
        op = matern_operator(1.0, MESH3)
        assert np.allclose(
            operator_dtheta(op, "kappa").toarray(), 2.0 * np.diag(op.h)
        )

    def test_tensor_product_rule(self):
        op = tensor_operator(ar1_operator(0.3, 3), matern_operator(1.1, MESH3))
        for name in op.params:
            fd = finite_difference_dK(op, name)
            assert np.abs(fd - op.dtheta(name).toarray()).max() < 1e-5

    def test_unknown_parameter(self):
        with pytest.raises(ParameterLookupError):
            operator_dtheta(ar1_operator(0.5, 3), "nope")


@pytest.mark.parametrize(
    "op",
    [
        ar1_operator(0.8, 20),
        ou_operator(0.9, build_interval_mesh(np.linspace(0, 4, 20))),
        matern_operator(1.4, build_interval_mesh(np.linspace(0, 4, 20))),
        # cond(K) = 1e6: kappa^2 C is tiny next to G
        pytest.param(
            matern_operator(0.02, build_interval_mesh(np.linspace(0, 4, 41))),
            id="matern-kappa0.02",
        ),
        tensor_operator(ar1_operator(0.5, 4), matern_operator(1.0, build_interval_mesh(np.linspace(0, 2, 5)))),
        bivariate_operator(
            matern_operator(1.0, build_interval_mesh(np.linspace(0, 2, 10))),
            matern_operator(2.0, build_interval_mesh(np.linspace(0, 2, 10))),
            zeta=0.6,
            rho=0.9,
        ),
        replicate_operator(ar1_operator(0.4, 10), 2),
        advdiff_operator(1.0, 0.4, 1.2, build_interval_mesh(np.linspace(0, 1, 5)), T=4),
        pin_operator(rw_operator(1, build_interval_mesh(np.linspace(0, 5, 21)))),
    ],
    ids=lambda op: op.kind,
)
class TestSquareOperatorInvariants:
    def test_gram_factorization_and_logdet(self, op):
        gram = (op.K.T @ op.K).toarray()
        np.linalg.cholesky(gram)  # raises if not positive definite
        _, dense_logdet = np.linalg.slogdet(op.K.toarray())
        assert splu_logdet(op.K) == pytest.approx(dense_logdet, rel=1e-8)
        # the operator's own log-det and its gradient tr(K^-1 dK)
        logdet, traces = op.logdet_grad()
        dense_traces = {
            name: np.trace(np.linalg.solve(op.K.toarray(), d.toarray()))
            for name, d in op.dK.items()
        }
        assert logdet == pytest.approx(dense_logdet, rel=1e-10, abs=1e-10)
        assert traces == pytest.approx(dense_traces, rel=1e-10, abs=1e-10)

    def test_dK_pattern_within_K(self, op):
        rows_k, cols_k = op.K.nonzero()
        pattern = set(zip(rows_k.tolist(), cols_k.tolist()))
        for name, d in op.dK.items():
            dcoo = d.tocoo()
            for i, j, v in zip(dcoo.row, dcoo.col, dcoo.data):
                if v != 0.0:
                    assert (int(i), int(j)) in pattern, (name, i, j)
