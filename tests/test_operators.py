import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from nglatent._linalg import SpdFactor
from nglatent.distributions import NoiseSpec, gh_noise_sample
from nglatent.errors import InputError, ParameterDomainError, ParameterLookupError
from nglatent.inference import FitOptions, map_fit
from nglatent.mesh import build_interval_mesh
from nglatent.model import assemble_model, simulate
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
        # the coupling blocks stay stored, as zeros
        assert op.K[:d, d:].count_nonzero() == 0 and op.K[d:, :d].count_nonzero() == 0
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
    dense = {
        "matern": lambda p: dense_matern(p["kappa"], mesh),
        "advdiff": lambda p: dense_advdiff(p["kappa"], p["gamma"], p["c"], mesh, T=3),
    }
    assert_matches_dense(rebuilt, *dense[rebuilt.kind](params))


# ---------------------------------------------------------------------------
# Dense oracles: every kind built independently in numpy
# ---------------------------------------------------------------------------


def dense_fem(mesh):
    """Lumped mass C, stiffness G and unit advection B of the hat basis,
    summed element by element."""
    x = mesh.nodes
    n = x.size
    C, G, B = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for j in range(n - 1):
        length = x[j + 1] - x[j]
        e = np.ix_([j, j + 1], [j, j + 1])
        C[e] += np.diag([length / 2.0, length / 2.0])
        G[e] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / length
        B[e] += np.array([[-0.5, 0.5], [-0.5, 0.5]])
    return C, G, B


def dense_ar1(phi, T):
    root = np.sqrt(1.0 - phi**2)
    K = np.eye(T) - phi * np.eye(T, k=-1)
    K[0, 0] = root
    dK = -np.eye(T, k=-1)
    dK[0, 0] = -phi / root
    return K, {"phi": dK}


def dense_ou(theta, mesh):
    dx = np.diff(mesh.nodes)
    rho = np.exp(-theta * dx)
    root = np.sqrt(1.0 - rho[0] ** 2)
    K = np.eye(mesh.n) - np.diag(rho, -1)
    K[0, 0] = root
    dK = np.diag(dx * rho, -1)
    dK[0, 0] = rho[0] ** 2 * dx[0] / root
    return K, {"theta": dK}


def dense_rw(order, mesh, pin=None):
    """Difference rows [-1, 1] or [1, -2, 1], and a unit row at ``pin``."""
    n = mesh.n
    stencil = [-1.0, 1.0] if order == 1 else [1.0, -2.0, 1.0]
    K = sum(w * np.eye(n - order, n, k=j) for j, w in enumerate(stencil))
    if pin is not None:
        K = np.vstack([K, np.eye(1, n, k=pin)])
    return K, {}


def dense_matern(kappa, mesh):
    C, G, _ = dense_fem(mesh)
    return kappa**2 * C + G, {"kappa": 2.0 * kappa * C}


def dense_tensor(outer, inner):
    (K_o, dK_o), (K_i, dK_i) = outer, inner
    dK = {f"outer.{k}": np.kron(d, K_i) for k, d in dK_o.items()}
    dK.update({f"inner.{k}": np.kron(K_o, d) for k, d in dK_i.items()})
    return np.kron(K_o, K_i), dK


def dense_bivariate(first, second, zeta, rho):
    """(D (x) I_d) blockdiag(K_1, K_2), D a rotation by zeta with a
    correlation-like rho, and its derivatives by the product rule."""
    (K1, dK1), (K2, dK2) = first, second
    d = K1.shape[0]
    c, s, r = np.cos(zeta), np.sin(zeta), np.sqrt(1.0 + rho**2)
    D = np.array([[c + rho * s, -s * r], [s - rho * c, c * r]])
    D_zeta = np.array([[-s + rho * c, -c * r], [c + rho * s, -s * r]])
    D_rho = np.array([[s, -s * rho / r], [-c, c * rho / r]])
    zero = np.zeros((d, d))

    def mix(M, X1, X2):
        return np.kron(M, np.eye(d)) @ np.block([[X1, zero], [zero, X2]])

    dK = {f"k1.{k}": mix(D, x, zero) for k, x in dK1.items()}
    dK.update({f"k2.{k}": mix(D, zero, x) for k, x in dK2.items()})
    dK.update(zeta=mix(D_zeta, K1, K2), rho=mix(D_rho, K1, K2))
    return mix(D, K1, K2), dK


def dense_replicate(part, R):
    K, dK = part
    return np.kron(np.eye(R), K), {k: np.kron(np.eye(R), d) for k, d in dK.items()}


def dense_advdiff(kappa, gamma, c, mesh, T):
    C, G, B = dense_fem(mesh)
    rc = np.sqrt(c)
    L = kappa**2 * C + G + gamma * B
    now, before = np.eye(T), np.eye(T, k=-1)
    K = np.kron(now, rc * C + L / rc) + np.kron(before, -rc * C)
    dK = {
        "kappa": np.kron(now, 2.0 * kappa * C / rc),
        "gamma": np.kron(now, B / rc),
        "c": np.kron(now, C / (2.0 * rc) - L / (2.0 * c * rc)) + np.kron(before, -C / (2.0 * rc)),
    }
    return K, dK


def assert_matches_dense(op, K, dK, rtol=1e-14):
    def close(got, want):
        return np.max(np.abs(got.toarray() - want)) <= rtol * np.max(np.abs(want))

    assert close(op.K, K)
    assert op.dK.keys() == dK.keys()
    for name, want in dK.items():
        assert close(op.dK[name], want), name


MESH6 = build_interval_mesh([0.0, 0.3, 1.0, 1.8, 2.0, 3.1])

# kind: (build at params, dense (K, dK) at params, parameter points).  The
# points include the values that zero stored entries (phi = 0, zeta = rho =
# 0, gamma = 0) and a zeta outside [0, 2pi], which only a parameter update
# can reach: the constructor refuses it.
CASES = {
    "ar1": (
        lambda p: ar1_operator(p["phi"], 7),
        lambda p: dense_ar1(p["phi"], 7),
        [{"phi": 0.6}, {"phi": 0.0}, {"phi": -0.95}],
    ),
    "ou": (
        lambda p: ou_operator(p["theta"], MESH6),
        lambda p: dense_ou(p["theta"], MESH6),
        [{"theta": 0.8}, {"theta": 3.0}],
    ),
    "rw1": (lambda p: rw_operator(1, MESH6), lambda p: dense_rw(1, MESH6), [{}]),
    "rw2": (lambda p: rw_operator(2, MESH6), lambda p: dense_rw(2, MESH6), [{}]),
    "pinned-rw1": (
        lambda p: pin_operator(rw_operator(1, MESH6), node=2),
        lambda p: dense_rw(1, MESH6, pin=2),
        [{}],
    ),
    "matern": (
        lambda p: matern_operator(p["kappa"], MESH6),
        lambda p: dense_matern(p["kappa"], MESH6),
        [{"kappa": 1.3}, {"kappa": 0.05}],
    ),
    "tensor": (
        lambda p: tensor_operator(
            ar1_operator(p["outer.phi"], 4), matern_operator(p["inner.kappa"], MESH6)
        ),
        lambda p: dense_tensor(dense_ar1(p["outer.phi"], 4), dense_matern(p["inner.kappa"], MESH6)),
        [{"outer.phi": 0.5, "inner.kappa": 1.1}, {"outer.phi": 0.0, "inner.kappa": 2.0}],
    ),
    "bivariate": (
        lambda p: bivariate_operator(
            matern_operator(p["k1.kappa"], MESH6),
            ou_operator(p["k2.theta"], MESH6),
            p["zeta"],
            p["rho"],
        ),
        lambda p: dense_bivariate(
            dense_matern(p["k1.kappa"], MESH6), dense_ou(p["k2.theta"], MESH6), p["zeta"], p["rho"]
        ),
        [
            {"k1.kappa": 0.9, "k2.theta": 1.7, "zeta": 2.5, "rho": 0.5},
            {"k1.kappa": 0.9, "k2.theta": 1.7, "zeta": 0.0, "rho": 0.0},
            {"k1.kappa": 1.4, "k2.theta": 0.6, "zeta": 7.0, "rho": -1.2},
            {"k1.kappa": 1.4, "k2.theta": 0.6, "zeta": -0.5, "rho": 0.0},
        ],
    ),
    "replicate": (
        lambda p: replicate_operator(ar1_operator(p["phi"], 5), 3),
        lambda p: dense_replicate(dense_ar1(p["phi"], 5), 3),
        [{"phi": 0.4}, {"phi": 0.0}],
    ),
    "advdiff": (
        lambda p: advdiff_operator(p["kappa"], p["gamma"], p["c"], MESH6, T=4),
        lambda p: dense_advdiff(p["kappa"], p["gamma"], p["c"], MESH6, T=4),
        [{"kappa": 1.2, "gamma": 0.4, "c": 0.8}, {"kappa": 0.5, "gamma": 0.0, "c": 2.0}],
    ),
}


@pytest.mark.parametrize("kind", list(CASES))
def test_matches_dense_oracle(kind):
    make, dense, points = CASES[kind]
    op = make(points[0])
    for p in points:
        wrapped = {**p, "zeta": np.mod(p["zeta"], 2.0 * np.pi)} if "zeta" in p else p
        updated = op.with_params(p)
        assert updated.params == wrapped
        assert_matches_dense(updated, *dense(p))
        if 0.0 <= p.get("zeta", 0.0) <= 2.0 * np.pi:
            fresh = make(p)
            assert fresh.params == wrapped
            assert_matches_dense(fresh, *dense(p))
        else:
            with pytest.raises(ParameterDomainError):
                make(p)


def random_point(names, rng):
    """A parameter point inside each parameter's domain."""
    draw = {
        "phi": lambda: rng.uniform(-0.95, 0.95),
        "zeta": lambda: rng.uniform(0.0, 2.0 * np.pi),
        "rho": rng.standard_normal,
        "gamma": rng.standard_normal,
    }
    return {n: float(draw.get(n.split(".")[-1], lambda: np.exp(rng.normal()))()) for n in names}


@pytest.mark.parametrize("kind", list(CASES))
def test_dK_zero_outside_its_support(kind):
    # each dK's support is fixed at construction; at any parameter value,
    # zeros by value included (phi = 0, zeta = rho = 0), no entry outside
    # it is nonzero
    # (a parameter not listed may touch every entry)
    make, _, points = CASES[kind]
    op = make(points[0])
    unrestricted = {"bivariate": {"zeta", "rho"}, "advdiff": {"kappa", "gamma", "c"}}
    assert op.dK_support.keys() == op.params.keys() - unrestricted.get(kind, set())
    rng = np.random.default_rng(12)
    for p in points + [random_point(op.params, rng) for _ in range(5)]:
        updated = op.with_params(p)
        for name, support in updated.dK_support.items():
            dK = updated.dK[name]
            assert np.unique(support).size == support.size
            assert np.all((0 <= support) & (support < dK.nnz))
            outside = np.ones(dK.nnz, dtype=bool)
            outside[support] = False
            assert np.all(dK.data[outside] == 0.0), (name, p)


def upper_band(K):
    """K's upper band in 'ab' storage, ab[w + i - j, j] = K[i, j], copied
    diagonal by diagonal from the dense K, w the widest stored entry."""
    coo = K.tocoo()
    w = int(np.max(np.abs(coo.row - coo.col)))
    dense = K.toarray()
    ab = np.zeros((w + 1, K.shape[1]))
    for d in range(w + 1):
        ab[w - d, d:] = np.diagonal(dense, d)
    return ab


def matern_reference(op):
    """log|det K| and tr(K^-1 dK) of a Matern operator from a banded
    Cholesky of K's band, copied from the dense K."""
    factor = SpdFactor(upper_band(op.K))
    trace = op.dK["kappa"].diagonal() @ factor.sigma_band(0).diagonal()
    return factor.logdet(), {"kappa": float(trace)}


@pytest.mark.parametrize("d", [2, 3, 300])
@pytest.mark.parametrize("spacing", ["regular", "irregular"])
def test_matern_logdet_from_band_map_is_exact(d, spacing):
    # the band map lays K's data into K's band, so the operator and every
    # composition of it take the values of factoring that band, copied
    # here from the dense K, bit for bit
    rng = np.random.default_rng(d)
    gaps = np.ones(d - 1) if spacing == "regular" else rng.uniform(0.05, 1.0, d - 1)
    mesh = build_interval_mesh(np.concatenate([[0.0], np.cumsum(gaps)]))
    for kappa in (0.02, 0.7, 3.0):
        op = matern_operator(kappa, mesh)
        other = matern_operator(1.5 * kappa, mesh)
        (ld, tr), (ld2, tr2) = matern_reference(op), matern_reference(other)
        assert op.logdet_grad() == (ld, tr)
        ld_t, tr_t = tensor_operator(ar1_operator(0.4, 3), op).logdet_grad()
        ld_o, tr_o = ar1_operator(0.4, 3).logdet_grad()
        assert ld_t == d * ld_o + 3 * ld
        assert tr_t["inner.kappa"] == 3 * tr["kappa"]
        rho = 0.8
        ld_b, tr_b = bivariate_operator(op, other, 1.0, rho).logdet_grad()
        assert ld_b == d * 0.5 * np.log1p(rho**2) + ld + ld2
        assert (tr_b["k1.kappa"], tr_b["k2.kappa"]) == (tr["kappa"], tr2["kappa"])
        assert replicate_operator(op, 2).logdet_grad() == (2 * ld, {"kappa": 2 * tr["kappa"]})


@pytest.mark.parametrize("kind", list(CASES))
def test_parameter_update_assembles_no_matrix(monkeypatch, kind):
    # K and every dK keep the pattern built at construction: an update (and
    # a whole fit) refills data, never calls a sparse constructor or the
    # FEM assembly, and the model plans once
    import nglatent.model as model_module
    import nglatent.operators as operators

    make, _, points = CASES[kind]
    op = make(points[0])

    def refuse(*args, **kwargs):
        raise AssertionError("sparse assembly after construction")

    for name in ("kron", "diags", "bmat", "block_diag", "vstack"):
        monkeypatch.setattr(sparse, name, refuse)
    monkeypatch.setattr(operators, "fem_matrices", refuse)
    plans = []

    class CountedPlan(model_module.StructurePlan):
        def __init__(self, *args):
            plans.append(args)
            super().__init__(*args)

    monkeypatch.setattr(model_module, "StructurePlan", CountedPlan)
    for p in points:
        updated = op.with_params(p)
        for M in (updated.K, *updated.dK.values()):
            assert np.shares_memory(M.indices, op.K.indices)
            assert np.shares_memory(M.indptr, op.K.indptr)
        if updated.is_square:
            updated.logdet_grad()
    if not op.is_square:
        return
    model = assemble_model(
        A=sparse.identity(op.dim, format="csr"),
        X=np.zeros((op.dim, 0)),
        op=op,
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
    )
    Y = np.random.default_rng(2).standard_normal(op.dim)
    opts = FitOptions(chains=2, max_iters=4, min_iters=4, k=1, checkpoint_every=2, sgld_samples=2)
    map_fit(model, Y, opts)
    assert len(plans) == 1


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


SOLVE_MESH = build_interval_mesh(np.cumsum(np.r_[0.0, np.linspace(0.4, 1.2, 13)]))

# every kind of operator solve: triangular band, SPD band, both tensor
# orders, the bivariate mixing, replicates of a tensor, the pinned walk at
# its first, an interior and its last node, and the block substitution
SOLVE_CASES = {
    "ar1": lambda: ar1_operator(0.8, 500),
    "ou": lambda: ou_operator(0.9, SOLVE_MESH),
    "matern": lambda: matern_operator(1.3, SOLVE_MESH),
    "tensor": lambda: tensor_operator(ar1_operator(0.6, 4), matern_operator(1.1, MESH6)),
    "tensor-reversed": lambda: tensor_operator(
        matern_operator(1.1, MESH6), ou_operator(0.6, SOLVE_MESH)
    ),
    "bivariate": lambda: bivariate_operator(
        matern_operator(0.9, SOLVE_MESH), ou_operator(1.7, SOLVE_MESH), 2.5, 0.5
    ),
    "replicate-tensor": lambda: replicate_operator(
        tensor_operator(ar1_operator(0.6, 4), matern_operator(1.1, MESH6)), 3
    ),
    "pinned-rw1-first": lambda: pin_operator(rw_operator(1, SOLVE_MESH), node=0),
    "pinned-rw1-interior": lambda: pin_operator(rw_operator(1, SOLVE_MESH), node=7),
    "pinned-rw1-last": lambda: pin_operator(rw_operator(1, SOLVE_MESH), node=SOLVE_MESH.n - 1),
    "advdiff": lambda: advdiff_operator(1.2, 0.4, 0.8, MESH6, T=4),
}


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kind", list(SOLVE_CASES))
def test_solve_matches_dense_solve(kind):
    op = SOLVE_CASES[kind]()
    rng = np.random.default_rng(5)
    for b in (rng.standard_normal(op.dim), rng.standard_normal((op.dim, 3))):
        x = op.solve(b)
        assert x.shape == b.shape
        assert relative_error(x, np.linalg.solve(op.K.toarray(), b)) <= 1e-12


@pytest.mark.parametrize("kind", list(SOLVE_CASES))
def test_simulate_matches_sparse_lu(kind):
    # simulate solves K W = eps_W through the operator; a sparse LU of K,
    # fed the same noise draws, is the oracle
    op = SOLVE_CASES[kind]()
    model = assemble_model(
        A=sparse.identity(op.dim, format="csr"),
        X=np.ones((op.dim, 1)),
        op=op,
        noise_w=NoiseSpec("nig", sigma=1.0, mu=0.5, nu=1.0),
        noise_y=NoiseSpec("gaussian", sigma=0.5),
        beta=np.array([0.3]),
    )
    Y, state = simulate(model, rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    eps_w, v_w = gh_noise_sample(rng, model.noise_w)
    W = splu(sparse.csc_matrix(model.op.K)).solve(eps_w)
    eps_y, _ = gh_noise_sample(rng, model.noise_y)
    assert np.array_equal(state.V_W, v_w)
    assert relative_error(state.W, W) <= 1e-12
    assert relative_error(Y, W + 0.3 + eps_y) <= 1e-12


@pytest.mark.parametrize("kind", list(CASES))
def test_parameter_update_factors_nothing(monkeypatch, kind):
    # a factor is built when the solve or the log-determinant is called,
    # never by with_params, so a model update costs no factorization
    import nglatent.operators as operators

    def refuse(*args, **kwargs):
        raise AssertionError("factorization in a parameter update")

    make, _, points = CASES[kind]
    op = make(points[0])
    for name in ("SpdFactor", "dgbtrf", "dtbtrs"):
        monkeypatch.setattr(operators, name, refuse)
    for p in points:
        op.with_params(p)


@pytest.mark.parametrize(
    "factorization, make, points",
    [
        ("dgbtrf", lambda: advdiff_operator(1.2, 0.4, 0.8, MESH6, T=4),
         ({"kappa": 0.7}, {"gamma": -0.3, "c": 1.5})),
        ("SpdFactor", lambda: matern_operator(1.3, MESH6), ({"kappa": 0.7}, {"kappa": 2.0})),
    ],
)
def test_one_factor_per_parameter_value(monkeypatch, factorization, make, points):
    # one factor of K (advection-diffusion: of its diagonal block K_tt)
    # serves the solve, log|det K| and the traces at a parameter value
    import nglatent.operators as operators

    calls = []
    build = getattr(operators, factorization)
    monkeypatch.setattr(operators, factorization, lambda *a: calls.append(a) or build(*a))
    op = make()
    for p in points:
        updated = op.with_params(p)
        updated.solve(np.ones(op.dim))
        updated.logdet_grad()
        updated.solve(np.ones((op.dim, 2)))
        updated.logdet_grad()
    assert len(calls) == len(points)


class TestPin:
    @pytest.mark.parametrize("node", [0, 2, MESH6.n - 1])
    def test_unit_determinant(self, node):
        # K is totally unimodular: |det K| = 1 exactly, and a walk has no
        # parameters to differentiate
        op = pin_operator(rw_operator(1, MESH6), node=node)
        assert op.logdet_grad() == (0.0, {})
        assert np.linalg.slogdet(op.K.toarray())[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "op",
        [
            rw_operator(2, MESH6),
            ar1_operator(0.5, 6),
            matern_operator(1.0, MESH6),
            pin_operator(rw_operator(1, MESH6)),
        ],
        ids=lambda op: op.kind,
    )
    def test_refuses_all_but_an_order_one_walk(self, op):
        with pytest.raises(InputError, match="order-1 random walk"):
            pin_operator(op)

    def test_node_outside_the_walk(self):
        with pytest.raises(InputError, match="pin node"):
            pin_operator(rw_operator(1, MESH6), node=MESH6.n)


def test_solve_refuses_a_mismatched_right_hand_side():
    op = ar1_operator(0.5, 6)
    for b in (np.ones(5), np.ones((6, 2, 1))):
        with pytest.raises(InputError, match="right-hand side"):
            op.solve(b)
