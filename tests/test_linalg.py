"""The banded selected inverse against the dense inverse."""

import numpy as np
import pytest
from scipy import sparse

from nglatent._linalg import MIN_BLOCK, SpdFactor
from nglatent.errors import FactorizationError
from nglatent.mesh import build_interval_mesh
from nglatent.operators import ar1_operator, matern_operator, tensor_operator


def dense_band(Q, width):
    """out[d, i] = inv(Q)[i, i+d], zero past the last row."""
    sigma = np.linalg.inv(Q.toarray())
    n = sigma.shape[0]
    out = np.zeros((width + 1, n))
    for d in range(min(width, n - 1) + 1):
        out[d, : n - d] = np.diagonal(sigma, d)
    return out


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


@pytest.mark.parametrize("n", [2 * MIN_BLOCK, 2 * MIN_BLOCK + 7, MIN_BLOCK // 3])
def test_tridiagonal(n):
    assert_band_matches(tridiagonal(n), 1)


@pytest.mark.parametrize("width", [2, 5, MIN_BLOCK + 9])
def test_width_above_bandwidth(width):
    assert_band_matches(tridiagonal(3 * MIN_BLOCK + 5), width)


def test_tensor_bandwidth_above_block_floor():
    mesh = build_interval_mesh(np.linspace(0.0, 8.0, 32))
    K = tensor_operator(ar1_operator(0.7, 6), matern_operator(1.3, mesh)).K
    Q = sparse.csr_matrix(K.T @ K + 0.5 * sparse.identity(K.shape[0]))
    factor = SpdFactor(Q)
    assert factor.bandwidth > MIN_BLOCK
    assert_band_matches(Q, 2 * factor.bandwidth)


def test_not_positive_definite_raises():
    Q = tridiagonal(40)
    Q = sparse.csr_matrix(Q - 3.0 * sparse.identity(40))
    with pytest.raises(FactorizationError):
        SpdFactor(Q).sigma_band(1)
