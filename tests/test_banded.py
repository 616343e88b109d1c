import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
import hypothesis.strategies as st

from trendkit.banded import (
    BandedSymMatrix,
    band_solve,
    diff_operator,
    gram_banded,
    hp_banded,
    hp_solve,
    interleave,
    tc_gram_banded,
)
from trendkit.errors import NotPositiveDefiniteError

from oracles import dense_banded, dense_diff


def test_diff_operator_shapes_and_validation():
    op = diff_operator(2, 10)
    assert op.rows == 8
    assert diff_operator(1, 5).rows == 4
    with pytest.raises(ValueError):
        diff_operator(2, 2)
    with pytest.raises(ValueError):
        diff_operator(1, 1)
    with pytest.raises(ValueError):
        diff_operator(3, 10)


def test_second_difference_of_affine_is_zero():
    op = diff_operator(2, 5)
    np.testing.assert_array_equal(op.apply(np.array([1.0, 2, 3, 4, 5])), np.zeros(3))


def test_first_difference_of_constant_is_zero():
    op = diff_operator(1, 3)
    np.testing.assert_array_equal(op.apply(np.array([3.0, 3, 3])), np.zeros(2))


def test_stencil_expansion_on_unit_spike():
    op = diff_operator(2, 5)
    np.testing.assert_array_equal(
        op.apply(np.array([0.0, 0, 1, 0, 0])), np.array([1.0, -2.0, 1.0])
    )


def test_apply_direct_stencils():
    assert list(diff_operator(1, 3).apply(np.array([0.0, 1, 3]))) == [1.0, 2.0]
    assert list(diff_operator(2, 3).apply(np.array([0.0, 1, 4]))) == [2.0]
    t_sq = np.arange(5.0) ** 2
    np.testing.assert_array_equal(diff_operator(2, 5).apply(t_sq), np.full(3, 2.0))


def test_apply_dimension_mismatch():
    op = diff_operator(1, 4)
    with pytest.raises(ValueError):
        op.apply(np.zeros(5))
    with pytest.raises(ValueError):
        op.apply_transpose(np.zeros(4))


def test_transpose_rows():
    np.testing.assert_array_equal(
        diff_operator(1, 3).apply_transpose(np.array([1.0, 0])),
        np.array([-1.0, 1.0, 0.0]),
    )
    np.testing.assert_array_equal(
        diff_operator(2, 3).apply_transpose(np.array([1.0])),
        np.array([1.0, -2.0, 1.0]),
    )


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=3, max_value=200),
    st.integers(min_value=1, max_value=2),
    st.randoms(use_true_random=False),
)
def test_adjoint_identity(n, order, rnd):
    op = diff_operator(order, n)
    rng = np.random.default_rng(rnd.getrandbits(32))
    v = rng.normal(size=n)
    u = rng.normal(size=op.rows)
    assert abs(op.apply(v) @ u - v @ op.apply_transpose(u)) <= 1e-12 * (
        1 + abs(v @ op.apply_transpose(u))
    )


def test_null_space_is_exact_for_integer_inputs():
    const = np.full(20, 7.0)
    assert np.all(diff_operator(1, 20).apply(const) == 0.0)
    affine = 3.0 * np.arange(20) - 5.0
    assert np.all(diff_operator(2, 20).apply(affine) == 0.0)


def test_gram_order1_n3():
    G = gram_banded(diff_operator(1, 3))
    np.testing.assert_array_equal(dense_banded(G), np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_gram_order2_n5_pentadiagonal():
    G = gram_banded(diff_operator(2, 5))
    expected = np.array([
        [6.0, -4.0, 1.0],
        [-4.0, 6.0, -4.0],
        [1.0, -4.0, 6.0],
    ])
    np.testing.assert_array_equal(dense_banded(G), expected)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 7, 15, 30])
def test_gram_matches_dense_product(order, n):
    if n <= order:
        pytest.skip("operator undefined")
    D = dense_diff(order, n)
    G = gram_banded(diff_operator(order, n))
    np.testing.assert_allclose(dense_banded(G), D @ D.T, atol=1e-14)


def test_gram_is_symmetric():
    for order in (1, 2):
        G = dense_banded(gram_banded(diff_operator(order, 12)))
        np.testing.assert_array_equal(G, G.T)


def _assert_zero_padding(A):
    for k in range(1, A.bandwidth + 1):
        assert np.all(A.bands[k, A.n - k:] == 0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("lam", [0.3, 1.0, 7.5, 1600.0, 1e5])
def test_hp_bands_match_dense_system(order, lam):
    for n in range(order + 1, 9):
        D = dense_diff(order, n)
        A = hp_banded(diff_operator(order, n), lam)
        assert A.bandwidth == order
        _assert_zero_padding(A)
        assert np.array_equal(dense_banded(A), np.eye(n) + 2.0 * lam * (D.T @ D))


def _dense_interleaved_stack(n):
    """First difference at i, then second difference at i, for i = 0, 1, ..."""
    D1, D2 = dense_diff(1, n), dense_diff(2, n)
    rows = []
    for i in range(n - 1):
        rows.append(D1[i])
        if i < n - 2:
            rows.append(D2[i])
    return np.array(rows)


@pytest.mark.parametrize("n", range(3, 9))
def test_tc_system_matches_dense_interleaved_stack(n):
    B = _dense_interleaved_stack(n)
    G = tc_gram_banded(n)
    assert G.bandwidth == min(4, 2 * n - 4)
    _assert_zero_padding(G)
    assert np.array_equal(dense_banded(G), B @ B.T)
    # integer data: every product and partial sum is exact in any order
    y = np.random.default_rng(n).integers(-50, 50, size=n).astype(float)
    rhs = interleave(diff_operator(1, n).apply(y), diff_operator(2, n).apply(y))
    assert np.array_equal(rhs, B @ y)


def test_band_solve_identity():
    A = BandedSymMatrix(2, 0, np.ones((1, 2)))
    np.testing.assert_array_equal(band_solve(A, np.array([4.0, 5.0])), [4.0, 5.0])


def test_band_solve_tridiagonal_frozen():
    A = BandedSymMatrix(3, 1, np.array([[2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]]))
    np.testing.assert_allclose(
        band_solve(A, np.array([1.0, 0.0, 0.0])), [0.75, 0.5, 0.25], atol=1e-14
    )


def test_band_solve_residual_on_gram_system():
    rng = np.random.default_rng(3)
    A = gram_banded(diff_operator(2, 200))
    b = rng.normal(size=198)
    x = band_solve(A, b)
    assert np.max(np.abs(A.matvec(x) - b)) < 1e-10 * (1 + np.max(np.abs(b)))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=50),
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
def test_band_solve_matches_dense_solver(n, bandwidth, rnd):
    bandwidth = min(bandwidth, n - 1)
    rng = np.random.default_rng(rnd.getrandbits(32))
    bands = np.zeros((bandwidth + 1, n))
    for k in range(1, bandwidth + 1):
        bands[k, : n - k] = rng.normal(size=n - k)
    # diagonal dominance guarantees positive definiteness
    bands[0] = np.abs(rng.normal(size=n)) + 2.0 * (bandwidth + 1) + np.abs(bands[1:]).sum(axis=0)
    A = BandedSymMatrix(n, bandwidth, bands)
    b = rng.normal(size=n)
    x = band_solve(A, b)
    x_dense = np.linalg.solve(dense_banded(A), b)
    np.testing.assert_allclose(x, x_dense, rtol=1e-9, atol=1e-12)


def test_band_solve_rejects_indefinite():
    A = BandedSymMatrix(2, 0, np.array([[1.0, -1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        band_solve(A, np.array([1.0, 1.0]))


def _random_spd_bands(rng, n, bandwidth):
    bands = np.zeros((bandwidth + 1, n))
    for k in range(1, bandwidth + 1):
        bands[k, : n - k] = rng.normal(size=n - k)
    bands[0] = np.abs(rng.normal(size=n)) + 2.0 * (bandwidth + 1) + np.abs(bands[1:]).sum(axis=0)
    return BandedSymMatrix(n, bandwidth, bands)


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 4])
def test_band_solve_is_bitwise_solveh_banded(bandwidth):
    rng = np.random.default_rng(bandwidth)
    for n in (bandwidth + 1, bandwidth + 2, 17, 400, 2080):
        A = _random_spd_bands(rng, n, bandwidth)
        b = rng.normal(size=n)
        assert np.array_equal(band_solve(A, b), scipy.linalg.solveh_banded(A.bands, b, lower=True))


@pytest.mark.parametrize("bandwidth", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_solve_rejects_nonfinite_input(bandwidth, bad):
    A = _random_spd_bands(np.random.default_rng(1), 6, bandwidth)
    b = np.ones(6)
    b[3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        band_solve(A, b)
    A.bands[0, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        band_solve(A, np.ones(6))


@pytest.mark.parametrize("bandwidth", [1, 2])
def test_band_solve_rejects_indefinite_banded(bandwidth):
    A = gram_banded(diff_operator(bandwidth, 8))  # D D' is positive definite
    A.bands[0, 3] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match="leading minor"):
        band_solve(A, np.ones(A.n))


@pytest.mark.parametrize("order", [1, 2])
def test_hp_solve_reuses_a_bitwise_factor(order):
    rng = np.random.default_rng(order)
    lam = 1e8
    for _ in range(3):  # the second and third solves reuse the cached factor
        y = np.cumsum(rng.normal(size=520))
        A = hp_banded(diff_operator(order, 520), lam)
        assert np.array_equal(hp_solve(order, lam, y), band_solve(A, y))
    y[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        hp_solve(order, lam, y)


def test_matvec_matches_dense():
    rng = np.random.default_rng(8)
    A = gram_banded(diff_operator(2, 20))
    v = rng.normal(size=18)
    np.testing.assert_allclose(A.matvec(v), dense_banded(A) @ v, atol=1e-12)
