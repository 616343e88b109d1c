import warnings

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
    interleave,
)
from trendkit.errors import DataError, InsufficientHistoryError, NotPositiveDefiniteError
from trendkit.filters import hp_filter

from oracles import dense_banded, dense_diff


def test_diff_operator_shapes_and_validation():
    op = diff_operator(2, 10)
    assert op.rows == 8
    assert diff_operator(1, 5).rows == 4
    with pytest.raises(InsufficientHistoryError,
                       match="^signal length 2 too small for order 2; need at least 3 samples$"):
        diff_operator(2, 2)
    with pytest.raises(InsufficientHistoryError,
                       match="^signal length 1 too small for order 1; need at least 2 samples$"):
        diff_operator(1, 1)
    with pytest.raises(ValueError, match="^order must be 1 or 2, got 3$"):
        diff_operator(3, 10)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("v", [[1e308, -1e308, 1e308, -1e308], [0.0, 1.0, np.nan, 2.0]],
                         ids=["overflow", "nan"])
def test_non_finite_differences_are_data_error(order, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^order-{order} differences of the data overflow$"):
            diff_operator(order, 4).apply(np.array(v))


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
    G = gram_banded(diff_operator(1, n), diff_operator(2, n))
    assert G.bandwidth == min(4, 2 * n - 4)
    _assert_zero_padding(G)
    assert np.array_equal(dense_banded(G), B @ B.T)
    # integer data: every product and partial sum is exact in any order
    y = np.random.default_rng(n).integers(-50, 50, size=n).astype(float)
    rhs = interleave(diff_operator(1, n).apply(y), diff_operator(2, n).apply(y))
    assert np.array_equal(rhs, B @ y)


@pytest.mark.parametrize("shapes", [[(2, 8), (1, 8)], [(1, 8), (1, 8)], [], [(1, 8), (2, 9)]],
                         ids=["2-then-1", "1-twice", "none", "two-lengths"])
def test_gram_of_other_operator_stacks_is_rejected(shapes):
    with pytest.raises(ValueError, match="^need one operator, or orders 1 and 2 of one length$"):
        gram_banded(*(diff_operator(order, n) for order, n in shapes))


def test_interleave_takes_any_number_of_parts():
    np.testing.assert_array_equal(interleave([1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_array_equal(interleave([0.0, 3.0], [1.0, 4.0], [2.0]), np.arange(5.0))


def test_interleave_returns_a_lone_part_uncopied():
    part = np.arange(4.0)
    assert interleave(part) is part


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
        expected = scipy.linalg.solveh_banded(A.bands, b, lower=True)
        assert np.array_equal(band_solve(A, b), expected)
        F = BandedSymMatrix(n, bandwidth, np.asfortranarray(A.bands))
        assert np.array_equal(band_solve(F, b), expected)
        x = b.copy()  # overwrite: LAPACK factors a fresh copy of A and solves in x
        band_solve(A.add_diagonal(np.zeros(n)), x, overwrite=True)
        assert np.array_equal(x, expected)


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 4])
def test_add_diagonal_lays_bands_out_for_lapack(bandwidth):
    rng = np.random.default_rng(bandwidth)
    A = _random_spd_bands(rng, 40, bandwidth)
    d = rng.random(40)
    shifted = A.add_diagonal(d)
    expected = A.bands.copy()
    expected[0] += d
    assert np.array_equal(shifted.bands, expected)
    # dptsv reads the tridiagonal's rows, dpbsv the whole band column-major
    layout = "C_CONTIGUOUS" if bandwidth == 1 else "F_CONTIGUOUS"
    assert shifted.bands.flags[layout]
    assert A.bands.flags["C_CONTIGUOUS"]  # matvec reads Q's rows
    assert np.array_equal(band_solve(shifted, d), scipy.linalg.solveh_banded(expected, d, lower=True))


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
    b = np.ones(A.n)
    with pytest.raises(NotPositiveDefiniteError, match="leading minor"):
        band_solve(A.add_diagonal(np.zeros(A.n)), b, overwrite=True)
    assert np.array_equal(b, np.ones(A.n))  # a failed factorization leaves b


@pytest.mark.parametrize("order", [1, 2])
def test_hp_filter_is_one_bitwise_band_solve(order):
    rng = np.random.default_rng(order)
    lam = 1e8
    y = np.cumsum(rng.normal(size=520))
    A = hp_banded(diff_operator(order, 520), lam)
    assert np.array_equal(hp_filter(y, lam, order=order).trend, band_solve(A, y))
    y[5] = np.nan
    with pytest.raises(DataError, match="non-finite value at position 5"):
        hp_filter(y, lam, order=order)


def test_matvec_matches_dense():
    rng = np.random.default_rng(8)
    A = gram_banded(diff_operator(2, 20))
    v = rng.normal(size=18)
    np.testing.assert_allclose(A.matvec(v), dense_banded(A) @ v, atol=1e-12)
