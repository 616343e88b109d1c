import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trendkit.banded import diff_operator
from trendkit.calibration import lambda_max
from trendkit.errors import DataError, InsufficientHistoryError, NumericalError
from trendkit.filters import (
    detect_breaks,
    hp_filter,
    l1_filter,
    l1_objective,
    l1t_multivariate,
    l1tc_filter,
    l1tc_objective,
)
from trendkit.series import Series

from oracles import dense_diff, l1_bruteforce_objective, ols_line


@pytest.fixture
def walk():
    rng = np.random.default_rng(123)
    return rng.normal(size=80).cumsum() + 0.3 * np.arange(80)


def assert_primal_dual(result, order_lams):
    """x = y - D' nu and |nu| <= lam for every (order, lam, dual slice)."""
    x = result.observed.copy()
    for order, lam, dual in order_lams:
        op = diff_operator(order, len(result.trend))
        x -= op.apply_transpose(dual)
        assert np.max(np.abs(dual)) <= lam + 1e-9
    assert np.max(np.abs(result.trend - x)) <= 1e-8


class TestHpFilter:
    def test_zero_weight_returns_input(self, walk):
        np.testing.assert_array_equal(hp_filter(walk, 0.0).trend, walk)

    def test_huge_weight_gives_least_squares_line(self):
        rng = np.random.default_rng(7)
        for n in (10, 25, 40):
            y = rng.normal(size=n).cumsum() + np.arange(n)
            trend = hp_filter(y, 1e12, order=2).trend
            fit = ols_line(y)
            rel = np.max(np.abs(trend - fit)) / np.max(np.abs(fit))
            assert rel < 1e-4

    def test_four_point_system_matches_dense_solve(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        D = dense_diff(2, 4)
        expected = np.linalg.solve(np.eye(4) + 2.0 * (D.T @ D), y)
        np.testing.assert_allclose(hp_filter(y, 1.0, order=2).trend, expected,
                                   atol=1e-12)

    def test_order1_variant(self, walk):
        trend = hp_filter(walk, 5.0, order=1).trend
        D = dense_diff(1, len(walk))
        expected = np.linalg.solve(np.eye(len(walk)) + 10.0 * (D.T @ D), walk)
        np.testing.assert_allclose(trend, expected, atol=1e-10)

    def test_negative_weight_rejected(self, walk):
        with pytest.raises(ValueError):
            hp_filter(walk, -1.0)


class TestL1Filter:
    def test_zero_weight_returns_input(self, walk):
        result = l1_filter(walk, 0.0, order=2)
        np.testing.assert_array_equal(result.trend, walk)
        assert np.all(result.dual == 0.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_primal_dual_identity_and_bounds(self, walk, order):
        lam = 0.4 * lambda_max(walk, order)
        result = l1_filter(walk, lam, order=order)
        assert_primal_dual(result, [(order, lam, result.dual)])
        assert result.diagnostics.converged
        assert result.diagnostics.duality_gap <= 1e-8

    def test_above_ceiling_order2_is_least_squares_line(self, walk):
        lam = 1.01 * lambda_max(walk, 2)
        trend = l1_filter(walk, lam, order=2).trend
        fit = ols_line(walk)
        assert np.max(np.abs(trend - fit)) / np.max(np.abs(fit)) < 1e-6

    def test_above_ceiling_order1_is_mean(self, walk):
        lam = 1.01 * lambda_max(walk, 1)
        trend = l1_filter(walk, lam, order=1).trend
        assert np.max(np.abs(trend - walk.mean())) / abs(walk.mean()) < 1e-6

    @pytest.mark.parametrize("order", [1, 2])
    def test_objective_dominates_cheap_competitors(self, walk, order):
        lam = 0.2 * lambda_max(walk, order)
        result = l1_filter(walk, lam, order=order)
        best = l1_objective(walk, result.trend, lam, order)
        competitors = [
            walk,
            np.full_like(walk, walk.mean()),
            ols_line(walk),
            hp_filter(walk, lam, order=order).trend,
        ]
        for z in competitors:
            assert best <= l1_objective(walk, z, lam, order) + 1e-6

    def test_penalty_term_shrinks_with_weight(self, walk):
        op = diff_operator(2, len(walk))
        ceiling = lambda_max(walk, 2)
        grid = ceiling * np.logspace(-3, 0, 10)
        norms = [
            np.sum(np.abs(op.apply(l1_filter(walk, lam, order=2).trend)))
            for lam in grid
        ]
        assert all(b <= a + 1e-7 for a, b in zip(norms, norms[1:]))

    def test_matches_bruteforce_on_small_problems(self):
        rng = np.random.default_rng(31)
        for order in (1, 2):
            for _ in range(6):
                n = int(rng.integers(5, 12))
                y = rng.normal(size=n)
                lam = float(rng.uniform(0.05, 0.8))
                result = l1_filter(y, lam, order=order)
                achieved = l1_objective(y, result.trend, lam, order)
                D = dense_diff(order, n)
                oracle = l1_bruteforce_objective(y, D, np.full(len(D), lam))
                assert abs(achieved - oracle) <= 1e-6


class TestL1TcFilter:
    @staticmethod
    def assert_same_fit(mixed, single, active, zero):
        """The mixed fit with one zero weight is the single-order fit, bit for
        bit: trend, the active dual block (the other all zeros) and certificate."""
        np.testing.assert_array_equal(mixed.trend, single.trend)
        np.testing.assert_array_equal(mixed.dual[active], single.dual)
        np.testing.assert_array_equal(mixed.dual[zero], 0.0)
        for name in ("iterations", "duality_gap", "kkt_residual"):
            assert getattr(mixed.diagnostics, name) == getattr(single.diagnostics, name)

    def test_zero_first_weight_reduces_to_order2(self, walk):
        n = len(walk)
        self.assert_same_fit(l1tc_filter(walk, 0.0, 3.0), l1_filter(walk, 3.0, order=2),
                             active=slice(n - 1, None), zero=slice(None, n - 1))

    def test_zero_second_weight_reduces_to_order1(self, walk):
        n = len(walk)
        self.assert_same_fit(l1tc_filter(walk, 3.0, 0.0), l1_filter(walk, 3.0, order=1),
                             active=slice(None, n - 1), zero=slice(n - 1, None))

    def test_both_zero_returns_input(self, walk):
        np.testing.assert_array_equal(l1tc_filter(walk, 0.0, 0.0).trend, walk)

    def test_large_problem_survives_singular_hessian(self):
        # the stacked operator has dependent rows, so the dual Hessian is
        # singular and oversized problems once broke the Newton factorization
        rng = np.random.default_rng(0)
        n = 3000
        y = rng.normal(size=n).cumsum()
        result = l1tc_filter(y, 50.0, 100.0)
        assert result.diagnostics.converged
        assert result.diagnostics.duality_gap <= 1e-8
        assert np.max(np.abs(result.dual[: n - 1])) <= 50.0 + 1e-9
        assert np.max(np.abs(result.dual[n - 1:])) <= 100.0 + 1e-9

    def test_dual_layout_and_identity(self, walk):
        n = len(walk)
        result = l1tc_filter(walk, 1.0, 2.0)
        assert len(result.dual) == (n - 1) + (n - 2)
        nu1, nu2 = result.dual[: n - 1], result.dual[n - 1:]
        assert_primal_dual(result, [(1, 1.0, nu1), (2, 2.0, nu2)])

    def test_matches_bruteforce_on_small_problems(self):
        rng = np.random.default_rng(77)
        cases = [(8, 0.5, 0.5)]
        for _ in range(4):
            cases.append((
                int(rng.integers(5, 9)),
                float(rng.uniform(0.05, 0.6)),
                float(rng.uniform(0.05, 0.6)),
            ))
        for n, lam1, lam2 in cases:
            y = rng.normal(size=n)
            result = l1tc_filter(y, lam1, lam2)
            achieved = l1tc_objective(y, result.trend, lam1, lam2)
            D = np.vstack([dense_diff(1, n), dense_diff(2, n)])
            lam_vec = np.concatenate([np.full(n - 1, lam1), np.full(n - 2, lam2)])
            oracle = l1_bruteforce_objective(y, D, lam_vec)
            assert abs(achieved - oracle) <= 1e-6


class TestMultivariate:
    def test_single_series_matches_univariate(self, walk):
        a = l1t_multivariate([walk], 2.0).trend
        b = l1_filter(walk, 2.0, order=2).trend
        np.testing.assert_array_equal(a, b)
        # a panel's fit is the order-2 filter of its (standardized) mean, bit for bit
        data = np.vstack([walk, 40.0 * walk[::-1] + 7.0, 0.2 * np.sin(np.arange(80.0)) - 3.0])
        scaled = (data - data.mean(axis=1)[:, None]) / data.std(axis=1)[:, None]
        for standardize, mean in [(False, data.mean(axis=0)), (True, scaled.mean(axis=0))]:
            lam = 0.05 * lambda_max(mean, 2)
            joint = l1t_multivariate(list(data), lam, standardize=standardize)
            single = l1_filter(mean, lam, order=2)
            for name in ("trend", "dual", "observed"):
                np.testing.assert_array_equal(getattr(joint, name), getattr(single, name))
            assert joint.lam == single.lam
            assert joint.diagnostics.iterations == single.diagnostics.iterations > 0
            assert joint.diagnostics.duality_gap == single.diagnostics.duality_gap

    def test_identical_copies_match_univariate(self, walk):
        a = l1t_multivariate([walk, walk, walk], 2.0).trend
        b = l1_filter(walk, 2.0, order=2).trend
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_distinct_series_equal_filter_of_mean(self):
        rng = np.random.default_rng(5)
        y1 = rng.normal(size=60).cumsum()
        y2 = rng.normal(size=60).cumsum()
        a = l1t_multivariate([y1, y2], 4.0).trend
        b = l1_filter((y1 + y2) / 2.0, 4.0, order=2).trend
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_standardized_fit_filters_the_scaled_mean(self):
        rng = np.random.default_rng(6)
        rows = [5.0 + 3.0 * rng.normal(size=50).cumsum() for _ in range(3)]
        result = l1t_multivariate(rows, 1.0, standardize=True)
        scaled = np.vstack([(r - np.mean(r)) / np.std(r) for r in rows]).mean(axis=0)
        expected = l1_filter(scaled, 1.0, order=2)
        assert np.max(np.abs(result.observed - expected.observed)) <= 1e-10
        assert np.max(np.abs(result.trend - expected.trend)) <= 1e-10

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DataError, match="^series 1 has length 11, expected 10$"):
            l1t_multivariate([np.zeros(10), np.zeros(11)], 1.0)
        with pytest.raises(ValueError, match="^need at least one series$"):
            l1t_multivariate([], 1.0)

    def test_constant_series_cannot_standardize(self):
        with pytest.raises(DataError, match="^series 0 is constant; cannot standardize$") as info:
            l1t_multivariate([np.ones(10), np.arange(10.0)], 1.0, standardize=True)
        assert info.value.series == 0  # the row, so a caller can name it
        # std rounds to 5.6e-17 on a constant row and to 0 on a subnormal step
        for row in (np.full(10, 0.3), np.r_[0.0, 5e-324, np.zeros(8)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError,
                                   match="^series 1 is constant; cannot standardize$") as info:
                    l1t_multivariate([np.arange(10.0), row], 1.0, standardize=True)
            assert info.value.series == 1


class TestDetectBreaks:
    def test_affine_trend_has_no_breaks(self):
        y = 2.0 * np.arange(30) + 1.0
        result = l1_filter(y, 0.0, order=2)
        assert detect_breaks(result, 2) == []

    def test_two_segment_line_breaks_at_junction(self):
        k = 12
        t = np.arange(30, dtype=float)
        x = np.where(t <= k, t, k + 2.0 * (t - k))
        result = l1_filter(x, 0.0, order=2)
        assert detect_breaks(result, 2) == [k]

    def test_level_jump_reports_first_sample_of_new_level(self):
        x = np.concatenate([np.zeros(10), np.full(10, 3.0)])
        result = l1_filter(x, 0.0, order=1)
        assert detect_breaks(result, 1) == [10]

    def test_weight_tuned_to_ten_breaks(self):
        # a piecewise-linear-plus-noise path admits a weight whose fit
        # has exactly ten slope changes; bisect the weight on break count
        from trendkit.synth import default_params, simulate_model1

        _, y = simulate_model1(default_params(1, n=1000, seed=4))
        ceiling = lambda_max(y, 2)

        def breaks_at(lam):
            return len(detect_breaks(l1_filter(y, lam, order=2), 2))

        lo, hi = 0.01 * ceiling, ceiling  # many breaks at lo, none at hi
        while breaks_at(lo) <= 10 and lo > 1e-8 * ceiling:
            lo *= 0.1
        found = None
        for _ in range(80):
            mid = np.sqrt(lo * hi)
            count = breaks_at(mid)
            if count == 10:
                found = mid
                break
            if count > 10:
                lo = mid
            else:
                hi = mid
        assert found is not None
        assert breaks_at(found) == 10


class TestSeries:
    def test_validation(self):
        with pytest.raises(DataError):
            Series(np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DataError):
            Series(np.array([0, 1]), np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            Series(np.array([0]), np.array([1.0]))

    def test_slice_and_from_values(self):
        s = Series.from_values(np.arange(5.0))
        np.testing.assert_array_equal(s.values, [0.0, 1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(s.times, [0, 1, 2, 3, 4])

    def test_is_times_and_values_only(self):
        assert list(vars(Series.from_values([1.0, 2.0]))) == ["times", "values"]
        with pytest.raises(TypeError, match="name"):
            Series(np.arange(2), np.ones(2), name="x")
        with pytest.raises(TypeError, match="name"):
            Series.from_values(np.ones(2), name="x")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call, name", [
    (lambda y, w: hp_filter(y, w), "lam"),
    (lambda y, w: hp_filter(y, w, order=1), "lam"),
    (lambda y, w: l1_filter(y, w, order=1), "lam"),
    (lambda y, w: l1_filter(y, w, order=2), "lam"),
    (lambda y, w: l1tc_filter(y, w, 1.0), "lam1"),
    (lambda y, w: l1tc_filter(y, 1.0, w), "lam2"),
    (lambda y, w: l1tc_filter(y, w, 0.0), "lam1"),
    (lambda y, w: l1t_multivariate([y, 2.0 * y], w), "lam"),
], ids=["hp2", "hp1", "l1o1", "l1o2", "l1tc-lam1", "l1tc-lam2", "l1tc-lam1-only",
        "multivariate"])
def test_nonfinite_weight_rejected_by_name(walk, call, name, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(ValueError, match=f"^{name} must be (finite|non-negative), got"):
            call(walk, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda y: hp_filter(y, 5.0),
    lambda y: hp_filter(y, 5.0, order=1),
    lambda y: l1_filter(y, 1.0, order=1),
    lambda y: l1_filter(y, 1.0, order=2),
    lambda y: l1tc_filter(y, 1.0, 1.0),
    lambda y: l1tc_filter(y, 1.0, 0.0),
    lambda y: l1t_multivariate([2.0 * y, y], 1.0),
], ids=["hp2", "hp1", "l1o1", "l1o2", "l1tc", "l1tc-lam1-only", "multivariate"])
def test_nonfinite_data_is_data_error(walk, call, bad):
    y = walk.copy()
    y[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        with pytest.raises(DataError, match="^non-finite value at position 7$"):
            call(y)


@pytest.mark.parametrize("call, order", [
    (lambda y: l1_filter(y, 1.0, order=1), 1),
    (lambda y: l1_filter(y, 1.0, order=2), 2),
    (lambda y: l1tc_filter(y, 1.0, 1.0), 1),
    (lambda y: l1tc_filter(y, 0.0, 1.0), 2),
    (lambda y: lambda_max(y, 1), 1),
    (lambda y: lambda_max(y, 2), 2),
    (lambda x: l1_objective(np.zeros(4), x, 1.0, 2), 2),
    (lambda x: l1_objective(np.zeros(4), x, 1.0, 1), 1),
    (lambda x: l1tc_objective(np.zeros(4), x, 1.0, 1.0), 1),
], ids=["l1o1", "l1o2", "l1tc", "l1tc-lam2-only", "lambda_max1", "lambda_max2",
        "l1_objective2", "l1_objective1", "l1tc_objective"])
def test_overflowing_differences_are_data_error(call, order):
    y = np.array([1e308, -1e308, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=f"^order-{order} differences of the data overflow$"):
            call(y)


@pytest.mark.parametrize("order", [1, 2])
def test_overflowing_hp_solve_is_numerical_error(order):
    # finite data whose band solve overflows to NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^quadratic filter solve overflowed"):
            hp_filter(np.full(4, 1e308), 1000.0, order=order)


@pytest.mark.parametrize("call, message", [
    (lambda y: l1_filter(y, 1e308), "^non-finite duality gap inf after 0 iterations$"),
    (lambda y: l1tc_filter(y, 1e308, 1.0), "^non-finite duality gap inf after 0 iterations$"),
    (lambda y: l1_filter(y, 1e300), "^interior-point solver stopped after 200 iterations"),
    (lambda y: hp_filter(y, 1e308, order=2), "^quadratic filter system overflows at weight 1e"),
    (lambda y: hp_filter(y, 1e308, order=1), "^quadratic filter system overflows at weight 1e"),
], ids=["l1o2-1e308", "l1tc-1e308", "l1o2-1e300", "hp2-1e308", "hp1-1e308"])
def test_huge_weight_is_numerical_error(call, message):
    y = np.cumsum(np.random.default_rng(0).standard_normal(50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            call(y)


@pytest.mark.parametrize("call, n, order", [
    (lambda y: hp_filter(y, 1.0, order=2), 2, 2),
    (lambda y: hp_filter(y, 1.0, order=1), 1, 1),
    (lambda y: l1_filter(y, 1.0, order=2), 2, 2),
    (lambda y: l1_filter(y, 1.0, order=1), 1, 1),
    (lambda y: l1_filter(y, 0.0, order=2), 2, 2),
    (lambda y: l1tc_filter(y, 1.0, 1.0), 2, 2),
    (lambda y: l1t_multivariate([y, y], 1.0), 2, 2),
    (lambda y: lambda_max(y, 2), 2, 2),
    (lambda y: lambda_max(y, 1), 1, 1),
    (lambda y: detect_breaks(hp_filter(y, 0.0), 2), 2, 2),
    (lambda y: l1_objective(y, y, 1.0, 2), 2, 2),
    (lambda y: l1_objective(y, y, 1.0, 1), 1, 1),
    (lambda y: l1tc_objective(y, y, 1.0, 1.0), 2, 2),
], ids=["hp2", "hp1", "l1o2", "l1o1", "l1o2-zero", "l1tc", "multivariate",
        "lambda_max2", "lambda_max1", "breaks", "l1_objective2", "l1_objective1",
        "l1tc_objective"])
def test_series_too_short_for_order_is_insufficient_history(call, n, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientHistoryError,
                           match=f"^signal length {n} too small for order {order}; "
                                 f"need at least {order + 1} samples$"):
            call(np.arange(1.0, n + 1))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_hp_order_checked_at_every_weight(lam):
    with pytest.raises(ValueError, match="^order must be 1 or 2, got 5$"):
        hp_filter([1.0, 2.0, 3.0], lam, order=5)


def test_short_series_that_fit_still_fit():
    y = np.array([1.0, 3.0])
    assert np.array_equal(hp_filter(y, 0.0, order=2).trend, y)
    assert np.allclose(hp_filter(y, 1.0, order=1).trend, [1.8, 2.2])
    assert np.allclose(l1_filter(y, 10.0, order=1).trend, [2.0, 2.0])
    assert np.isclose(lambda_max(y, 1), 1.0)
    with pytest.raises(ValueError, match="^order must be 1 or 2, got 3$"):
        l1_filter(y, 1.0, order=3)


@pytest.mark.parametrize("knob", [{"tol": 1e-6}, {"max_iter": 5}])
@pytest.mark.parametrize("call", [
    lambda y, knob: l1_filter(y, 1.0, order=2, **knob),
    lambda y, knob: l1_filter(y, 1.0, order=1, **knob),
    lambda y, knob: l1tc_filter(y, 1.0, 1.0, **knob),
    lambda y, knob: l1t_multivariate([y, 2 * y], 1.0, **knob),
], ids=["l1t", "l1c", "l1tc", "multi"])
def test_solver_knobs_are_not_parameters(walk, call, knob):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(walk, knob)


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False))
def test_duality_certificate_property(rnd):
    rng = np.random.default_rng(rnd.getrandbits(32))
    n = int(rng.integers(10, 120))
    y = rng.normal(size=n).cumsum()
    order = int(rng.integers(1, 3))
    ceiling = lambda_max(y, order)
    lam = float(rng.uniform(0.05, 1.2)) * ceiling
    if lam == 0.0:
        return
    result = l1_filter(y, lam, order=order)
    assert result.diagnostics.duality_gap <= 1e-8
    op = diff_operator(order, n)
    recovered = y - op.apply_transpose(result.dual)
    assert np.max(np.abs(result.trend - recovered)) <= 1e-8
