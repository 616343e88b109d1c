"""The exact order-1 L1 filter (trendkit.tv) against independent oracles,
its certificate at scale, and the filter's symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from trendkit import ipm, synth
from trendkit.banded import diff_operator, gram_banded
from trendkit.calibration import lambda_max
from trendkit.errors import ConvergenceError
from trendkit.filters import l1_filter, l1_objective, l1tc_filter
from trendkit.ipm import BoxQP, solve_box_qp
from trendkit.tv import tv_denoise

from oracles import dense_diff, l1_bruteforce_objective

EPS = np.finfo(float).eps


def _walk(seed, n, scale=1.0):
    return scale * np.cumsum(np.random.default_rng(seed).standard_normal(n))


def _distance_bound(*results):
    """Largest 2-norm distance between certified fits: each lies within
    sqrt(2 * gap) of the optimum, the primal being 1-strongly convex."""
    return sum(np.sqrt(2.0 * r.diagnostics.duality_gap) for r in results)


def _certify(y, result, lam):
    """|nu| <= lam, trend = y - D'nu to rounding, gap <= 1e-8."""
    nu = result.dual
    assert np.all(np.abs(nu) <= lam)
    fitted = y - diff_operator(1, len(y)).apply_transpose(nu)
    scale = np.max(np.abs(y)) + 4 * np.max(np.abs(nu))
    assert np.max(np.abs(result.trend - fitted)) <= 16 * EPS * scale
    assert result.diagnostics.duality_gap <= 1e-8
    assert result.diagnostics.converged and result.diagnostics.iterations == 0


def test_matches_bruteforce_on_small_problems():
    rng = np.random.default_rng(41)
    for trial in range(90):
        n = int(rng.integers(2, 13))
        if trial % 3 == 0:  # ties: repeated levels, equal jumps, dual at the box
            y = 0.1 * rng.integers(0, 4, size=n)
            lam = float(rng.choice([0.03, 0.06, 0.09, 0.15]))
        else:
            y = rng.normal(size=n)
            lam = float(rng.uniform(0.05, 1.5))
        result = l1_filter(y, lam, order=1)
        achieved = l1_objective(y, result.trend, lam, 1)
        oracle = l1_bruteforce_objective(y, dense_diff(1, n), np.full(n - 1, lam))
        assert abs(achieved - oracle) <= 1e-9
        assert np.all(np.abs(result.dual) <= lam)
        assert result.diagnostics.duality_gap <= 1e-12


@pytest.mark.parametrize("n", [40, 400, 2080])
@pytest.mark.parametrize("frac", [0.001, 0.01, 0.1, 0.5])
def test_agrees_with_interior_point_where_it_converges(n, frac):
    y = _walk(n, n)
    lam = frac * lambda_max(y, 1)
    op = diff_operator(1, n)
    ipm = solve_box_qp(BoxQP(gram_banded(op), op.apply(y), np.full(op.rows, lam)))
    assert ipm.converged
    direct = l1_filter(y, lam, order=1)
    distance = np.linalg.norm(direct.trend - (y - op.apply_transpose(ipm.nu_star)))
    bound = np.sqrt(2 * ipm.duality_gap) + np.sqrt(2 * direct.diagnostics.duality_gap)
    assert distance <= bound + 64 * EPS * np.sqrt(n) * np.max(np.abs(y))
    # exact: never a higher objective than the IPM's certified iterate
    assert (l1_objective(y, direct.trend, lam, 1)
            <= l1_objective(y, y - op.apply_transpose(ipm.nu_star), lam, 1) + 1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("frac", [0.001, 0.01, 0.1])
def test_certificate_on_x1000_walks(seed, frac):
    y = _walk(seed, 2080, scale=1000.0)
    lam = frac * lambda_max(y, 1)
    _certify(y, l1_filter(y, lam, order=1), lam)


def test_remainder_and_compensation_keep_the_dual_exact():
    # perfbench's filter-sweep input l1c-n2080-w3 at seed 8: without the
    # division's remainder, or without Neumaier's compensation, the trend
    # leaves y - D'nu by 1.1 times the 16 eps bound of _certify; with both
    # it stays within 0.3 eps of the scale
    y = synth.simulate_model2(synth.default_params(
        2, n=2080, b=0.0, sigma=1.0, seed=1562075874)).values
    lam = 0.01 * lambda_max(y, 1)
    result = l1_filter(y, lam, order=1)
    fitted = y - diff_operator(1, len(y)).apply_transpose(result.dual)
    scale = np.max(np.abs(y)) + 4 * np.max(np.abs(result.dual))
    assert np.max(np.abs(result.trend - fitted)) <= 4 * EPS * scale


@pytest.mark.parametrize("scale", [1.0, 1000.0])
def test_certificate_at_n_1e5(scale):
    y = _walk(7, 100_000, scale)
    lam = 0.01 * lambda_max(y, 1)
    _certify(y, l1_filter(y, lam, order=1), lam)


def test_scale_equivariance_at_n_1e5(monkeypatch):
    y = _walk(8, 100_000)
    lam = 0.1 * lambda_max(y, 1)
    base = l1_filter(y, lam, order=1)
    for c in (1e-6, 1e6):
        # the gap is quadratic in the scale; its rounding floor at c = 1e6
        # (about 1e-5 here) lies above the absolute default tolerance
        monkeypatch.setattr(ipm, "TOL", 1e-8 * max(1.0, c * c))
        scaled = l1_filter(c * y, c * lam, order=1)
        bound = _distance_bound(scaled) + c * _distance_bound(base)
        rounding = 64 * EPS * c * np.sqrt(len(y)) * np.max(np.abs(y))
        assert np.linalg.norm(scaled.trend - c * base.trend) <= bound + rounding


def _case(rnd, n_max=300):
    rng = np.random.default_rng(rnd.getrandbits(32))
    n = int(rng.integers(2, n_max))
    y = np.cumsum(rng.standard_normal(n))
    return y, float(rng.uniform(0.001, 1.2)) * lambda_max(y, 1)


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.floats(-6.0, 6.0))
def test_scale_equivariance_property(rnd, exponent):
    y, lam = _case(rnd)
    c = 10.0 ** exponent
    base = l1_filter(y, lam, order=1)
    scaled = l1_filter(c * y, c * lam, order=1)
    rounding = 64 * EPS * c * np.sqrt(len(y)) * np.max(np.abs(y))
    bound = _distance_bound(scaled) + c * _distance_bound(base) + rounding
    assert np.linalg.norm(scaled.trend - c * base.trend) <= bound


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.floats(-1e4, 1e4))
def test_constant_shift_invariance_property(rnd, shift):
    y, lam = _case(rnd)
    base = l1_filter(y, lam, order=1)
    moved = l1_filter(y + shift, lam, order=1)
    # the fit is 1-Lipschitz in y, so rounding y + shift moves it at most
    # by that rounding's norm; adding shift to the base fit rounds once more
    rounding = 4 * EPS * np.sqrt(len(y)) * (np.max(np.abs(y)) + abs(shift))
    bound = _distance_bound(base, moved) + rounding
    assert np.linalg.norm(moved.trend - (base.trend + shift)) <= bound


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_time_reversal_property(rnd):
    y, lam = _case(rnd)
    forward = l1_filter(y, lam, order=1)
    backward = l1_filter(y[::-1].copy(), lam, order=1)
    rounding = 16 * EPS * np.sqrt(len(y)) * np.max(np.abs(y))
    assert (np.linalg.norm(backward.trend[::-1] - forward.trend)
            <= _distance_bound(forward, backward) + rounding)


@pytest.mark.parametrize("n", [2, 3, 40, 2080])
def test_at_or_above_lambda_max_returns_the_mean(n):
    y = _walk(n, n, scale=1000.0) + 5e4
    exact = np.max(np.abs(np.cumsum(y - y.mean())[:-1]))  # |(DD')^-1 D y|_max
    for factor in (1.0 + 1e-9, 1.01, 100.0):  # a hair above: both round
        lam = factor * max(exact, lambda_max(y, 1))
        result = l1_filter(y, lam, order=1)
        assert np.all(result.trend == result.trend[0])
        assert abs(result.trend[0] - y.mean()) <= 4 * EPS * np.max(np.abs(y))
        _certify(y, result, lam)


@pytest.mark.parametrize("seed", [64, 113, 382, 401, 433])
def test_at_the_rounded_ceiling_a_wrong_signed_jump_is_merged(seed):
    # lambda_max lands within rounding of a contact of the taut string,
    # and the segment pass reports a jump whose computed size is zero or
    # of the wrong sign; left in, its gap term is 2 lam |Dx| (about 2e-7).
    y = _walk(seed, 40, scale=1000.0) + 5e4
    lam = lambda_max(y, 1)
    result = l1_filter(y, lam, order=1)
    _certify(y, result, lam)
    assert np.all(result.trend == result.trend[0])
    assert abs(result.trend[0] - y.mean()) <= 4 * EPS * np.max(np.abs(y))


def test_mixed_filter_without_second_weight_is_direct():
    y = _walk(3, 500)
    lam = 0.05 * lambda_max(y, 1)
    mixed = l1tc_filter(y, lam, 0.0)
    direct = l1_filter(y, lam, order=1)
    np.testing.assert_array_equal(mixed.trend, direct.trend)
    assert mixed.diagnostics.iterations == 0
    np.testing.assert_array_equal(mixed.dual[:len(y) - 1], direct.dual)


def test_tolerance_bounds_the_reported_gap(monkeypatch):
    y = _walk(5, 400, scale=1000.0)
    lam = 0.1 * lambda_max(y, 1)
    x, nu, gap, residual = tv_denoise(y, lam)
    assert 0.0 < gap <= 1e-8
    assert residual <= 16 * EPS * (np.max(np.abs(y)) + 4 * lam)
    monkeypatch.setattr(ipm, "TOL", gap / 2)
    with pytest.raises(ConvergenceError, match="duality gap") as info:
        l1_filter(y, lam, order=1)
    assert info.value.diagnostics.duality_gap == gap
