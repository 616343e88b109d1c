import gc
import warnings

import numpy as np
import pytest

from trendkit import ipm, synth
from trendkit.banded import BandedSymMatrix, diff_operator, gram_banded
from trendkit.calibration import lambda_max
from trendkit.errors import ConvergenceError, NotPositiveDefiniteError
from trendkit.filters import l1_filter, l1tc_filter
from trendkit.ipm import (
    BoxQP,
    IpmState,
    initial_state,
    newton_step,
    residual,
    solve_box_qp,
    surrogate_gap,
)

from oracles import box_qp_bruteforce, dense_banded, residual_jacobian


def _identity_problem(r, upper):
    Q = BandedSymMatrix(len(r), 0, np.ones((1, len(r))))
    return BoxQP(Q, np.asarray(r, dtype=float), np.asarray(upper, dtype=float))


def _random_problem(rng, n, order=2, lam_range=(0.2, 3.0)):
    op = diff_operator(order, n)
    Q = gram_banded(op)
    r = 3.0 * rng.normal(size=op.rows)
    lam = float(rng.uniform(*lam_range))
    return BoxQP(Q, r, np.full(op.rows, lam))


def test_unconstrained_optimum_inside_box():
    sol = solve_box_qp(_identity_problem([0.0], [1.0]))
    assert sol.converged
    assert abs(sol.nu_star[0]) <= 1e-8


def test_optimum_clipped_at_bound():
    sol = solve_box_qp(_identity_problem([2.0], [1.0]))
    assert sol.converged
    assert abs(sol.nu_star[0] - 1.0) <= 1e-6
    assert sol.nu_star[0] < 1.0  # strictly interior even with the bound active


def test_validation_errors():
    Q = BandedSymMatrix(2, 0, np.ones((1, 2)))
    with pytest.raises(ValueError):
        BoxQP(Q, np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        BoxQP(Q, np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        BoxQP(Q, np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        BoxQP(Q, np.array([0.0, np.nan]), np.ones(2))
    with pytest.raises(ValueError):
        solve_box_qp(BoxQP(Q, np.zeros(2), np.ones(2)), tol=0.0)


def test_matches_bruteforce_oracle_on_banded_problems():
    rng = np.random.default_rng(21)
    for _ in range(12):
        problem = _random_problem(rng, 12)
        sol = solve_box_qp(problem)
        assert sol.converged
        oracle_obj, _ = box_qp_bruteforce(
            dense_banded(problem.Q), problem.r, problem.upper
        )
        assert abs(problem.objective(sol.nu_star) - oracle_obj) <= 1e-6


def test_strict_feasibility_of_solution():
    rng = np.random.default_rng(4)
    for _ in range(10):
        problem = _random_problem(rng, 20, lam_range=(0.01, 0.5))
        sol = solve_box_qp(problem)
        assert np.all(np.abs(sol.nu_star) < problem.upper)


def test_gap_decreases_across_barrier_updates():
    rng = np.random.default_rng(11)
    for _ in range(8):
        problem = _random_problem(rng, 60)
        sol = solve_box_qp(problem)
        gaps = sol.gap_history
        assert len(gaps) >= 2
        assert np.all(np.diff(gaps) < 0)


def test_kkt_certificate_at_convergence():
    rng = np.random.default_rng(17)
    for _ in range(8):
        problem = _random_problem(rng, 40)
        sol = solve_box_qp(problem, tol=1e-8)
        assert sol.converged
        assert sol.duality_gap <= 1e-8
        assert sol.kkt_residual <= 1e-8
        # reconstruct the multipliers from stationarity: bound multipliers
        # are nonnegative and complementary-slack to tolerance
        grad = problem.Q.matvec(sol.nu_star) - problem.r
        mu_net = -grad  # mu_hi - mu_lo at optimality
        s_hi = problem.upper - sol.nu_star
        s_lo = sol.nu_star + problem.upper
        products = np.concatenate([
            np.maximum(mu_net, 0) * s_hi, np.maximum(-mu_net, 0) * s_lo
        ])
        assert np.max(products) <= 1e-7


def test_newton_step_is_zero_at_exact_center():
    rng = np.random.default_rng(5)
    op = diff_operator(2, 8)
    Q = gram_banded(op)
    upper = np.full(op.rows, 1.5)
    nu = rng.uniform(-0.5, 0.5, size=op.rows)
    tau = 7.0
    mu_hi = 1.0 / (tau * (upper - nu))
    mu_lo = 1.0 / (tau * (nu + upper))
    # choose the linear term so the dual row vanishes at this state
    r = Q.matvec(nu) + mu_hi - mu_lo
    problem = BoxQP(Q, r, upper)
    state = IpmState.at(problem, nu=nu, mu_hi=mu_hi, mu_lo=mu_lo)
    assert np.max(np.abs(residual(state, tau))) <= 1e-12
    d_nu, d_hi, d_lo = newton_step(problem, state, residual(state, tau))
    assert np.max(np.abs(np.concatenate([d_nu, d_hi, d_lo]))) <= 1e-9


def test_one_dim_direction_points_at_optimum():
    problem = _identity_problem([0.5], [1.0])
    state = initial_state(problem)
    d_nu, _, _ = newton_step(problem, state, residual(state, tau=2.0 * 2 / surrogate_gap(state)))
    assert d_nu[0] > 0  # unconstrained optimum sits at +0.5


def _numeric_jacobian(problem, state, tau, h=1e-6):
    z0 = np.concatenate([state.nu, state.mu_hi, state.mu_lo])
    p = problem.dim
    J = np.zeros((3 * p, 3 * p))
    for j in range(3 * p):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        sp = IpmState.at(problem, zp[:p], zp[p:2 * p], zp[2 * p:])
        sm = IpmState.at(problem, zm[:p], zm[p:2 * p], zm[2 * p:])
        J[:, j] = (residual(sp, tau) - residual(sm, tau)) / (2 * h)
    return J


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(5):
        op = diff_operator(2, 7)  # 5-dimensional dual
        problem = BoxQP(gram_banded(op), rng.normal(size=5), np.full(5, 2.0))
        state = IpmState.at(
            problem,
            nu=rng.uniform(-1.0, 1.0, size=5),
            mu_hi=rng.uniform(0.5, 2.0, size=5),
            mu_lo=rng.uniform(0.5, 2.0, size=5),
        )
        tau = 3.0
        J = residual_jacobian(problem, state)
        J_fd = _numeric_jacobian(problem, state, tau)
        assert np.max(np.abs(J - J_fd)) <= 1e-5

        # the computed direction solves the linearized system
        d_nu, d_hi, d_lo = newton_step(problem, state, residual(state, tau))
        step = np.concatenate([d_nu, d_hi, d_lo])
        lhs = J @ step
        rhs = -residual(state, tau)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


def test_max_iterations_returns_flagged_iterate():
    rng = np.random.default_rng(2)
    problem = _random_problem(rng, 30)
    sol = solve_box_qp(problem, max_iter=2)
    assert not sol.converged
    assert sol.iterations <= 2
    assert np.all(np.abs(sol.nu_star) < problem.upper)


class _CountingMatrix(BandedSymMatrix):
    """Banded matrix that counts its products Q v."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "products", 0)

    def matvec(self, v):
        object.__setattr__(self, "products", self.products + 1)
        return super().matvec(v)


def test_one_product_per_line_search_trial(monkeypatch):
    residuals = []

    def counted_residual(state, tau):
        residuals.append(tau)
        return residual(state, tau)

    monkeypatch.setattr(ipm, "residual", counted_residual)
    rng = np.random.default_rng(13)
    for n in (12, 60, 200):
        base = _random_problem(rng, n)
        Q = _CountingMatrix(base.Q.n, base.Q.bandwidth, base.Q.bands)
        residuals.clear()
        sol = solve_box_qp(BoxQP(Q, base.r, base.upper))
        assert sol.converged
        # one residual per iteration for the Newton step, one per trial
        # point and one for the final KKT residual
        trials = len(residuals) - sol.iterations - 1
        assert trials >= sol.iterations
        # one product for the starting point, then one per trial point
        assert Q.products == 1 + trials


def test_nonfinite_newton_system_is_convergence_error():
    # x1000 inputs: a slack rounds to zero before the gap reaches 1e-8
    y = 1e3 * np.cumsum(np.random.default_rng(0).standard_normal(40))
    with pytest.raises(ConvergenceError, match="non-finite Newton system"), \
            np.errstate(divide="ignore", invalid="ignore"):
        l1_filter(y, 0.1 * lambda_max(y, 1), order=1)


def test_nonfinite_newton_system_fails_without_warnings():
    # the solver silences numpy's floating-point warnings itself, so the
    # typed failure is all a caller sees, even with warnings as errors
    y = 1e3 * np.cumsum(np.random.default_rng(0).standard_normal(40))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite Newton system"):
            l1_filter(y, 0.1 * lambda_max(y, 1), order=1)

def test_jitter_retries_leave_no_reference_cycles(monkeypatch):
    # An exception kept across the retries held the Newton step's frame by
    # its traceback, pinning the iterate's arrays until a collector pass.
    retries = []
    band_solve = ipm.band_solve

    def counted_solve(A, b):
        try:
            return band_solve(A, b)
        except NotPositiveDefiniteError:
            retries.append(1)
            raise

    monkeypatch.setattr(ipm, "band_solve", counted_solve)
    y = synth.simulate_model2(synth.default_params(2, n=300, b=0.0, sigma=1.0, seed=0)).values
    gc.collect()
    gc.disable()
    try:
        l1tc_filter(y, 0.1 * lambda_max(y, 1), 0.1 * lambda_max(y, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert retries
