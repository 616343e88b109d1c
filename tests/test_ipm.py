import numpy as np
import pytest

from trendkit.banded import BandedSymMatrix, diff_operator, gram_banded
from trendkit.ipm import (
    BoxQP,
    IpmState,
    initial_state,
    newton_step,
    residual,
    solve_box_qp,
    surrogate_gap,
)

from oracles import box_qp_bruteforce, residual_jacobian


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
        solve_box_qp(BoxQP(Q, np.zeros(2), np.ones(2)), tol=0.0)


def test_matches_bruteforce_oracle_on_banded_problems():
    rng = np.random.default_rng(21)
    for _ in range(12):
        problem = _random_problem(rng, 12)
        sol = solve_box_qp(problem)
        assert sol.converged
        oracle_obj, _ = box_qp_bruteforce(
            problem.Q.to_dense(), problem.r, problem.upper
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
    state = IpmState(nu=nu, mu_hi=mu_hi, mu_lo=mu_lo)
    assert np.max(np.abs(residual(problem, state, tau))) <= 1e-12
    d_nu, d_hi, d_lo = newton_step(problem, state, tau)
    assert np.max(np.abs(np.concatenate([d_nu, d_hi, d_lo]))) <= 1e-9


def test_one_dim_direction_points_at_optimum():
    problem = _identity_problem([0.5], [1.0])
    state = initial_state(problem)
    d_nu, _, _ = newton_step(problem, state, tau=2.0 * 2 / surrogate_gap(problem, state))
    assert d_nu[0] > 0  # unconstrained optimum sits at +0.5


def _numeric_jacobian(problem, state, tau, h=1e-6):
    z0 = np.concatenate([state.nu, state.mu_hi, state.mu_lo])
    p = problem.dim
    J = np.zeros((3 * p, 3 * p))
    for j in range(3 * p):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        sp = IpmState(zp[:p], zp[p:2 * p], zp[2 * p:])
        sm = IpmState(zm[:p], zm[p:2 * p], zm[2 * p:])
        J[:, j] = (residual(problem, sp, tau) - residual(problem, sm, tau)) / (2 * h)
    return J


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(5):
        op = diff_operator(2, 7)  # 5-dimensional dual
        problem = BoxQP(gram_banded(op), rng.normal(size=5), np.full(5, 2.0))
        state = IpmState(
            nu=rng.uniform(-1.0, 1.0, size=5),
            mu_hi=rng.uniform(0.5, 2.0, size=5),
            mu_lo=rng.uniform(0.5, 2.0, size=5),
        )
        tau = 3.0
        J = residual_jacobian(problem, state)
        J_fd = _numeric_jacobian(problem, state, tau)
        assert np.max(np.abs(J - J_fd)) <= 1e-5

        # the computed direction solves the linearized system
        d_nu, d_hi, d_lo = newton_step(problem, state, tau)
        step = np.concatenate([d_nu, d_hi, d_lo])
        lhs = J @ step
        rhs = -residual(problem, state, tau)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * (1 + np.max(np.abs(rhs)))


def test_max_iterations_returns_flagged_iterate():
    rng = np.random.default_rng(2)
    problem = _random_problem(rng, 30)
    sol = solve_box_qp(problem, max_iter=2)
    assert not sol.converged
    assert sol.iterations <= 2
    assert np.all(np.abs(sol.nu_star) < problem.upper)
