"""Independent dense oracles used by the test suite.

Everything here but :func:`reference_solve_box_qp` deliberately avoids
the package's banded/IPM code paths: difference matrices come from numpy,
linear solves are dense, and optima are found by exhaustive enumeration,
so these results can certify the production implementations. The
reference solver is the interior-point loop in its plain form, which pins
the solver's iterates bit for bit.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
from scipy.linalg import null_space

from trendkit import ipm
from trendkit.banded import band_solve
from trendkit.errors import ConvergenceError, NotPositiveDefiniteError


def dense_diff(order, n):
    """Dense difference matrix built straight from numpy's diff."""
    return np.diff(np.eye(n), n=order, axis=0)


def dense_banded(A):
    """Dense matrix of a BandedSymMatrix, from its stored diagonals."""
    out = np.diag(A.bands[0])
    for k in range(1, A.bandwidth + 1):
        d = A.bands[k, : A.n - k]
        out += np.diag(d, -k) + np.diag(d, k)
    return out


def dense_lambda_max(y, order):
    """max-norm of (D D')^{-1} D y by a dense solve."""
    D = dense_diff(order, len(y))
    return float(np.max(np.abs(np.linalg.solve(D @ D.T, D @ y))))


def ols_line(y):
    """Least-squares affine fit evaluated at the sample points."""
    t = np.arange(len(y), dtype=float)
    coeffs = np.polyfit(t, y, 1)
    return np.polyval(coeffs, t)


@functools.lru_cache(maxsize=None)
def _sign_columns(k):
    """All 2^k sign vectors as columns; read-only, as every caller shares it."""
    if k == 0:
        signs = np.zeros((0, 1))
    else:
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=k))).T
    signs.flags.writeable = False
    return signs


def box_qp_bruteforce(Q, r, upper, feas_tol=1e-9):
    """Exhaustive active-set search of min 1/2 v'Qv - r'v over |v| <= upper.

    Each coordinate is free or pinned at either bound; free coordinates
    solve the reduced stationarity system. Every feasible candidate is a
    feasible point of the QP, and the optimum's own pattern is among
    them, so the best feasible objective is the exact optimum.
    """
    p = len(r)
    best_obj = np.inf
    best_nu = None
    for mask in range(2 ** p):
        free = [i for i in range(p) if (mask >> i) & 1]
        bound = [i for i in range(p) if not ((mask >> i) & 1)]
        signs = _sign_columns(len(bound))
        nu_bound = upper[bound][:, None] * signs
        nu = np.zeros((p, nu_bound.shape[1]))
        if bound:
            nu[bound] = nu_bound
        if free:
            rhs = r[free][:, None] - Q[np.ix_(free, bound)] @ nu_bound
            try:
                nu_free = np.linalg.solve(Q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            nu[free] = nu_free
            feasible = np.all(
                np.abs(nu_free) <= upper[free][:, None] + feas_tol, axis=0
            )
        else:
            feasible = np.ones(nu.shape[1], dtype=bool)
        if not feasible.any():
            continue
        candidates = nu[:, feasible]
        obj = 0.5 * np.einsum("ij,ij->j", candidates, Q @ candidates) - r @ candidates
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_nu = candidates[:, j]
    return best_obj, best_nu


def l1_bruteforce_objective(y, D, lam_vec):
    """Exhaustive sign-pattern search of min 1/2||y-x||^2 + sum lam_i |(Dx)_i|.

    For each choice of which rows of Dx vanish and which signs the rest
    take, the problem becomes least squares over the null space of the
    pinned rows; evaluating the true objective at each candidate and
    taking the minimum recovers the exact optimum (the optimal pattern
    reproduces the optimal point, every other candidate scores >= it).
    """
    y = np.asarray(y, dtype=float)
    lam_vec = np.asarray(lam_vec, dtype=float)
    p, n = D.shape
    best = np.inf
    for mask in range(2 ** p):
        zero = [i for i in range(p) if (mask >> i) & 1]
        active = [i for i in range(p) if not ((mask >> i) & 1)]
        if zero:
            basis = null_space(D[zero])
            if basis.shape[1] == 0:
                best = min(best, 0.5 * float(y @ y))
                continue
        else:
            basis = np.eye(n)
        signs = _sign_columns(len(active))
        if active:
            linear = D[active].T @ (lam_vec[active][:, None] * signs)
        else:
            linear = np.zeros((n, 1))
        x = basis @ (basis.T @ (y[:, None] - linear))
        fidelity = 0.5 * np.sum((y[:, None] - x) ** 2, axis=0)
        penalty = lam_vec @ np.abs(D @ x)
        best = min(best, float(np.min(fidelity + penalty)))
    return best


def residual_jacobian(problem, state):
    """Dense Jacobian of the IPM's stacked KKT residual map, entry by entry."""
    p = problem.dim
    s_hi = problem.upper - state.nu
    s_lo = state.nu + problem.upper
    J = np.zeros((3 * p, 3 * p))
    J[:p, :p] = dense_banded(problem.Q)
    J[:p, p:2 * p] = np.eye(p)
    J[:p, 2 * p:] = -np.eye(p)
    J[p:2 * p, :p] = np.diag(-state.mu_hi)
    J[p:2 * p, p:2 * p] = np.diag(s_hi)
    J[2 * p:, :p] = np.diag(state.mu_lo)
    J[2 * p:, 2 * p:] = np.diag(s_lo)
    return J


# The interior-point loop in its plain form: a fresh array for every
# intermediate, the step-to-boundary rule pair by pair and a new shifted
# matrix per Newton system. ``ipm.solve_box_qp`` does the same arithmetic in
# one workspace and must reproduce these iterates bit for bit. It reads
# ``ipm.TOL`` and ``ipm.MAX_ITER`` per call, as the solver does.

@dataclasses.dataclass
class _ReferenceState:
    nu: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray
    s_hi: np.ndarray
    s_lo: np.ndarray
    r_dual: np.ndarray

    @classmethod
    def at(cls, problem, nu, mu_hi, mu_lo):
        return cls(nu, mu_hi, mu_lo, problem.upper - nu, nu + problem.upper,
                   problem.Q.matvec(nu) - problem.r + mu_hi - mu_lo)


def _reference_gap(state):
    return float(state.s_hi @ state.mu_hi + state.s_lo @ state.mu_lo)


def _reference_residual(state, tau):
    p = len(state.nu)
    out = np.empty(3 * p)
    out[:p] = state.r_dual
    np.multiply(state.mu_hi, state.s_hi, out=out[p:2 * p])
    np.multiply(state.mu_lo, state.s_lo, out=out[2 * p:])
    out[p:] -= 1.0 / tau
    return out


def _reference_newton_step(problem, state, res):
    p = problem.dim
    r_dual, r_cent_hi, r_cent_lo = res[:p], res[p:2 * p], res[2 * p:]
    d = state.mu_hi / state.s_hi + state.mu_lo / state.s_lo
    rhs = -r_dual + r_cent_hi / state.s_hi - r_cent_lo / state.s_lo
    jitter = 0.0
    for attempt in range(6):
        try:
            d_nu = band_solve(problem.Q.add_diagonal(d + jitter), rhs)
            break
        except NotPositiveDefiniteError as exc:
            if attempt == 5:
                raise ConvergenceError(f"singular Newton system: {exc}") from exc
            unit = 1e-13 * (1.0 + float(np.max(np.abs(problem.Q.bands[0]))))
            jitter = unit if jitter == 0.0 else 10.0 * jitter
    d_mu_hi = (-r_cent_hi + state.mu_hi * d_nu) / state.s_hi
    d_mu_lo = (-r_cent_lo - state.mu_lo * d_nu) / state.s_lo
    return d_nu, d_mu_hi, d_mu_lo


def reference_solve_box_qp(problem):
    """Solve ``problem`` with the plain-form loop, as an ``ipm.IpmSolution``."""
    tol, max_iter = ipm.TOL, ipm.MAX_ITER
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = problem.dim
        m = 2 * p
        state = _ReferenceState.at(problem, np.zeros(p), np.ones(p), np.ones(p))
        gaps = [_reference_gap(state)]
        iterations = 0
        tau = ipm.MU_MULT * m / gaps[0]

        while True:
            eta = gaps[-1]
            if not math.isfinite(eta):
                raise ConvergenceError(f"non-finite duality gap {eta:g} "
                                       f"after {iterations} iterations")
            converged = eta <= tol and float(np.max(np.abs(state.r_dual))) <= tol
            if converged or iterations >= max_iter:
                break

            tau = ipm.MU_MULT * m / eta
            res = _reference_residual(state, tau)
            try:
                d_nu, d_mu_hi, d_mu_lo = _reference_newton_step(problem, state, res)
            except ValueError as exc:
                raise ConvergenceError(f"non-finite Newton system in iteration "
                                       f"{iterations + 1}") from exc

            base_norm = np.linalg.norm(res)
            alpha = 1.0 / ipm.BOUNDARY_FRACTION
            for value, rate in ((state.mu_hi, -d_mu_hi), (state.mu_lo, -d_mu_lo),
                                (state.s_hi, d_nu), (state.s_lo, -d_nu)):
                ratios = np.divide(value, rate, out=np.full(p, np.inf), where=rate > 0)
                alpha = min(alpha, ratios.min())
            alpha = min(1.0, ipm.BOUNDARY_FRACTION * alpha)

            while alpha >= ipm.MIN_STEP:
                trial = _ReferenceState.at(problem, state.nu + alpha * d_nu,
                                           state.mu_hi + alpha * d_mu_hi,
                                           state.mu_lo + alpha * d_mu_lo)
                decrease = 1.0 - ipm.BACKTRACK_SLOPE * alpha
                if (np.linalg.norm(_reference_residual(trial, tau)) <= decrease * base_norm
                        or (np.max(np.abs(trial.r_dual)) <= tol
                            and _reference_gap(trial) <= decrease * eta)):
                    state = trial
                    break
                alpha *= ipm.BACKTRACK_STEP
            else:
                break
            iterations += 1
            gaps.append(_reference_gap(state))

        return ipm.IpmSolution(
            nu_star=state.nu,
            iterations=iterations,
            duality_gap=eta,
            kkt_residual=float(np.max(np.abs(_reference_residual(state, tau)))),
            failure=None if converged else (f"interior-point solver stopped after "
                                            f"{iterations} iterations with duality gap {eta:.3e}"),
            gap_history=np.asarray(gaps),
        )
