"""Independent dense oracles used by the test suite.

Everything here deliberately avoids the package's banded/IPM code
paths: difference matrices come from numpy, linear solves are dense,
and optima are found by exhaustive enumeration, so these results can
certify the production implementations.
"""

import functools
import itertools

import numpy as np
from scipy.linalg import null_space


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
