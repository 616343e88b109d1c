"""Primal-dual interior-point solver for box-constrained quadratic programs.

Solves  min  1/2 nu' Q nu - r' nu   subject to  -upper <= nu <= upper,
with Q symmetric banded. This is the computational engine behind every
L1 filter in the package: their duals are exactly this problem shape.

The method follows the classic primal-dual scheme with a logarithmic
barrier: at each iteration the barrier parameter is set from the current
surrogate duality gap (tau = 10 * m / gap, i.e. tau grows tenfold as the
gap shrinks tenfold, anchored at the initial gap), a Newton direction is
computed by eliminating the bound multipliers into a single banded SPD
solve, and a backtracking line search with a 0.99 fraction-to-boundary
cap keeps every iterate strictly inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .banded import BandedSymMatrix, band_solve
from .errors import ConvergenceError, NotPositiveDefiniteError

MU_MULT = 10.0          # barrier growth per iteration
BACKTRACK_SLOPE = 0.01  # sufficient-decrease parameter
BACKTRACK_STEP = 0.5    # step shrink factor
BOUNDARY_FRACTION = 0.99
MIN_STEP = 1e-13


@dataclass(frozen=True)
class BoxQP:
    """Quadratic program with a banded Hessian and symmetric box bounds."""

    Q: BandedSymMatrix
    r: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if r.shape != (self.Q.n,) or upper.shape != (self.Q.n,):
            raise ValueError(
                f"dimension mismatch: Q is {self.Q.n}, r {r.shape}, upper {upper.shape}"
            )
        if np.any(upper <= 0):
            raise ValueError("all box bounds must be strictly positive")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.Q.n

    def objective(self, nu) -> float:
        nu = np.asarray(nu, dtype=float)
        return 0.5 * nu @ self.Q.matvec(nu) - self.r @ nu


@dataclass
class IpmState:
    """Strictly feasible iterate: -upper < nu < upper, multipliers > 0."""

    nu: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray


@dataclass(frozen=True)
class IpmSolution:
    nu_star: np.ndarray
    iterations: int
    duality_gap: float
    kkt_residual: float
    converged: bool
    gap_history: np.ndarray = field(repr=False, default=None)


def initial_state(problem: BoxQP) -> IpmState:
    """Center start: nu = 0 (strictly interior), unit multipliers."""
    p = problem.dim
    return IpmState(nu=np.zeros(p), mu_hi=np.ones(p), mu_lo=np.ones(p))


def surrogate_gap(problem: BoxQP, state: IpmState) -> float:
    s_hi = problem.upper - state.nu
    s_lo = state.nu + problem.upper
    return float(s_hi @ state.mu_hi + s_lo @ state.mu_lo)


def residual(problem: BoxQP, state: IpmState, tau: float) -> np.ndarray:
    """Stacked KKT residual r_tau = (dual, centering-hi, centering-lo)."""
    s_hi = problem.upper - state.nu
    s_lo = state.nu + problem.upper
    r_dual = problem.Q.matvec(state.nu) - problem.r + state.mu_hi - state.mu_lo
    r_cent_hi = state.mu_hi * s_hi - 1.0 / tau
    r_cent_lo = state.mu_lo * s_lo - 1.0 / tau
    return np.concatenate([r_dual, r_cent_hi, r_cent_lo])


def newton_step(problem: BoxQP, state: IpmState, tau: float):
    """Newton direction solving J dz = -r_tau via multiplier elimination.

    Substituting the two centering rows into the dual row collapses the
    3p x 3p system to one banded SPD solve in the nu block.
    """
    s_hi = problem.upper - state.nu
    s_lo = state.nu + problem.upper
    r_dual = problem.Q.matvec(state.nu) - problem.r + state.mu_hi - state.mu_lo
    r_cent_hi = state.mu_hi * s_hi - 1.0 / tau
    r_cent_lo = state.mu_lo * s_lo - 1.0 / tau

    d = state.mu_hi / s_hi + state.mu_lo / s_lo
    rhs = -r_dual + r_cent_hi / s_hi - r_cent_lo / s_lo

    # Q can be singular (the mixed filter's stacked operator has dependent
    # rows), leaving positive definiteness to the barrier diagonal alone;
    # when that diagonal is tiny, rounding can push a Cholesky pivot
    # nonpositive, so retry with an escalating jitter before giving up.
    jitter = 0.0
    jitter_unit = 1e-13 * (1.0 + float(np.max(np.abs(problem.Q.bands[0]))))
    for _ in range(6):
        try:
            d_nu = band_solve(problem.Q.add_diagonal(d + jitter), rhs)
            break
        except NotPositiveDefiniteError as exc:
            last_error = exc
            jitter = jitter_unit if jitter == 0.0 else 10.0 * jitter
    else:
        raise ConvergenceError(f"singular Newton system: {last_error}") from last_error
    d_mu_hi = (-r_cent_hi + state.mu_hi * d_nu) / s_hi
    d_mu_lo = (-r_cent_lo - state.mu_lo * d_nu) / s_lo
    return d_nu, d_mu_hi, d_mu_lo


def _max_feasible_step(problem: BoxQP, state: IpmState, d_nu, d_mu_hi, d_mu_lo):
    """Largest alpha keeping multipliers positive and nu strictly in the box."""
    s_hi = problem.upper - state.nu
    s_lo = state.nu + problem.upper
    alpha = 1.0 / BOUNDARY_FRACTION
    for value, step in (
        (state.mu_hi, d_mu_hi),
        (state.mu_lo, d_mu_lo),
        (s_hi, -d_nu),
        (s_lo, d_nu),
    ):
        shrinking = step < 0
        if np.any(shrinking):
            alpha = min(alpha, np.min(-value[shrinking] / step[shrinking]))
    return min(1.0, BOUNDARY_FRACTION * alpha)


def _dual_residual_norm(problem: BoxQP, state: IpmState) -> float:
    r_dual = problem.Q.matvec(state.nu) - problem.r + state.mu_hi - state.mu_lo
    return float(np.max(np.abs(r_dual)))


def solve_box_qp(problem: BoxQP, tol: float = 1e-8, max_iter: int = 200) -> IpmSolution:
    """Minimize the box QP to surrogate-gap and KKT tolerance ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    state = initial_state(problem)
    m = 2 * problem.dim
    gaps = [surrogate_gap(problem, state)]
    iterations = 0
    tau = MU_MULT * m / gaps[0]

    while iterations < max_iter:
        eta = gaps[-1]
        if eta <= tol and _dual_residual_norm(problem, state) <= tol:
            break

        tau = MU_MULT * m / eta
        d_nu, d_mu_hi, d_mu_lo = newton_step(problem, state, tau)

        base_norm = np.linalg.norm(residual(problem, state, tau))
        alpha = _max_feasible_step(problem, state, d_nu, d_mu_hi, d_mu_lo)
        accepted = False
        while alpha >= MIN_STEP:
            trial = IpmState(
                nu=state.nu + alpha * d_nu,
                mu_hi=state.mu_hi + alpha * d_mu_hi,
                mu_lo=state.mu_lo + alpha * d_mu_lo,
            )
            decrease = 1.0 - BACKTRACK_SLOPE * alpha
            trial_res = residual(problem, trial, tau)
            if np.linalg.norm(trial_res) <= decrease * base_norm:
                state = trial
                accepted = True
                break
            # Endgame: once the dual residual sits at its rounding floor the
            # stacked norm cannot shrink further, but a centering step that
            # stays dual-feasible and strictly reduces the gap is still
            # progress toward the termination test.
            if (np.max(np.abs(trial_res[:problem.dim])) <= tol
                    and surrogate_gap(problem, trial) <= decrease * eta):
                state = trial
                accepted = True
                break
            alpha *= BACKTRACK_STEP
        if not accepted:
            break  # stalled; report the best iterate below
        iterations += 1
        gaps.append(surrogate_gap(problem, state))

    eta = surrogate_gap(problem, state)
    converged = eta <= tol and _dual_residual_norm(problem, state) <= tol
    kkt = float(np.max(np.abs(residual(problem, state, tau))))
    return IpmSolution(
        nu_star=state.nu,
        iterations=iterations,
        duality_gap=eta,
        kkt_residual=kkt,
        converged=converged,
        gap_history=np.asarray(gaps),
    )
