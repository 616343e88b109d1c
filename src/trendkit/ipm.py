"""Primal-dual interior-point solver for box-constrained quadratic programs.

Solves  min  1/2 nu' Q nu - r' nu   subject to  -upper <= nu <= upper,
with Q symmetric banded: the dual of the order-2 and mixed L1 filters
(order 1 alone is solved directly by :mod:`trendkit.tv`).

The method follows the classic primal-dual scheme with a logarithmic
barrier: at each iteration the barrier parameter is set from the current
surrogate duality gap (tau = 10 * m / gap, i.e. tau grows tenfold as the
gap shrinks tenfold, anchored at the initial gap), a Newton direction is
computed by eliminating the bound multipliers into a single banded SPD
solve, and a backtracking line search with a 0.99 fraction-to-boundary
cap keeps every iterate strictly inside the box.

Each point is evaluated once: :meth:`IpmState.at` computes its slacks and
dual residual (its one product Q nu) when the line search tries it, and
the accepted trial is the next iterate as it stands. A non-finite Newton
system (a slack rounded to zero) or duality gap (box bounds near the
float limit) raises :class:`ConvergenceError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .banded import BandedSymMatrix, band_solve
from .errors import ConvergenceError, NotPositiveDefiniteError

MU_MULT = 10.0          # barrier growth per iteration
BACKTRACK_SLOPE = 0.01  # sufficient-decrease parameter
BACKTRACK_STEP = 0.5    # step shrink factor
BOUNDARY_FRACTION = 0.99
MIN_STEP = 1e-13
TOL = 1e-8              # stop once the surrogate gap and the dual residual reach it
MAX_ITER = 200          # iteration cap: the iterate is returned flagged unconverged


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
        if not np.all(upper > 0):
            raise ValueError("all box bounds must be strictly positive")
        if not np.isfinite(r).all():  # bad data, unlike a non-finite Newton system
            raise ValueError("array must not contain infs or NaNs")
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
    """Strictly feasible iterate (-upper < nu < upper, multipliers > 0) with
    its slacks and dual residual Q nu - r + mu_hi - mu_lo, built by :meth:`at`."""

    nu: np.ndarray
    mu_hi: np.ndarray
    mu_lo: np.ndarray
    s_hi: np.ndarray
    s_lo: np.ndarray
    r_dual: np.ndarray

    @classmethod
    def at(cls, problem: BoxQP, nu, mu_hi, mu_lo) -> "IpmState":
        return cls(nu, mu_hi, mu_lo, problem.upper - nu, nu + problem.upper,
                   problem.Q.matvec(nu) - problem.r + mu_hi - mu_lo)


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
    return IpmState.at(problem, np.zeros(p), np.ones(p), np.ones(p))


def surrogate_gap(state: IpmState) -> float:
    return float(state.s_hi @ state.mu_hi + state.s_lo @ state.mu_lo)


def residual(state: IpmState, tau: float) -> np.ndarray:
    """Stacked KKT residual r_tau = (dual, centering-hi, centering-lo)."""
    p = len(state.nu)
    out = np.empty(3 * p)
    out[:p] = state.r_dual
    np.multiply(state.mu_hi, state.s_hi, out=out[p:2 * p])
    np.multiply(state.mu_lo, state.s_lo, out=out[2 * p:])
    out[p:] -= 1.0 / tau
    return out


def newton_step(problem: BoxQP, state: IpmState, res: np.ndarray):
    """Newton direction solving J dz = -res, for res = residual(state, tau),
    via multiplier elimination.

    Substituting the two centering rows into the dual row collapses the
    3p x 3p system to one banded SPD solve in the nu block.
    """
    p = problem.dim
    r_dual, r_cent_hi, r_cent_lo = res[:p], res[p:2 * p], res[2 * p:]
    d = state.mu_hi / state.s_hi + state.mu_lo / state.s_lo
    rhs = -r_dual + r_cent_hi / state.s_hi - r_cent_lo / state.s_lo

    # Q can be singular (the mixed filter's stacked operator has dependent
    # rows), leaving positive definiteness to the barrier diagonal alone;
    # when that diagonal is tiny, rounding can push a Cholesky pivot
    # nonpositive, so retry with an escalating jitter before giving up.
    # Raise inside the handler: an exception kept in a local holds this frame
    # by its traceback, a cycle that pins the arrays until a collector pass.
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


def solve_box_qp(problem: BoxQP) -> IpmSolution:
    """Minimize the box QP until its gap and dual residual reach ``TOL``."""
    tol, max_iter = TOL, MAX_ITER  # read per call, so a test can patch them
    # Once a slack rounds to zero the Newton system is non-finite, and once
    # the gap overflows the barrier is undefined: either way the loop raises
    # ConvergenceError, and numpy's warnings would only repeat that.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = problem.dim
        m = 2 * p
        state = initial_state(problem)
        gaps = [surrogate_gap(state)]
        iterations = 0
        tau = MU_MULT * m / gaps[0]

        while True:
            eta = gaps[-1]
            if not math.isfinite(eta):
                raise ConvergenceError(f"non-finite duality gap {eta:g} "
                                       f"after {iterations} iterations")
            converged = eta <= tol and float(np.max(np.abs(state.r_dual))) <= tol
            if converged or iterations >= max_iter:
                break

            tau = MU_MULT * m / eta
            res = residual(state, tau)
            try:
                d_nu, d_mu_hi, d_mu_lo = newton_step(problem, state, res)
            except ValueError as exc:  # band_solve's finiteness check
                raise ConvergenceError(f"non-finite Newton system in iteration "
                                       f"{iterations + 1}") from exc

            base_norm = np.linalg.norm(res)
            # Largest step keeping the multipliers positive and nu strictly in
            # the box. Python's min ignores a NaN ratio, and with it that pair.
            alpha = 1.0 / BOUNDARY_FRACTION
            for value, rate in ((state.mu_hi, -d_mu_hi), (state.mu_lo, -d_mu_lo),
                                (state.s_hi, d_nu), (state.s_lo, -d_nu)):
                ratios = np.divide(value, rate, out=np.full(p, np.inf), where=rate > 0)
                alpha = min(alpha, ratios.min())
            alpha = min(1.0, BOUNDARY_FRACTION * alpha)

            while alpha >= MIN_STEP:
                trial = IpmState.at(problem, state.nu + alpha * d_nu,
                                    state.mu_hi + alpha * d_mu_hi,
                                    state.mu_lo + alpha * d_mu_lo)
                decrease = 1.0 - BACKTRACK_SLOPE * alpha
                # Endgame: once the dual residual sits at its rounding floor the
                # stacked norm cannot shrink further, but a centering step that
                # stays dual-feasible and strictly reduces the gap is still
                # progress toward the termination test.
                if (np.linalg.norm(residual(trial, tau)) <= decrease * base_norm
                        or (np.max(np.abs(trial.r_dual)) <= tol
                            and surrogate_gap(trial) <= decrease * eta)):
                    state = trial
                    break
                alpha *= BACKTRACK_STEP
            else:
                break  # stalled; report the best iterate below
            iterations += 1
            gaps.append(surrogate_gap(state))

        return IpmSolution(
            nu_star=state.nu,
            iterations=iterations,
            duality_gap=eta,
            kkt_residual=float(np.max(np.abs(residual(state, tau)))),
            converged=converged,
            gap_history=np.asarray(gaps),
        )
