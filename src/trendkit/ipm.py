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

Each solve allocates its buffers once: the iterate and a trial point,
swapped when the line search accepts it, and the direction. Each point is
evaluated once, with its one product Q nu. Every solve returns its last
accepted iterate, and ``failure`` says why a solve stopped short of ``TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
            raise ValueError(f"dimension mismatch: Q is {self.Q.n}, "
                             f"r {r.shape}, upper {upper.shape}")
        if not np.all(upper > 0):
            raise ValueError("all box bounds must be strictly positive")
        if not np.isfinite(r).all():  # bad data, unlike a non-finite Newton system
            raise ValueError("array must not contain infs or NaNs")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.Q.n


class IpmState:
    """Strictly feasible point (-upper < nu < upper, multipliers > 0) in
    three buffers: ``nu``, ``ms`` = [mu_hi, mu_lo, s_hi, s_lo] and ``res`` =
    [r_dual, r_cent], with the dual residual Q nu - r + mu_hi - mu_lo and
    the centering rows :func:`residual` fills. The other fields are views."""

    def __init__(self, p: int):
        self.nu, self.ms, self.res = np.empty(p), np.empty(4 * p), np.empty(3 * p)
        self.mu, self.s = self.ms[:2 * p], self.ms[2 * p:]
        self.mu_hi, self.mu_lo, self.s_hi, self.s_lo = np.split(self.ms, 4)
        self.r_dual, self.r_cent = self.res[:p], self.res[p:]

    @classmethod
    def at(cls, problem: BoxQP, nu, mu_hi, mu_lo) -> "IpmState":
        state = cls(problem.dim)
        state.nu[:], state.mu_hi[:], state.mu_lo[:] = nu, mu_hi, mu_lo
        return state._evaluate(problem)

    def step(self, problem: BoxQP, base: "IpmState", alpha: float, dz) -> "IpmState":
        """Become base + alpha (d_nu, d_mu) for dz = [d_mu, -d_nu, d_nu]."""
        np.multiply(dz[3 * problem.dim:], alpha, out=self.nu)
        self.nu += base.nu
        np.multiply(dz[:2 * problem.dim], alpha, out=self.mu)
        self.mu += base.mu
        return self._evaluate(problem)

    def _evaluate(self, problem: BoxQP) -> "IpmState":
        np.subtract(problem.upper, self.nu, out=self.s_hi)
        np.add(self.nu, problem.upper, out=self.s_lo)
        np.subtract(problem.Q.matvec(self.nu), problem.r, out=self.r_dual)
        self.r_dual += self.mu_hi
        self.r_dual -= self.mu_lo
        return self


@dataclass(frozen=True)
class IpmSolution:
    nu_star: np.ndarray
    iterations: int
    duality_gap: float
    kkt_residual: float
    failure: Optional[str]  # how the solve stopped short of TOL; None once converged
    gap_history: np.ndarray = field(repr=False, default=None)

    @property
    def converged(self) -> bool:
        return self.failure is None


def initial_state(problem: BoxQP) -> IpmState:
    """Center start: nu = 0 (strictly interior), unit multipliers."""
    return IpmState.at(problem, 0.0, 1.0, 1.0)


def surrogate_gap(state: IpmState) -> float:
    return float(state.s_hi @ state.mu_hi + state.s_lo @ state.mu_lo)


def residual(state: IpmState, tau: float) -> np.ndarray:
    """Stacked KKT residual r_tau = (dual, centering-hi, centering-lo): the
    state's ``res``, whose centering rows mu * s - 1/tau this fills."""
    np.multiply(state.mu, state.s, out=state.r_cent)
    state.r_cent -= 1.0 / tau
    return state.res


def newton_step(problem: BoxQP, state: IpmState, res: np.ndarray, out=None):
    """Newton direction solving J dz = -res, for res = residual(state, tau),
    via multiplier elimination: views (d_nu, d_mu_hi, d_mu_lo) of ``out``,
    a 4p array left holding [d_mu_hi, d_mu_lo, -d_nu, d_nu].

    Substituting the two centering rows into the dual row collapses the
    3p x 3p system to one banded SPD solve in the nu block, which LAPACK
    solves in place in the d_nu slot of ``out``.
    """
    p = problem.dim
    out = np.empty(4 * p) if out is None else out
    r_dual, r_cent, d, rhs = res[:p], res[p:], out[:p], out[3 * p:]
    np.divide(state.mu, state.s, out=out[:2 * p])
    np.add(d, out[p:2 * p], out=d)  # mu_hi / s_hi + mu_lo / s_lo
    np.divide(r_cent, state.s, out=out[p:3 * p])
    np.subtract(out[p:2 * p], r_dual, out=rhs)
    rhs -= out[2 * p:3 * p]  # -r_dual + r_cent_hi / s_hi - r_cent_lo / s_lo

    # Q can be singular (the mixed filter's stacked operator has dependent
    # rows), leaving positive definiteness to the barrier diagonal alone;
    # when that diagonal is tiny, rounding can push a Cholesky pivot
    # nonpositive, so retry with an escalating jitter before giving up.
    # Raise inside the handler: an exception kept in a local holds this frame
    # by its traceback, a cycle that pins the arrays until a collector pass.
    jitter = 0.0
    for attempt in range(6):
        try:
            band_solve(problem.Q.add_diagonal(d + jitter if jitter else d), rhs, overwrite=True)
            break
        except NotPositiveDefiniteError as exc:
            if attempt == 5:
                raise ConvergenceError(f"singular Newton system: {exc}") from exc
            unit = 1e-13 * (1.0 + float(np.max(np.abs(problem.Q.bands[0]))))
            jitter = unit if jitter == 0.0 else 10.0 * jitter
    # d_mu = (mu * (d_nu, -d_nu) - r_cent) / s, which is bit for bit
    # ((-r_cent_hi + mu_hi d_nu) / s_hi, (-r_cent_lo - mu_lo d_nu) / s_lo)
    np.negative(rhs, out=out[2 * p:3 * p])
    np.multiply(state.mu_hi, rhs, out=d)
    np.multiply(state.mu_lo, out[2 * p:3 * p], out=out[p:2 * p])
    np.subtract(out[:2 * p], r_cent, out=out[:2 * p])
    np.divide(out[:2 * p], state.s, out=out[:2 * p])
    return rhs, d, out[p:2 * p]


def solve_box_qp(problem: BoxQP) -> IpmSolution:
    """Minimize the box QP until its gap and dual residual reach ``TOL``, or fail."""
    tol, max_iter = TOL, MAX_ITER  # read per call, so a test can patch them
    # Once a slack rounds to zero the Newton system is non-finite, and once
    # the gap overflows the barrier is undefined: either way the solve fails,
    # and numpy's warnings would only repeat that.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p, m = problem.dim, 2 * problem.dim
        state, trial, dz = initial_state(problem), IpmState(p), np.empty(4 * p)
        iterations, gaps, failure = 0, [surrogate_gap(state)], None
        tau = MU_MULT * m / np.float64(gaps[0])  # a start gap of inf: 1 / tau is inf, no raise

        while True:
            eta = gaps[-1]
            if not math.isfinite(eta):
                failure = f"non-finite duality gap {eta:g} after {iterations} iterations"
                break
            converged = eta <= tol and float(np.max(np.abs(state.r_dual))) <= tol
            if converged or iterations >= max_iter:
                break

            tau = MU_MULT * m / eta
            res = residual(state, tau)
            try:
                newton_step(problem, state, res, dz)
            except ValueError:  # band_solve's finiteness check
                failure = f"non-finite Newton system in iteration {iterations + 1}"
                break
            except ConvergenceError as exc:  # singular after every jitter
                failure = str(exc)
                break

            base_norm = math.sqrt(res.dot(res))  # np.linalg.norm's own sum
            # Largest step keeping ms = [mu, s] positive: -(ms / dz) at the
            # negative ratio nearest zero. Negative doubles' int64 bits sort below
            # all others, by magnitude, so argmin finds it with no mask (a divide
            # with where= loops once per run of the mask).
            ratios = np.divide(state.ms, dz, out=trial.ms)
            nearest = ratios[ratios.view(np.int64).argmin()]
            alpha = min(1.0 / BOUNDARY_FRACTION,
                        -nearest if math.copysign(1.0, nearest) < 0 else math.inf)
            alpha = min(1.0, BOUNDARY_FRACTION * alpha)

            while alpha >= MIN_STEP:
                trial.step(problem, state, alpha, dz)
                decrease = 1.0 - BACKTRACK_SLOPE * alpha
                res = residual(trial, tau)
                # Endgame: once the dual residual sits at its rounding floor the
                # stacked norm cannot shrink further, but a centering step that
                # stays dual-feasible and strictly reduces the gap is still
                # progress toward the termination test.
                if (math.sqrt(res.dot(res)) <= decrease * base_norm
                        or (np.max(np.abs(trial.r_dual)) <= tol
                            and surrogate_gap(trial) <= decrease * eta)):
                    state, trial = trial, state
                    break
                alpha *= BACKTRACK_STEP
            else:
                break  # stalled; report the best iterate below
            iterations += 1
            gaps.append(surrogate_gap(state))

        if failure is None and not converged:  # the iteration cap or a stalled line search
            failure = (f"interior-point solver stopped after {iterations} iterations "
                       f"with duality gap {eta:.3e}")
        kkt = float(np.max(np.abs(residual(state, tau))))
        return IpmSolution(state.nu, iterations, eta, kkt, failure, np.asarray(gaps))
