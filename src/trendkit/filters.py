"""Trend extraction filters.

Five filters share one recipe: trade closeness to the data against a
penalty on discrete derivatives of the fitted trend.

* ``hp_filter``       quadratic penalty, closed-form banded solve
* ``l1_filter``       L1 penalty on first or second differences; the fit
                      is piecewise constant (order 1) or piecewise
                      linear (order 2)
* ``l1tc_filter``     both L1 penalties with separate weights
* ``l1t_multivariate`` common piecewise-linear trend of several series
* ``detect_breaks``   positions where the fitted trend changes regime

The order-1 L1 filter is solved exactly by :mod:`trendkit.tv`. Every
other L1 variant is solved through its dual: a box-constrained QP in the
split variables, handed to :mod:`trendkit.ipm`, with the primal trend
recovered as the data minus the transposed difference operator applied
to the dual optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .banded import (
    diff_operator, gram_banded, hp_solve, interleave, tc_gram_banded,
)
from .errors import ConvergenceError
from .ipm import BoxQP, IpmSolution, solve_box_qp
from .series import as_values
from .tv import tv_denoise

__all__ = [
    "FilterResult",
    "Standardization",
    "hp_filter",
    "l1_filter",
    "l1tc_filter",
    "l1t_multivariate",
    "detect_breaks",
    "l1_objective",
    "l1tc_objective",
]


@dataclass(frozen=True)
class Standardization:
    """Per-series centering/scaling applied before a multivariate fit."""

    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class FilterResult:
    """Fitted trend plus the dual certificate and solver diagnostics.

    ``dual`` is None for the quadratic filter (no box QP involved) and
    for the L1 filters holds the dual optimum in first-then-second
    difference order. ``lam`` echoes the penalty weights used (a pair
    for the mixed filter).
    """

    trend: np.ndarray
    dual: Optional[np.ndarray]
    lam: Union[float, tuple]
    diagnostics: Optional[IpmSolution]
    observed: np.ndarray
    standardization: Optional[Standardization] = None

    def __len__(self) -> int:
        return len(self.trend)


def _check_weight(name: str, lam) -> None:
    """Reject a penalty weight that is negative, infinite or NaN."""
    if lam < 0:
        raise ValueError(f"{name} must be non-negative, got {lam}")
    if not math.isfinite(lam):
        raise ValueError(f"{name} must be finite, got {lam}")


def _solve_l1_dual(problem: BoxQP, tol: float, max_iter: int) -> IpmSolution:
    solution = solve_box_qp(problem, tol=tol, max_iter=max_iter)
    if not solution.converged:
        raise ConvergenceError(
            f"interior-point solver stopped after {solution.iterations} iterations "
            f"with duality gap {solution.duality_gap:.3e}",
            diagnostics=solution,
        )
    return solution


def hp_filter(y, lam: float, order: int = 2) -> FilterResult:
    """Quadratic trend filter: solve (I + 2*lam*D'D) x = y.

    ``order=2`` is the classic smoothness penalty on curvature;
    ``order=1`` penalizes level changes instead, which suits
    mean-reverting signals.
    """
    values = as_values(y)
    _check_weight("lam", lam)
    if lam == 0:
        return FilterResult(values.copy(), None, 0.0, None, values)
    trend = hp_solve(order, lam, values)
    return FilterResult(trend, None, float(lam), None, values)


def l1_filter(
    y,
    lam: float,
    order: int = 2,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> FilterResult:
    """L1 trend filter: minimize 1/2 ||y - x||^2 + lam * ||D x||_1.

    Order 2 is solved through the dual box QP min 1/2 v'DD'v - (Dy)'v
    over |v| <= lam, with the trend recovered as x = y - D'v. Order 1 is
    solved exactly by :func:`trendkit.tv.tv_denoise`, which reports no
    iterations and ignores ``max_iter``; ``tol`` bounds the duality gap
    of its certificate in both cases.
    """
    values = as_values(y)
    _check_weight("lam", lam)
    op = diff_operator(order, len(values))
    if lam == 0:
        return FilterResult(values.copy(), np.zeros(op.rows), 0.0, None, values)
    if order == 1:
        if tol <= 0:
            raise ValueError("tol must be positive")
        trend, nu, gap, residual = tv_denoise(values, float(lam))
        solution = IpmSolution(nu, 0, gap, residual, gap <= tol)
        if not solution.converged:
            raise ConvergenceError(
                f"direct order-1 solve left duality gap {gap:.3e} above {tol:g}",
                diagnostics=solution,
            )
        return FilterResult(trend, nu, float(lam), solution, values)
    problem = BoxQP(
        Q=gram_banded(op),
        r=op.apply(values),
        upper=np.full(op.rows, float(lam)),
    )
    solution = _solve_l1_dual(problem, tol, max_iter)
    trend = values - op.apply_transpose(solution.nu_star)
    return FilterResult(trend, solution.nu_star, float(lam), solution, values)


def l1tc_filter(
    y,
    lam1: float,
    lam2: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> FilterResult:
    """Mixed filter: 1/2 ||y - x||^2 + lam1 ||D1 x||_1 + lam2 ||D2 x||_1.

    The dual stacks both difference operators; the box bound is lam1 on
    the n-1 first-difference components and lam2 on the n-2
    second-difference components.
    """
    values = as_values(y)
    _check_weight("lam1", lam1)
    _check_weight("lam2", lam2)
    n = len(values)
    op1 = diff_operator(1, n)
    op2 = diff_operator(2, n)

    if lam1 == 0.0 and lam2 == 0.0:
        dual = np.zeros(op1.rows + op2.rows)
        return FilterResult(values.copy(), dual, (0.0, 0.0), None, values)
    if lam1 == 0.0:
        base = l1_filter(values, lam2, order=2, tol=tol, max_iter=max_iter)
        dual = np.concatenate([np.zeros(op1.rows), base.dual])
        return FilterResult(base.trend, dual, (0.0, float(lam2)), base.diagnostics, values)
    if lam2 == 0.0:
        base = l1_filter(values, lam1, order=1, tol=tol, max_iter=max_iter)
        dual = np.concatenate([base.dual, np.zeros(op2.rows)])
        return FilterResult(base.trend, dual, (float(lam1), 0.0), base.diagnostics, values)

    problem = BoxQP(
        Q=tc_gram_banded(n),
        r=interleave(op1.apply(values), op2.apply(values)),
        upper=interleave(np.full(op1.rows, lam1), np.full(op2.rows, lam2)),
    )
    solution = _solve_l1_dual(problem, tol, max_iter)
    nu1 = solution.nu_star[0::2]
    nu2 = solution.nu_star[1::2]
    trend = values - op1.apply_transpose(nu1) - op2.apply_transpose(nu2)
    dual = np.concatenate([nu1, nu2])
    return FilterResult(trend, dual, (float(lam1), float(lam2)), solution, values)


def l1t_multivariate(
    ys,
    lam: float,
    standardize: bool = False,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> FilterResult:
    """Common piecewise-linear trend of m series of equal length.

    The stacked problem reduces exactly to the univariate filter applied
    to the cross-sectional mean, so that is how it is solved. With
    ``standardize`` each series is centered and divided by its standard
    deviation first; the statistics are kept on the result so the trend
    can be mapped back to original units.
    """
    rows = [as_values(s) for s in ys]
    if not rows:
        raise ValueError("need at least one series")
    n = len(rows[0])
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != n:
            raise ValueError(f"series {i} has length {len(row)}, expected {n}")
    data = np.vstack(rows)

    standardization = None
    if standardize:
        means = data.mean(axis=1)
        stds = data.std(axis=1)
        if np.any(stds == 0):
            bad = int(np.flatnonzero(stds == 0)[0])
            raise ValueError(f"series {bad} is constant; cannot standardize")
        data = (data - means[:, None]) / stds[:, None]
        standardization = Standardization(means=means, stds=stds)

    mean_series = data.mean(axis=0)
    base = l1_filter(mean_series, lam, order=2, tol=tol, max_iter=max_iter)
    return FilterResult(
        trend=base.trend,
        dual=base.dual,
        lam=base.lam,
        diagnostics=base.diagnostics,
        observed=mean_series,
        standardization=standardization,
    )


def detect_breaks(result: FilterResult, order: int, tol: Optional[float] = None) -> list:
    """Sample indices where the fitted trend changes slope (order 2) or level (order 1).

    A break is reported at the first sample of the new regime: index
    i + 1 for a nonzero i-th difference row. The default threshold is
    1e-6 times the peak magnitude of the observed data, which separates
    true kinks from the solver's near-zero residual curvature.
    """
    trend = result.trend
    op = diff_operator(order, len(trend))
    d = op.apply(trend)
    if tol is None:
        scale = float(np.max(np.abs(result.observed))) if len(result.observed) else 0.0
        tol = 1e-6 * scale if scale > 0 else 1e-12
    return [int(i) + 1 for i in np.flatnonzero(np.abs(d) > tol)]


def l1_objective(y, x, lam: float, order: int) -> float:
    """Primal objective 1/2 ||y - x||^2 + lam ||D x||_1."""
    y = as_values(y)
    x = as_values(x)
    op = diff_operator(order, len(y))
    return 0.5 * float(np.sum((y - x) ** 2)) + lam * float(np.sum(np.abs(op.apply(x))))


def l1tc_objective(y, x, lam1: float, lam2: float) -> float:
    """Primal objective with both difference penalties."""
    y = as_values(y)
    x = as_values(x)
    op1 = diff_operator(1, len(y))
    op2 = diff_operator(2, len(y))
    return (
        0.5 * float(np.sum((y - x) ** 2))
        + lam1 * float(np.sum(np.abs(op1.apply(x))))
        + lam2 * float(np.sum(np.abs(op2.apply(x))))
    )
