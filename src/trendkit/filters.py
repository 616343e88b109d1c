"""Trend extraction filters.

Five filters share one recipe: trade closeness to the data against a
penalty on discrete derivatives of the fitted trend.

* ``hp_filter``       quadratic penalty, closed-form banded solve
* ``l1_filter``       L1 penalty on first or second differences; the fit
                      is piecewise constant (order 1) or piecewise
                      linear (order 2)
* ``l1tc_filter``     both L1 penalties with separate weights
* ``l1t_multivariate`` common piecewise-linear trend of several series:
                      the order-2 ``l1_filter`` of their cross-sectional mean
* ``detect_breaks``   positions where the fitted trend changes regime

Every L1 filter is one problem, 1/2 ||y - x||^2 plus weighted L1 norms
of first and/or second differences, fitted on one path that also decides
convergence. With every weight zero the fit is the data; order 1 alone
is solved exactly by :mod:`trendkit.tv`; otherwise the dual box QP in the
split variables goes to :mod:`trendkit.ipm`, and the trend is the data
minus the transposed difference operators applied to the dual optimum.

The rules on the data are the difference operator's
(:class:`trendkit.banded.DiffOperator`), so every function here applies
them alike: a series no longer than the order is an
``InsufficientHistoryError``, and differences that overflow a ``DataError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import ipm
from .banded import band_solve, diff_operator, gram_banded, hp_banded, interleave
from .errors import ConvergenceError, DataError, NumericalError
from .ipm import BoxQP, IpmSolution, solve_box_qp
from .series import as_values
from .tv import tv_denoise

__all__ = [
    "FilterResult",
    "check_weight",
    "hp_filter",
    "l1_filter",
    "l1tc_filter",
    "l1t_multivariate",
    "detect_breaks",
    "l1_objective",
    "l1tc_objective",
]


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


def check_weight(name: str, lam) -> float:
    """Reject a penalty weight that is negative, infinite or NaN; return it
    as a float, with -0.0 as 0.0."""
    if lam < 0:
        raise ValueError(f"{name} must be non-negative, got {lam}")
    if not math.isfinite(lam):
        raise ValueError(f"{name} must be finite, got {lam}")
    return float(lam) or 0.0


def _l1_fit(values: np.ndarray, weights: dict):
    """Minimize 1/2 ||y - x||^2 + sum_k lam_k ||D_k x||_1, where ``weights``
    maps each difference order k to its checked weight lam_k.

    Returns the trend, each order's dual block (zeros where lam_k = 0) and
    the certificate, which is None when no weight is active and the fit is
    y itself. Order 1 alone is solved exactly by :func:`tv_denoise`; any
    other set of active orders is one box QP for :func:`solve_box_qp`. Every
    L1 solve that misses ``ipm.TOL`` raises :class:`ConvergenceError` here,
    with the solve's message and its record as ``diagnostics``.
    """
    ops = {order: diff_operator(order, len(values)) for order in weights}
    duals = {order: np.zeros(op.rows) for order, op in ops.items()}
    active = {order: lam for order, lam in weights.items() if lam}
    if not active:
        return values.copy(), duals, None
    # D y of the data: the QP's linear term, and on every path the overflow check
    rows = [ops[order].apply(values) for order in active]
    if list(active) == [1]:
        trend, duals[1], gap, residual = tv_denoise(values, active[1])
        failure = (None if gap <= ipm.TOL else
                   f"direct order-1 solve left duality gap {gap:.3e} above {ipm.TOL:g}")
        solution = IpmSolution(duals[1], 0, gap, residual, failure)
    else:
        upper = [np.full(ops[order].rows, lam) for order, lam in active.items()]
        problem = BoxQP(gram_banded(*(ops[order] for order in active)),
                        interleave(*rows), interleave(*upper))
        solution = solve_box_qp(problem)
        trend = values
        for k, order in enumerate(active):
            duals[order] = solution.nu_star[k::len(active)]
            trend = trend - ops[order].apply_transpose(duals[order])
    if not solution.converged:
        raise ConvergenceError(solution.failure, diagnostics=solution)
    return trend, duals, solution


def hp_filter(y, lam: float, order: int = 2) -> FilterResult:
    """Quadratic trend filter: solve (I + 2*lam*D'D) x = y.

    ``order=2`` is the classic smoothness penalty on curvature;
    ``order=1`` penalizes level changes instead, which suits
    mean-reverting signals.
    """
    values = as_values(y)
    lam = check_weight("lam", lam)
    if order not in (1, 2):  # here too, as weight 0 builds no operator
        raise ValueError(f"order must be 1 or 2, got {order}")
    if lam == 0:
        return FilterResult(values.copy(), None, lam, None, values)
    with np.errstate(over="ignore", invalid="ignore"):
        system = hp_banded(diff_operator(order, len(values)), lam)
    if not np.isfinite(system.bands).all():
        raise NumericalError(f"quadratic filter system overflows at weight {lam:g}")
    trend = band_solve(system, values)
    if not np.isfinite(trend).all():
        raise NumericalError("quadratic filter solve overflowed on finite data")
    return FilterResult(trend, None, lam, None, values)


def l1_filter(y, lam: float, order: int = 2) -> FilterResult:
    """L1 trend filter: minimize 1/2 ||y - x||^2 + lam * ||D x||_1.

    Order 2 is solved through the dual box QP min 1/2 v'DD'v - (Dy)'v
    over |v| <= lam, with the trend recovered as x = y - D'v. Order 1 is
    solved exactly by :func:`trendkit.tv.tv_denoise`, which reports no
    iterations; ``ipm.TOL`` bounds the duality gap of its certificate in
    both cases.
    """
    values = as_values(y)
    lam = check_weight("lam", lam)
    trend, duals, solution = _l1_fit(values, {order: lam})
    return FilterResult(trend, duals[order], lam, solution, values)


def l1tc_filter(y, lam1: float, lam2: float) -> FilterResult:
    """Mixed filter: 1/2 ||y - x||^2 + lam1 ||D1 x||_1 + lam2 ||D2 x||_1.

    The dual stacks both difference operators; the box bound is lam1 on
    the n-1 first-difference components and lam2 on the n-2
    second-difference components.
    """
    values = as_values(y)
    lams = (check_weight("lam1", lam1), check_weight("lam2", lam2))
    trend, duals, solution = _l1_fit(values, {1: lams[0], 2: lams[1]})
    return FilterResult(trend, np.concatenate([duals[1], duals[2]]), lams, solution, values)


def l1t_multivariate(ys, lam: float, standardize: bool = False) -> FilterResult:
    """Common piecewise-linear trend of m series of equal length.

    The stacked problem reduces exactly to the univariate filter applied
    to the cross-sectional mean, so the result is ``l1_filter`` of that
    mean at order 2, with the mean as ``observed``. With ``standardize``
    each series is centered and divided by its standard deviation first.
    """
    rows = [as_values(s) for s in ys]
    if not rows:
        raise ValueError("need at least one series")
    n = len(rows[0])
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != n:
            raise DataError(f"series {i} has length {len(row)}, expected {n}")
    data = np.vstack(rows)
    if standardize:
        stds = data.std(axis=1)
        # a constant row's std can round to 1e-17, and a non-constant one's to 0
        flat = (np.ptp(data, axis=1) == 0) | (stds == 0)
        if np.any(flat):
            error = DataError(f"series {int(np.argmax(flat))} is constant; cannot standardize")
            error.series = int(np.argmax(flat))  # the row, for a caller that names it
            raise error
        data = (data - data.mean(axis=1)[:, None]) / stds[:, None]
    return l1_filter(data.mean(axis=0), lam, order=2)


def detect_breaks(result: FilterResult, order: int) -> list:
    """Sample indices where the fitted trend changes slope (order 2) or level (order 1).

    A break is reported at the first sample of the new regime: index
    i + 1 for an i-th difference row above the threshold. The threshold
    is 1e-6 times the peak magnitude of the observed data (1e-12 for
    all-zero data), which separates true kinks from the solver's
    near-zero residual curvature.
    """
    trend = result.trend
    d = diff_operator(order, len(trend)).apply(trend)
    scale = float(np.max(np.abs(result.observed))) if len(result.observed) else 0.0
    tol = 1e-6 * scale if scale > 0 else 1e-12
    return [int(i) + 1 for i in np.flatnonzero(np.abs(d) > tol)]


def l1_objective(y, x, lam: float, order: int) -> float:
    """Primal objective 1/2 ||y - x||^2 + lam ||D x||_1."""
    y = as_values(y)
    x = as_values(x)
    penalty = float(np.sum(np.abs(diff_operator(order, len(y)).apply(x))))
    return 0.5 * float(np.sum((y - x) ** 2)) + lam * penalty


def l1tc_objective(y, x, lam1: float, lam2: float) -> float:
    """Primal objective with both difference penalties."""
    y, x = as_values(y), as_values(x)
    op2 = diff_operator(2, len(y))
    return l1_objective(y, x, lam1, 1) + lam2 * float(np.sum(np.abs(op2.apply(x))))
