"""Difference operators and banded symmetric positive-definite solves.

Every filter in the package reduces to linear algebra with first/second
difference operators and narrow-banded SPD systems, so both live here:

* :class:`DiffOperator` applies the (-1, 1) or (1, -2, 1) stencils and
  their transposes in O(n) without materializing the matrix.
* :class:`BandedSymMatrix` stores an SPD matrix by its lower diagonals
  and solves against it with a band Cholesky factorization.
* :func:`gram_banded`, :func:`tc_gram_banded` and :func:`hp_banded`
  write the systems of the L1 duals, the mixed filter's dual and the
  quadratic filter straight into band storage from the stencils, in O(n).
* :func:`band_solve` and :func:`hp_solve` call LAPACK's band Cholesky
  directly; :func:`hp_solve` reuses one factor per quadratic-filter system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError

_STENCILS = {1: (-1.0, 1.0), 2: (1.0, -2.0, 1.0)}


@dataclass(frozen=True)
class DiffOperator:
    """Discrete difference operator of order 1 or 2 on signals of length n.

    Order 1 maps x to consecutive differences x[i+1] - x[i] (n-1 rows);
    order 2 maps x to second differences x[i] - 2 x[i+1] + x[i+2]
    (n-2 rows). Order 1 annihilates constants, order 2 annihilates
    affine sequences.
    """

    order: int
    n: int

    def __post_init__(self):
        if self.order not in _STENCILS:
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.n <= self.order:
            raise ValueError(
                f"signal length {self.n} too small for order {self.order}; "
                f"need at least {self.order + 1} samples"
            )

    @property
    def rows(self) -> int:
        return self.n - self.order

    @property
    def stencil(self) -> tuple:
        return _STENCILS[self.order]

    def apply(self, v) -> np.ndarray:
        """Compute D v for a length-n vector v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        if self.order == 1:
            return v[1:] - v[:-1]
        return v[:-2] - 2.0 * v[1:-1] + v[2:]

    def apply_transpose(self, u) -> np.ndarray:
        """Compute D^T u for a vector u of length n-order."""
        u = np.asarray(u, dtype=float)
        m = self.rows
        if u.shape != (m,):
            raise ValueError(f"expected vector of length {m}, got shape {u.shape}")
        out = np.zeros(self.n)
        for offset, coeff in enumerate(self.stencil):
            out[offset:offset + m] += coeff * u
        return out


def diff_operator(order: int, n: int) -> DiffOperator:
    """Build the order-1 or order-2 difference operator for length-n signals."""
    return DiffOperator(order=order, n=n)


@dataclass(frozen=True)
class BandedSymMatrix:
    """Symmetric banded matrix stored by its lower diagonals.

    ``bands`` has shape (bandwidth + 1, n): row 0 is the main diagonal,
    row k holds the k-th sub-diagonal in entries [0, n-k) with zero
    padding at the end (the layout scipy's banded Cholesky expects).
    """

    n: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=float)
        if bands.shape != (self.bandwidth + 1, self.n):
            raise ValueError(
                f"bands shape {bands.shape} inconsistent with "
                f"n={self.n}, bandwidth={self.bandwidth}"
            )
        if self.bandwidth > max(self.n - 1, 0):
            raise ValueError(
                f"bandwidth {self.bandwidth} exceeds size {self.n} of the matrix"
            )
        object.__setattr__(self, "bands", bands)

    def matvec(self, v) -> np.ndarray:
        """Compute A v in O(n * bandwidth)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        out = self.bands[0] * v
        for k in range(1, self.bandwidth + 1):
            d = self.bands[k, : self.n - k]
            out[k:] += d * v[:-k]
            out[:-k] += d * v[k:]
        return out

    def add_diagonal(self, d) -> "BandedSymMatrix":
        """Return A + diag(d) with the same band structure."""
        d = np.asarray(d, dtype=float)
        bands = self.bands.copy()
        bands[0] += d
        return BandedSymMatrix(self.n, self.bandwidth, bands)


def _row_gram(stencils, rows: int, width: int) -> BandedSymMatrix:
    """Banded B B' for ``rows`` rows of B: row P*i + q holds stencils[q]
    from column i on (P = len(stencils)), so entry (r + k, r) is the same
    stencil inner product for every row r of one class q."""
    period = len(stencils)
    width = min(width, rows - 1)
    bands = np.zeros((width + 1, rows))
    for k in range(width + 1):
        for q, a in enumerate(stencils):
            shift, b = (q + k) // period, stencils[(q + k) % period]
            span = range(shift, min(len(a), shift + len(b)))
            bands[k, q:rows - k:period] = sum(a[j] * b[j - shift] for j in span)
    return BandedSymMatrix(n=rows, bandwidth=width, bands=bands)


def gram_banded(op: DiffOperator) -> BandedSymMatrix:
    """Banded representation of D D^T (tridiagonal for order 1, pentadiagonal for 2)."""
    return _row_gram([op.stencil], op.rows, op.order)


def tc_gram_banded(n: int) -> BandedSymMatrix:
    """Banded Gram of the mixed filter's rows: the first difference at i
    is row 2i and the second difference at i row 2i + 1, which keeps the
    bandwidth at 4 (2n - 4 for n < 4) instead of coupling rows n apart."""
    return _row_gram([_STENCILS[1], _STENCILS[2]], 2 * n - 3, 4)


def interleave(first, second) -> np.ndarray:
    """Merge n-1 first- and n-2 second-difference entries in the row
    order of :func:`tc_gram_banded`."""
    out = np.empty(len(first) + len(second))
    out[0::2] = first
    out[1::2] = second
    return out


def hp_banded(op: DiffOperator, lam: float) -> BandedSymMatrix:
    """Banded I + 2 lam D'D, the system of the quadratic filter."""
    s, m = op.stencil, op.rows
    bands = np.zeros((op.order + 1, op.n))
    for k in range(op.order + 1):
        for j in range(len(s) - k):
            # difference row i adds s[j] * s[j + k] at (i + j + k, i + j)
            bands[k, j:j + m] += s[j] * s[j + k]
    bands *= 2.0 * lam
    bands[0] += 1.0
    return BandedSymMatrix(n=op.n, bandwidth=op.order, bands=bands)


def _require_finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _check_info(info: int, n: int):
    if info > 0:
        raise NotPositiveDefiniteError(
            f"band Cholesky failed on a {n}x{n} system: "
            f"{info}th leading minor not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")


def band_solve(A: BandedSymMatrix, b) -> np.ndarray:
    """Solve A x = b by band Cholesky (A must be positive definite).

    Calls LAPACK directly: ``dptsv`` for a tridiagonal A and ``dpbsv``
    otherwise, the routines ``scipy.linalg.solveh_banded`` picks, so the
    solution is bit for bit the same. Non-finite input raises ValueError.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"rhs length {b.shape} does not match matrix size {A.n}")
    _require_finite(A.bands, b)
    if A.bandwidth == 1:
        _, _, x, info = lapack.dptsv(A.bands[0], A.bands[1, :-1], b)
    else:
        _, x, info = lapack.dpbsv(A.bands, b, lower=1)
    _check_info(info, A.n)
    return x


@functools.lru_cache(maxsize=8)
def _hp_factor(order: int, n: int, lam: float):
    """Band Cholesky factor of :func:`hp_banded`, made once per (order, n, lam):
    ``dpttrf``'s (d, e) at order 1, ``dpbtrf``'s bands at order 2."""
    A = hp_banded(diff_operator(order, n), lam)
    _require_finite(A.bands)
    if order == 1:
        *factor, info = lapack.dpttrf(A.bands[0], A.bands[1, :-1])
    else:
        *factor, info = lapack.dpbtrf(A.bands, lower=1)
    _check_info(info, n)
    return factor


def hp_solve(order: int, lam: float, b) -> np.ndarray:
    """Solve (I + 2 lam D'D) x = b, D of the given order, with a factor
    cached per (order, len(b), lam); ``dptsv``/``dpbsv`` are exactly these
    factor and solve steps, so x is bit for bit :func:`band_solve`'s."""
    b = np.asarray(b, dtype=float)
    factor = _hp_factor(order, len(b), float(lam))
    _require_finite(b)
    if order == 1:
        x, info = lapack.dpttrs(*factor, b)
    else:
        x, info = lapack.dpbtrs(*factor, b, lower=1)
    _check_info(info, len(b))
    return x
