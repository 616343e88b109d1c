"""Difference operators and banded symmetric positive-definite solves.

Every filter in the package reduces to linear algebra with first/second
difference operators and narrow-banded SPD systems, so both live here:

* :class:`DiffOperator` applies the (-1, 1) or (1, -2, 1) stencils and
  their transposes in O(n) without materializing the matrix. It owns the
  two rules every filter relies on: a series needs more samples than the
  order (:class:`InsufficientHistoryError`), and its differences must be
  finite (:class:`DataError`).
* :class:`BandedSymMatrix` stores an SPD matrix by its lower diagonals
  and solves against it with a band Cholesky factorization.
* :func:`gram_banded` and :func:`hp_banded` write the systems of the L1
  duals (one order, or both interleaved) and of the quadratic filter
  straight into band storage from the stencils, in O(n).
* :func:`band_solve` calls LAPACK's band Cholesky directly, from scipy's
  compiled wrapper ``scipy.linalg._flapack`` loaded from its file: that
  skips scipy's package import and ``scipy.linalg``'s Python modules, half
  the start-up. A later ``import scipy.linalg`` reuses the loaded module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientHistoryError, NotPositiveDefiniteError


def _load_flapack():
    """``scipy.linalg._flapack``, loaded from its file without importing scipy."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK wrapper _flapack not found in {directory}")


lapack = _load_flapack()

_STENCILS = {1: (-1.0, 1.0), 2: (1.0, -2.0, 1.0)}


@dataclass(frozen=True)
class DiffOperator:
    """Discrete difference operator of order 1 or 2 on signals of length n.

    Order 1 maps x to consecutive differences x[i+1] - x[i] (n-1 rows);
    order 2 maps x to second differences x[i] - 2 x[i+1] + x[i+2]
    (n-2 rows). Order 1 annihilates constants, order 2 annihilates
    affine sequences. n <= order raises :class:`InsufficientHistoryError`.
    """

    order: int
    n: int

    def __post_init__(self):
        if self.order not in _STENCILS:
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.n <= self.order:
            raise InsufficientHistoryError(
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
        """Compute D v for a length-n vector v; a difference that overflows
        is a :class:`DataError`."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {v.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            d = v[1:] - v[:-1] if self.order == 1 else v[:-2] - 2.0 * v[1:-1] + v[2:]
        if not np.isfinite(d).all():
            raise DataError(f"order-{self.order} differences of the data overflow")
        return d

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
        """Return A + diag(d) with the same band structure, laid out for
        :func:`band_solve`: Fortran order, which ``dpbsv`` reads without the
        transposing copy f2py makes of C-ordered bands, except for a
        tridiagonal A, whose two rows ``dptsv`` reads as contiguous vectors."""
        bands = np.empty_like(self.bands, order="C" if self.bandwidth == 1 else "F")
        np.add(self.bands[0], d, out=bands[0])
        # row by row: numpy's own transposing copy of a few long rows is slower
        for k in range(1, self.bandwidth + 1):
            bands[k] = self.bands[k]
        return BandedSymMatrix(self.n, self.bandwidth, bands)


def _row_gram(stencils, rows: int) -> BandedSymMatrix:
    """Banded B B' for ``rows`` rows of B: row P*i + q holds stencils[q]
    from column i on (P = len(stencils)), so entry (r + k, r) is the same
    stencil inner product for every row r of one class q, and it is zero
    once row r + k starts past the end of stencils[q]."""
    period = len(stencils)
    width = min(max(period * len(a) - 1 - q for q, a in enumerate(stencils)), rows - 1)
    bands = np.zeros((width + 1, rows))
    for k in range(width + 1):
        for q, a in enumerate(stencils):
            shift, b = (q + k) // period, stencils[(q + k) % period]
            span = range(shift, min(len(a), shift + len(b)))
            bands[k, q:rows - k:period] = sum(a[j] * b[j - shift] for j in span)
    return BandedSymMatrix(n=rows, bandwidth=width, bands=bands)


def gram_banded(*ops: DiffOperator) -> BandedSymMatrix:
    """Banded D D' of one operator (tridiagonal for order 1, pentadiagonal
    for 2), or of orders 1 and 2 of one length stacked in the row order of
    :func:`interleave`: the first difference at i is row 2i and the second
    difference at i row 2i + 1, which keeps the bandwidth at 4 (2n - 4 for
    n < 4) instead of coupling rows n apart."""
    if [op.order for op in ops] not in ([1], [2], [1, 2]) or len({op.n for op in ops}) > 1:
        raise ValueError("need one operator, or orders 1 and 2 of one length")
    return _row_gram([op.stencil for op in ops], sum(op.rows for op in ops))


def interleave(*parts) -> np.ndarray:
    """Merge P parts entry by entry in the row order of :func:`gram_banded`:
    entry i of part q goes to position P*i + q. A lone part is returned
    as it is, not copied."""
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=float)
    out = np.empty(sum(len(part) for part in parts))
    for q, part in enumerate(parts):
        out[q::len(parts)] = part
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


def band_solve(A: BandedSymMatrix, b, overwrite: bool = False) -> np.ndarray:
    """Solve A x = b by band Cholesky (A must be positive definite).

    Calls LAPACK directly: ``dptsv`` for a tridiagonal A and ``dpbsv``
    otherwise, the routines ``scipy.linalg.solveh_banded`` picks, so the
    solution is bit for bit the same. Non-finite input raises ValueError.
    ``overwrite`` lets LAPACK factor A's bands and solve in b (contiguous
    floats) in place, with no copies; a failed factorization leaves b.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"rhs length {b.shape} does not match matrix size {A.n}")
    if not (np.isfinite(A.bands).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if A.bandwidth == 1:
        _, _, x, info = lapack.dptsv(A.bands[0], A.bands[1, :-1], b, *[overwrite] * 3)
    else:
        _, x, info = lapack.dpbsv(A.bands, b, lower=1, overwrite_ab=overwrite,
                                  overwrite_b=overwrite)
    if info > 0:
        raise NotPositiveDefiniteError(f"band Cholesky failed on a {A.n}x{A.n} system: "
                                       f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x
