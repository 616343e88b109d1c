"""Time-indexed value sequences.

A :class:`Series` is the common currency between the filters, the
calibration procedures, and the backtest engine: a strictly increasing
time axis (integer indices or ISO date strings) paired with finite
float observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Series:
    """Strictly increasing time stamps with one finite value per stamp."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1:
            raise DataError("times and values must be one-dimensional")
        if len(times) != len(values):
            raise DataError(
                f"length mismatch: {len(times)} times vs {len(values)} values"
            )
        if len(values) < 2:
            raise DataError(f"series needs at least 2 samples, got {len(values)}")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"non-finite value at position {bad}")
        order = times[1:] > times[:-1]
        if not np.all(order):
            bad = int(np.flatnonzero(~order)[0]) + 1
            raise DataError(f"times not strictly increasing at position {bad}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values) -> "Series":
        """Wrap a plain vector with 0..n-1 integer time stamps."""
        values = np.asarray(values, dtype=float)
        return cls(times=np.arange(len(values)), values=values)


def as_values(y) -> np.ndarray:
    """Accept a Series or any 1-d array-like of finite values and return a
    float vector."""
    if isinstance(y, Series):
        return y.values
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise DataError("expected a one-dimensional signal")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DataError(f"non-finite value at position {bad}")
    return arr
