#!/usr/bin/env python3
"""Least-squares spectral calibration of the quadratic filter.

For each moving-average width T, fits the filter weight whose transfer
function best matches the moving average's and prints the ratio to the
closed-form width match 0.5 * (T / 2 pi)^4. The ratio is essentially
constant (~10.28) across widths, which is what hp_lambda_for_window
hard-codes.
"""

import argparse
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from trendkit.calibration import hp_lambda_for_window


def spectral_density(kind: str, omega, T: Optional[int] = None,
                     lam: Optional[float] = None):
    """Transfer-function power of the moving-average or quadratic filter.

    ``kind="ma"`` needs the window T: |sum_t exp(-i w t)|^2 / T^2.
    ``kind="hp"`` needs the weight lam: (1 + 4 lam (3 - 4 cos w + cos 2w))^-2.
    Both equal 1 at zero frequency.
    """
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if kind == "ma":
        if T is None or T < 1:
            raise ValueError("moving-average density needs a window T >= 1")
        phases = np.exp(-1j * np.outer(omega_arr, np.arange(T)))
        out = (np.abs(phases.sum(axis=1)) / T) ** 2
    elif kind == "hp":
        if lam is None or lam < 0:
            raise ValueError("quadratic-filter density needs lam >= 0")
        out = (1.0 + 4.0 * lam * (3.0 - 4.0 * np.cos(omega_arr)
                                  + np.cos(2.0 * omega_arr))) ** -2.0
    else:
        raise ValueError(f"kind must be 'ma' or 'hp', got {kind!r}")
    return float(out[0]) if np.ndim(omega) == 0 else out


def calibrate_l2_spectral(T: int, n_freq: Optional[int] = None) -> float:
    """Least-squares spectral match of the quadratic filter to a width-T
    moving average; the result tracks hp_lambda_for_window within a few
    percent."""
    if T < 4:
        raise ValueError(f"window must be at least 4, got {T}")
    if n_freq is None:
        n_freq = max(1024, 8 * T)  # resolve the 2*pi/T main lobe
    omega = np.pi * np.arange(n_freq + 1) / n_freq
    target = spectral_density("ma", omega, T=T)
    reference = 0.5 * (T / (2.0 * np.pi)) ** 4

    def objective(log_lam):
        return float(np.sum(
            (spectral_density("hp", omega, lam=np.exp(log_lam)) - target) ** 2
        ))

    result = minimize_scalar(
        objective,
        bounds=(np.log(reference * 0.05), np.log(reference * 2000.0)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if not result.success:
        raise RuntimeError(f"spectral calibration failed: {result.message}")
    return float(np.exp(result.x))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--windows", type=int, nargs="+",
                        default=[20, 65, 130, 260, 520])
    args = parser.parse_args()

    print(f"{'T':>6} {'fitted lambda':>16} {'closed form':>16} {'ratio':>8}")
    for T in args.windows:
        fitted = calibrate_l2_spectral(T)
        reference = 0.5 * (T / (2 * 3.141592653589793)) ** 4
        print(f"{T:>6} {fitted:16.4g} {hp_lambda_for_window(T):16.4g} "
              f"{fitted / reference:8.4f}")


if __name__ == "__main__":
    main()
