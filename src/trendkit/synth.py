"""Seeded generators for four synthetic benchmark processes.

All four share one regime-switching driver: a value that persists with
probability p each step and is otherwise redrawn as b*(U[0,1] - 1/2).
Model 1 integrates it as a slope (piecewise-linear trend plus noise),
model 2 integrates it inside a random walk, model 3 uses it directly as
a step level, and model 4 mean-reverts toward it at speed theta.

Randomness is split into two independent streams per seed, one for the
regime path and one for the observation noise, so the same seed yields
the same regime path regardless of the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .series import Series

__all__ = [
    "ModelParams",
    "MODEL_FIELDS",
    "default_params",
    "simulate_model1",
    "simulate_model2",
    "simulate_model3",
    "simulate_model4",
]


@dataclass(frozen=True)
class ModelParams:
    """Length, regime persistence, draw scale, noise level, reversion speed, seed."""

    n: int
    p: float
    b: float
    sigma: float
    theta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"persistence p must lie in [0, 1], got {self.p}")
        if not 0 <= self.sigma < np.inf:  # NaN fails too
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not np.isfinite(self.b):
            raise ValueError(f"draw scale b must be finite, got {self.b}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")


_DEFAULTS = {
    1: dict(n=2000, p=0.99, b=0.5, sigma=15.0),
    2: dict(n=2000, p=0.993, b=5.0, sigma=15.0),
    3: dict(n=2000, p=0.998, b=50.0, sigma=8.0),
    4: dict(n=2000, p=0.9985, b=20.0, sigma=2.0, theta=0.1),
}


# model -> the ModelParams fields its generator reads: only model 4 reverts at theta
MODEL_FIELDS = {model: {"n", "p", "b", "sigma", "seed", *(("theta",) if model == 4 else ())}
                for model in _DEFAULTS}


def default_params(model: int, **overrides) -> ModelParams:
    """Benchmark parameter set for the given model, with overrides."""
    if model not in _DEFAULTS:
        raise ValueError(f"model must be one of 1..4, got {model}")
    merged = {**_DEFAULTS[model], **overrides}
    return ModelParams(**merged)


def _streams(seed: int):
    regime_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(regime_ss), np.random.default_rng(noise_ss)


def _regime_path(rng, n: int, p: float, b: float) -> np.ndarray:
    """Persist-or-redraw value sequence; the initial value is itself a draw.

    Consumes n uniforms for candidate values, then n-1 for the
    persistence coin flips.
    """
    candidates = b * (rng.uniform(size=n) - 0.5)
    redraw = np.ones(n, dtype=bool)
    if n > 1:
        redraw[1:] = rng.uniform(size=n - 1) >= p
    last_draw = np.maximum.accumulate(np.where(redraw, np.arange(n), 0))
    return candidates[last_draw]


def simulate_model1(params: ModelParams):
    """Piecewise-linear trend plus white noise; returns (trend, observed)."""
    regime_rng, noise_rng = _streams(params.seed)
    v = _regime_path(regime_rng, params.n, params.p, params.b)
    x = np.concatenate([[0.0], np.cumsum(v[1:])])
    y = x + params.sigma * noise_rng.standard_normal(params.n)
    return x, y


def simulate_model2(params: ModelParams) -> Series:
    """Random walk with regime-switching drift; returns the observed series."""
    regime_rng, noise_rng = _streams(params.seed)
    v = _regime_path(regime_rng, params.n, params.p, params.b)
    eps = params.sigma * noise_rng.standard_normal(params.n - 1)
    y = np.concatenate([[0.0], np.cumsum(v[1:] + eps)])
    return Series.from_values(y)


def simulate_model3(params: ModelParams):
    """Step levels plus white noise; returns (levels, observed)."""
    regime_rng, noise_rng = _streams(params.seed)
    x = _regime_path(regime_rng, params.n, params.p, params.b)
    y = x + params.sigma * noise_rng.standard_normal(params.n)
    return x, y


def simulate_model4(params: ModelParams):
    """Mean reversion toward a regime-switching level; returns (means, observed)."""
    regime_rng, noise_rng = _streams(params.seed)
    x = _regime_path(regime_rng, params.n, params.p, params.b)
    eps = params.sigma * noise_rng.standard_normal(params.n)
    y = np.empty(params.n)
    y[0] = 0.0
    keep = 1.0 - params.theta
    for t in range(1, params.n):
        y[t] = keep * y[t - 1] + params.theta * x[t] + eps[t]
    return x, y


def slope_change_count(trend: np.ndarray, atol: Optional[float] = None) -> int:
    """Number of positions where consecutive increments differ (model-1 truth).

    The default tolerance absorbs the float quantization that
    reconstructing increments from a cumulative path introduces.
    """
    v = np.diff(trend)
    if atol is None:
        atol = 1e-9 * (1.0 + float(np.max(np.abs(v))) if len(v) else 1.0)
    return int(np.sum(np.abs(np.diff(v)) > atol))
