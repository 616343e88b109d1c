#!/usr/bin/env python3
"""Growth of the penalty ceiling lambda_max with window length.

Simulates drifting random walks at several lengths, averages the
ceiling per length, and fits the log-log slope. Driftless walks land on
the theoretical 3/2 (level filter) and 5/2 (trend filter) powers over
every length range. With regime-switching drift the slope is a crossover
near the regime length 1/(1-p) (about 143 steps at p=0.993): it reaches
2.5 and 1.5 only once the lengths are much longer than 1/(1-p), as the
default lengths 4000..32000 are. Run with --lengths 250 500 1000 2000 to
see the crossover, where the slope comes out near 2.7 and 1.6.
"""

import argparse

import numpy as np

from trendkit.calibration import lambda_max
from trendkit.synth import default_params, simulate_model2


def fit_scaling_exponent(
    order: int,
    n_sims: int = 100,
    lengths=(4000, 8000, 16000, 32000),
    seed: int = 0,
    p: float = 0.993,
    b: float = 5.0,
    sigma: float = 15.0,
) -> float:
    """Log-log slope of the mean degeneracy ceiling against window length.

    Simulates drifting random walks (the model-2 process) at each length
    and regresses log mean(lambda_max) on log length. Pure Brownian
    input (b = 0) gives 1.5 for order 1 and 2.5 for order 2 over every
    length range. With regime drift (b > 0) the slope is a crossover near
    the regime length 1/(1 - p): over a few regimes the drift integral
    is still nearly affine, which the filter ignores, and turns diffusive,
    which adds to the ceiling, so the slope overshoots. It reaches 2.5 and
    1.5 only once the lengths are much longer than 1/(1 - p), as the
    default lengths 4000..32000 are at p = 0.993.
    """
    lengths = list(lengths)
    if len(lengths) < 3:
        raise ValueError("need at least 3 window lengths")
    if n_sims < 30:
        raise ValueError("need at least 30 simulations per length")
    seed_rng = np.random.default_rng(seed)
    child_seeds = seed_rng.integers(0, 2**63, size=(len(lengths), n_sims))
    means = []
    for i, length in enumerate(lengths):
        vals = []
        for j in range(n_sims):
            params = default_params(
                2, n=int(length), p=p, b=b, sigma=sigma, seed=int(child_seeds[i, j])
            )
            vals.append(lambda_max(simulate_model2(params), order))
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(lengths), np.log(means), 1)[0]
    return float(slope)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-sims", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lengths", type=int, nargs="+",
                        default=[4000, 8000, 16000, 32000])
    args = parser.parse_args()

    settings = [
        ("driftless walk (b=0, sigma=1)", dict(b=0.0, sigma=1.0)),
        ("drifting walk (p=0.993, b=5, sigma=15)",
         dict(p=0.993, b=5.0, sigma=15.0)),
    ]
    print(f"{args.n_sims} simulations per length, lengths {args.lengths}")
    for label, kw in settings:
        slopes = {
            order: fit_scaling_exponent(
                order, n_sims=args.n_sims, lengths=args.lengths,
                seed=args.seed, **kw,
            )
            for order in (1, 2)
        }
        print(f"{label}: order-1 slope {slopes[1]:.3f} (theory 1.5), "
              f"order-2 slope {slopes[2]:.3f} (theory 2.5)")


if __name__ == "__main__":
    main()
