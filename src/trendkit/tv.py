"""Exact order-1 L1 filter: one-dimensional total-variation denoising.

Minimizes 1/2 ||y - x||^2 + lam ||D x||_1 with D the first difference,
directly and exactly, with no barrier, iterations or tolerance
(L. Condat, "A Direct Algorithm for 1-D Total Variation Denoising",
IEEE Signal Processing Letters 20(11), 2013). The fit is piecewise
constant, and it comes with the dual certificate of Kim, Koh, Boyd and
Gorinevsky ("l1 Trend Filtering", SIAM Review 2009), in four steps:

1. **Segments.** The running sums F of the fit form the taut string
   through the tube S +- lam around the running sums S of y. The string
   bends up where it touches the tube's top (a positive jump of x) and
   down where it touches the bottom (a negative jump). Condat's pass
   finds these contacts by re-scanning a segment after each jump; here
   the two convex hull chains it summarizes by their first slopes are
   kept, so every sample is pushed and popped at most once (O(n)).
2. **Segment values** from the optimality conditions x = y - D'nu:
   nu = lam * sign(jump) at each jump and 0 at both ends, so a segment
   holds (sum(y_seg) - nu_before + nu_after) / L. The exactly rounded
   sum's division leaves a remainder, which is kept. A jump whose value
   comes out zero or against its sign is merged into one segment.
3. **Dual.** Inside a segment nu_i = nu_{i-1} + (x - y_i), summed with
   Neumaier's compensation and the remainder, from exactly +-lam at the
   segment's jump; nu is clipped to [-lam, lam].
4. **Gap.** ``1/2 ||y - x - D'nu||^2 + sum(lam |Dx_i| - nu_i Dx_i)`` is
   the primal-dual gap of the pair (x, nu) as returned, a sum of
   non-negative terms that cannot cancel.
"""

from __future__ import annotations

import math

import numpy as np


def tv_denoise(y: np.ndarray, lam: float):
    """Exact order-1 L1 fit of a finite vector y (n >= 2) for lam > 0.

    Returns (x, nu, gap, residual): the piecewise-constant trend, the dual
    (|nu| <= lam, n - 1 entries), the primal-dual gap of the pair and
    max |y - x - D'nu|.
    """
    ends, signs = _segments(y, lam)
    x, nu = _fit(y, lam, ends, signs)
    error = y - x + np.diff(nu, prepend=0.0, append=0.0)  # y - x - D'nu
    dx = np.diff(x)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge input's gap is not finite
        gap = 0.5 * float(error @ error) + float(np.sum(lam * np.abs(dx) - nu * dx))
    return x, nu, gap, float(np.max(np.abs(error)))


def _segments(y: np.ndarray, lam: float):
    """Step 1: the last sample of every segment but the final one, and the
    sign of the jump that follows it.

    F passes through (0, 0) and (n, S_n). The lower chain is the concave
    majorant of the tube's bottom from the anchor (the string's last
    contact) to sample k, the upper chain the convex minorant of its top;
    each list holds the anchor just before its head. While the lower
    chain's first slope does not exceed the upper chain's, one straight
    piece fits; otherwise the string bends at whichever first vertex
    comes first, and that vertex becomes the anchor.
    """
    n = len(y)
    running = np.cumsum(y - y.mean()).tolist()  # centered: |S| <= about lambda_max
    ends, signs = [], []
    a, fa = 0, 0.0
    li, lv, ui, uv = [0], [0.0], [0], [0.0]
    lh = uh = 1
    for k, r in enumerate(running, 1):
        if k == n:
            lam = 0.0  # the string ends at (n, S_n)
        lo, hi = r - lam, r + lam
        moved = False  # did a chain's first vertex change?
        while len(li) > lh:
            i, c, j, b = li[-2], lv[-2], li[-1], lv[-1]
            if (b - c) * (k - i) > (lo - c) * (j - i):
                break
            li.pop()
            lv.pop()
        else:
            moved = True
        li.append(k)
        lv.append(lo)
        while len(ui) > uh:
            i, c, j, b = ui[-2], uv[-2], ui[-1], uv[-1]
            if (b - c) * (k - i) < (hi - c) * (j - i):
                break
            ui.pop()
            uv.pop()
        else:
            moved = True
        ui.append(k)
        uv.append(hi)
        while moved:
            i0, v0, j0, w0 = li[lh], lv[lh], ui[uh], uv[uh]
            if (v0 - fa) * (j0 - a) <= (w0 - fa) * (i0 - a):
                break
            if j0 < i0:  # top contact: x jumps up after sample j0 - 1
                ends.append(j0 - 1)
                signs.append(1.0)
                a, fa = j0, w0
                uh += 1
                while li[lh] <= a:
                    lh += 1
                # the hull from the new anchor is a suffix of the old one
                while len(li) - lh > 1 and (
                        (lv[lh] - fa) * (li[lh + 1] - a) <= (lv[lh + 1] - fa) * (li[lh] - a)):
                    lh += 1
                li[lh - 1], lv[lh - 1] = a, fa
            else:  # bottom contact: x jumps down after sample i0 - 1
                ends.append(i0 - 1)
                signs.append(-1.0)
                a, fa = i0, v0
                lh += 1
                while ui[uh] <= a:
                    uh += 1
                while len(ui) - uh > 1 and (
                        (uv[uh] - fa) * (ui[uh + 1] - a) >= (uv[uh + 1] - fa) * (ui[uh] - a)):
                    uh += 1
                ui[uh - 1], uv[uh - 1] = a, fa
    return ends, signs


def _fit(y: np.ndarray, lam: float, ends: list, signs: list):
    """Steps 2 and 3: segment values and the dual, from the segments alone.

    Python floats are made one segment at a time, which keeps memory near
    numpy's 8 bytes a sample.
    """
    n = len(y)
    starts = [0] + [end + 1 for end in ends]
    stops = starts[1:] + [n]
    jumps = [0.0] + [lam * sign for sign in signs] + [0.0]  # nu at each boundary
    segments, level, low = [], [], []  # segments: (start, stop, nu before)
    for start, stop, before, after in zip(starts, stops, jumps, jumps[1:]):
        while True:
            terms = y[start:stop].tolist() + [-before, after]
            size = stop - start
            value = math.fsum(terms) / size
            if not segments or (value - level[-1]) * before > 0:
                break
            # A lam within rounding of a contact can leave a jump of zero or
            # the wrong sign, which the exact fit has below rounding: merge.
            start, _, before = segments.pop()
            level.pop()
            low.pop()
        segments.append((start, stop, before))
        level.append(value)
        low.append(math.fsum(terms + [-value] * size) / size)  # the division's remainder
    starts, stops, jumps = zip(*segments)
    ends = [stop - 1 for stop in stops[:-1]]
    sizes = np.subtract(stops, starts)
    x = np.repeat(level, sizes)
    # nu_i - nu_{i-1} = (x + low) - y_i: its rounded value and what rounding lost
    step = x - y
    back = step - x
    lost = (x - (step - back)) + (-y - back) + np.repeat(low, sizes)
    nu = np.empty(n - 1)
    for start, stop, before in segments:
        out = []
        total, carry = before, 0.0
        for t, e in zip(step[start:stop - 1].tolist(), lost[start:stop - 1].tolist()):
            new = total + t
            if abs(total) >= abs(t):
                carry += (total - new) + t + e
            else:
                carry += (t - new) + total + e
            total = new
            out.append(total + carry)
        nu[start:stop - 1] = out
    np.clip(nu, -lam, lam, out=nu)
    nu[ends] = jumps[1:]
    return x, nu
