"""Exact rational margins for majorization, Vidal probability and thermo-majorization.

Each function takes ints, floats, Fractions or any ProbVec's values, converts
them exactly and works in integers over one common denominator, so no rounding
decides a verdict. The module uses only the standard library and imports no
other flexcat module: a defect in the float kernels cannot reach it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, islice


def _common_ints(vals) -> list[int]:
    """vals exactly, as integers over one common denominator."""
    ratios = [v.as_integer_ratio() for v in vals]  # exact for ints, floats and Fractions
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios]


def _exact_sides(x_vals, y_vals) -> tuple[list[int], list[int], int]:
    """x and y exactly, as integers over one common denominator, each sorted
    non-increasingly and zero-padded to the longer; and that denominator."""
    *ints, den = _common_ints([*x_vals, *y_vals, 1])
    n, d = len(x_vals), max(len(x_vals), len(y_vals))
    xs, ys = (sorted(v, reverse=True) + [0] * (d - len(v)) for v in (ints[:n], ints[n:]))
    return xs, ys, den


def prefix_margin(x_vals, y_vals) -> Fraction:
    """min over k < d of y's k-th prefix sum less x's, exactly: x ≺ y iff it is >= 0.
    The last prefix, the full sums, is left out as is_majorized_by leaves it."""
    xs, ys, den = _exact_sides(x_vals, y_vals)
    return Fraction(min(islice(accumulate(b - a for a, b in zip(xs, ys)), len(xs) - 1)), den)


def vidal_probability(x_vals, y_vals) -> Fraction:
    """min(1, E_l(x)/E_l(y) over each l of a non-empty target tail E_l(y)), exactly."""
    xs, ys, _ = _exact_sides(x_vals, y_vals)  # the denominator cancels in each ratio
    tails = zip(accumulate(reversed(xs)), accumulate(reversed(ys)))
    return min([Fraction(1)] + [Fraction(sx, sy) for sx, sy in tails if sy])


def _exact_lorenz(p: list[int], g: list[int]) -> list[tuple[int, int]]:
    """Lorenz breakpoints of p relative to g, each axis scaled by that vector's sum."""
    order = sorted(range(len(p)), key=cmp_to_key(lambda i, j: p[j] * g[i] - p[i] * g[j]))
    points = [(0, 0)]
    for i in order:
        points.append((points[-1][0] + g[i], points[-1][1] + p[i]))
    return points


def thermo_margin(p_vals, q_vals, g_vals) -> Fraction:
    """min over q's Lorenz breakpoints of L_p(x) - L_q(x), in exact rationals.

    Each input is converted exactly and normalized to an exact unit sum; p
    thermo-majorizes q relative to g iff the margin is >= 0. A Gibbs weight
    too small to move a float sum still moves these sums. The breakpoints are
    integers (each vector over one common denominator, each axis unnormalized),
    q's are walked in order along p's, and the least margin is the one fraction made.
    """
    g = _common_ints(g_vals)
    lp = _exact_lorenz(_common_ints(p_vals), g)
    lq = _exact_lorenz(_common_ints(q_vals), g)
    tp, tq = lp[-1][1], lq[-1][1]
    k, least = 1, (0, 1)  # (numerator, positive denominator); the margin is 0 at both ends
    for x, yq in lq[1:-1]:
        while lp[k][0] < x:
            k += 1
        (x0, y0), (x1, y1) = lp[k - 1], lp[k]
        # (y0 + (x - x0)(y1 - y0)/(x1 - x0))/tp - yq/tq over one denominator
        num = (y0 * (x1 - x0) + (x - x0) * (y1 - y0)) * tq - yq * (x1 - x0) * tp
        den = (x1 - x0) * tp * tq
        if num * least[1] < least[0] * den:
            least = num, den
    return Fraction(*least)


def thermo_cycle_margin(p_vals, q_vals, g_s, g_c, states) -> Fraction:
    """Worst step of p ⊗ c_i ≻ q ⊗ c_{i+1} relative to g_s ⊗ g_c, exactly."""
    def tensor(a, b):  # a positive multiple of a ⊗ b, which each margin normalizes away
        return [u * v for u in a for v in b]

    p, q, g_s, g_c = map(_common_ints, (p_vals, q_vals, g_s, g_c))
    cs = [_common_ints(c) for c in states]
    g = tensor(g_s, g_c)
    steps = zip(cs, cs[1:] + cs[:1])
    return min(thermo_margin(tensor(p, c), tensor(q, c_next), g) for c, c_next in steps)
