"""Reference answers for checking flexcat outputs, exact where it matters.

Plain Python only: no numpy and no flexcat code, so a defect in the package's
kernels cannot also hide in the reference. Each function takes `num`, the
conversion applied to its input vectors: `approx` normalizes in floats,
`exact` converts every float exactly to fractions.Fraction and normalizes to
an exact unit sum.

Relations come back as a signed margin (>= 0 means the relation holds).
`margin` computes it in floats and repeats the computation exactly when the
float result lies within SURE of zero. The package decides with float slacks
of 1e-12 to 1e-10 toward acceptance, so a relation that fails by at most BAND
may read either way; every other verdict must match the exact one.
"""

from __future__ import annotations

import math
from fractions import Fraction

BAND = 1e-9
SURE = 1e-6  # far above the float rounding of any margin computed here
INF = math.inf


def exact(v) -> list[Fraction]:
    fr = [Fraction(x) for x in v]
    total = sum(fr)
    return [f / total for f in fr]


def approx(v) -> list[float]:
    fl = [float(x) for x in v]
    total = math.fsum(fl)
    return [f / total for f in fl]


def margin(fn, *args):
    """fn's margin, in floats when clearly away from zero, otherwise exact."""
    m = fn(*args, num=approx)
    return m if abs(m) > SURE else fn(*args, num=exact)


def holds(m) -> bool | None:
    """The verdict a margin demands: None when the package's slack leaves it open."""
    if m >= 0:
        return True
    return None if m >= -BAND else False


def agrees(verdict: bool, m) -> bool:
    want = holds(m)
    return want is None or verdict is want


def _desc(v, num) -> list:
    return sorted(num(v), reverse=True)


def _padded(x: list, y: list) -> tuple[list, list]:
    d = max(len(x), len(y))
    return x + [0] * (d - len(x)), y + [0] * (d - len(y))


def tensor(a, b, num=approx) -> list:
    return [ai * bj for ai in num(a) for bj in num(b)]


# --------------------------------------------------------------------------
# majorization and conversion probability
# --------------------------------------------------------------------------


def violation_diffs(x, y, num=approx) -> dict[int, float | Fraction]:
    """1-based prefix index k -> (x prefix - y prefix), for k < d."""
    xs, ys = _padded(_desc(x, num), _desc(y, num))
    out = {}
    px = py = 0
    for k in range(len(xs) - 1):
        px += xs[k]
        py += ys[k]
        out[k + 1] = px - py
    return out


def majorization_margin(x, y, num=approx):
    """min_k (sum of the k largest of y) - (sum of the k largest of x), k < d."""
    diffs = violation_diffs(x, y, num)
    return -max(diffs.values()) if diffs else INF


def vidal(x, y, num=approx):
    """Minimum over l of the tail-sum ratio E_l(x) / E_l(y), clipped to [0, 1]."""
    xs, ys = _padded(_desc(x, num), _desc(y, num))
    best = INF
    ex = ey = 0
    for a, b in zip(reversed(xs), reversed(ys)):
        ex += a
        ey += b
        if ey != 0:
            best = min(best, ex / ey)
    return min(1, max(0, best))


def cycle_margin(x, y, states, num=approx):
    """Worst step of x ⊗ c_i ≺ y ⊗ c_{i+1} around the cycle."""
    n = len(states)
    return min(
        majorization_margin(tensor(x, states[i], num), tensor(y, states[(i + 1) % n], num), num)
        for i in range(n)
    )


def per_step_probability(x, y, states) -> float:
    """Geometric mean of the per-step conversion probabilities around a cycle."""
    n = len(states)
    prod = 1.0
    for i in range(n):
        prod *= vidal(tensor(x, states[i]), tensor(y, states[(i + 1) % n]))
    return prod ** (1.0 / n)


# --------------------------------------------------------------------------
# necessary conditions
# --------------------------------------------------------------------------


def endpoint_margin(x, y, num=approx):
    xs, ys = _desc(x, num), _desc(y, num)
    return min(ys[0] - xs[0], xs[-1] - ys[-1])


def boundary_ratios_margin(x, y, states, num=approx):
    xs, ys = _desc(x, num), _desc(y, num)
    top = ys[0] / xs[0]
    bottom = ys[-1] / xs[-1]
    n = len(states)
    worst = INF
    for i in range(n):
        ci, cj = num(states[i]), num(states[(i + 1) % n])
        worst = min(worst, top * cj[0] - ci[0], ci[-1] - bottom * cj[-1])
    return worst


def support_sizes(states) -> set[int]:
    return {sum(1 for v in s if v > 0) for s in states}


def ratio_bound_margin(states, y, indices, num=approx):
    """min over states of (largest / smallest non-zero) - worst adjacent ratio of y."""
    ys = _desc(y, num)
    threshold = max((ys[l - 1] / ys[l] if ys[l] > 0 else INF) for l in indices)
    worst = INF
    for s in states:
        vals = _desc(s, num)
        support = sum(1 for v in vals if v > 0)
        worst = min(worst, vals[0] / vals[support - 1] - threshold)
    return worst


def adjacent_ratio_margin(c, y, indices, num=approx):
    """min(y_1/y_m, y_{n+1}/y_d) - max_v c_v/c_{v+1}; the bound holds when > 0."""
    cs, ys = _desc(c, num), _desc(y, num)
    max_adjacent = -INF
    for top, below in zip(cs, cs[1:]):
        if below == 0:
            if top == 0:
                continue
            return -INF
        max_adjacent = max(max_adjacent, top / below)
    m, n = min(indices), max(indices)

    def guarded(a, b):
        return a / b if b > 0 else INF

    threshold = min(guarded(ys[0], ys[m - 1]), guarded(ys[n], ys[-1]))
    return INF if threshold == INF else threshold - max_adjacent


# --------------------------------------------------------------------------
# thermo-majorization
# --------------------------------------------------------------------------


def gibbs(levels, beta, num=approx) -> list:
    emin = min(levels)
    return num([math.exp(-beta * (e - emin)) for e in levels])


def _lorenz(p: list, g: list) -> list[tuple]:
    order = sorted(range(len(p)), key=lambda i: p[i] / g[i], reverse=True)
    pts = [(0, 0)]
    gx = py = 0
    for i in order:
        gx += g[i]
        py += p[i]
        pts.append((gx, py))
    return pts


def thermo_margin(p, q, g, num=approx):
    """min of L_p(x) - L_q(x) over L_q's inner breakpoints, relative to g.

    L_p is concave and L_q linear between its breakpoints, so the minimum
    over [0, 1] sits at one of them; both curves meet at the two ends.
    """
    gn = num(g)
    lp, lq = _lorenz(num(p), gn), _lorenz(num(q), gn)
    worst = INF
    i = 0
    for x, yq in lq[1:-1]:
        while i < len(lp) - 2 and lp[i + 1][0] < x:
            i += 1
        (x0, y0), (x1, y1) = lp[i], lp[i + 1]
        yp = y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        worst = min(worst, yp - yq)
    return worst


def thermo_cycle_margin(p, q, levels_s, beta, states, levels_c, num=approx):
    """Worst step of p ⊗ c_i ≻_β q ⊗ c_{i+1} against the composite Gibbs state."""
    composite = tensor(gibbs(levels_s, beta), gibbs(levels_c, beta), num)
    n = len(states)
    return min(
        thermo_margin(tensor(p, states[i], num), tensor(q, states[(i + 1) % n], num),
                      composite, num)
        for i in range(n)
    )
