"""Gibbs vectors, thermo-Lorenz curves, and thermo-majorization checks.

A state p is compared against q relative to a strictly positive reference
distribution gamma. Sorting the ratios p_i/gamma_i non-increasingly and
accumulating (gamma, p) mass yields a concave piecewise-linear curve; p
thermo-majorizes q iff p's curve dominates q's everywhere.

Curve dominance is evaluated on the union of both curves' breakpoints with
slack 1e-10 (looser than the 1e-12 sum tolerance because each curve value
accumulates up to d rounded products).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import BadRange, DimensionMismatch, EmptyVector, FlexcatError, NonFiniteEntry
from .probvec import CMP_TOL, SUM_TOL, Cycle, ProbVec, as_prob_vec, tensor

CURVE_TOL = 1e-10


@dataclass(frozen=True)
class GibbsVec(ProbVec):
    """ProbVec with strictly positive entries (a valid thermal reference)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(v <= 0.0 for v in self.values):
            raise FlexcatError("reference distribution must be strictly positive")


def gibbs_vector(levels: Sequence[float], beta: float) -> GibbsVec:
    """Thermal distribution exp(-beta*E_i)/Z for the given energy levels.

    Weights are computed as exp(-beta*(E_i - E_min)) for numerical stability.
    """
    lv = [float(e) for e in levels]
    if not lv:
        raise EmptyVector("need at least one energy level")
    if not all(math.isfinite(e) for e in lv):
        raise NonFiniteEntry(f"energy levels must be finite, got {lv}")
    if not math.isfinite(beta):
        raise BadRange("beta must be finite")
    if beta < 0.0:
        raise BadRange("beta must be non-negative")
    emin = min(lv)
    weights = [math.exp(-beta * (e - emin)) for e in lv]
    z = math.fsum(weights)
    return GibbsVec(tuple(w / z for w in weights))


def as_gibbs_vec(g: ProbVec | Sequence[float]) -> GibbsVec:
    if isinstance(g, GibbsVec):
        return g
    return GibbsVec(as_prob_vec(g).values)


@dataclass(frozen=True)
class ThermoContext:
    """Energy levels plus inverse temperature, with the derived Gibbs vector."""

    levels: tuple[float, ...]
    beta: float
    gibbs: GibbsVec = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(e) for e in self.levels))
        object.__setattr__(self, "gibbs", gibbs_vector(self.levels, self.beta))

    @property
    def dim(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class LorenzCurve:
    """Concave piecewise-linear curve from (0,0) to (1,1) as breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bp = tuple((float(x), float(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2:
            raise FlexcatError("curve needs at least two breakpoints")
        if abs(bp[0][0]) > SUM_TOL or abs(bp[0][1]) > SUM_TOL:
            raise FlexcatError("curve must start at the origin")
        if abs(bp[-1][0] - 1.0) > SUM_TOL or abs(bp[-1][1] - 1.0) > SUM_TOL:
            raise FlexcatError("curve must end at (1, 1)")
        prev_slope = math.inf
        for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
            if x1 <= x0:
                raise FlexcatError("breakpoint x-coordinates must strictly increase")
            if not -CMP_TOL <= y1 <= 1.0 + CMP_TOL:
                raise FlexcatError("breakpoint heights must stay within [0, 1]")
            slope = (y1 - y0) / (x1 - x0)
            if slope > prev_slope + CURVE_TOL:
                raise FlexcatError("curve is not concave")
            prev_slope = slope

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.breakpoints)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.breakpoints)

    def value_at(self, x: float) -> float:
        """Piecewise-linear interpolation, clamped to the end heights outside [0,1]."""
        xs = self.xs
        ys = self.ys
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        i = bisect_right(xs, x) - 1
        t = (x - xs[i]) / (xs[i + 1] - xs[i])
        return ys[i] + t * (ys[i + 1] - ys[i])


def lorenz_curve(p: ProbVec | Sequence[float], gamma: ProbVec | Sequence[float]) -> LorenzCurve:
    """Thermo-Lorenz curve of p relative to gamma.

    Levels are ordered by non-increasing p_i/gamma_i (stable on ties) and the
    breakpoints are the cumulative (gamma, p) masses in that order.
    """
    vp = as_prob_vec(p)
    vg = as_gibbs_vec(gamma)
    if vp.dim != vg.dim:
        raise DimensionMismatch(f"state dim {vp.dim} != reference dim {vg.dim}")
    order = sorted(range(vp.dim), key=lambda i: -(vp.values[i] / vg.values[i]))
    gx = list(accumulate(vg.values[i] for i in order))
    py = list(accumulate(vp.values[i] for i in order))
    gx[-1] = 1.0  # cumulative masses of unit-sum vectors; snap away rounding
    py[-1] = 1.0
    points = [(0.0, 0.0)] + list(zip(gx, py))
    return LorenzCurve(tuple(points))


def curve_geq(a: LorenzCurve, b: LorenzCurve) -> bool:
    """True iff curve a dominates curve b everywhere.

    Checking the union of both curves' breakpoints is sufficient for concave
    piecewise-linear curves.
    """
    grid = sorted(set(a.xs) | set(b.xs))
    return all(a.value_at(x) >= b.value_at(x) - CURVE_TOL for x in grid)


def thermo_majorizes(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    gamma: ProbVec | Sequence[float],
) -> bool:
    """True iff p thermo-majorizes q relative to gamma (p ≻_β q)."""
    return curve_geq(lorenz_curve(p, gamma), lorenz_curve(q, gamma))


def gibbs_tensor(gamma_s: ProbVec | Sequence[float], gamma_c: ProbVec | Sequence[float]) -> GibbsVec:
    """Composite reference for a system-plus-catalyst pair.

    Equals the Gibbs vector of the summed energy levels, computed as a plain
    product to avoid re-exponentiation error.
    """
    return GibbsVec(tensor(as_gibbs_vec(gamma_s), as_gibbs_vec(gamma_c)).values)


def thermo_flexible_ok(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    gamma_s: ProbVec | Sequence[float],
    cycle: Cycle,
    gamma_c: ProbVec | Sequence[float],
) -> bool:
    """True iff p ⊗ c_i ≻_β q ⊗ c_{i+1} for every step of the catalyst cycle.

    Catalyst states are plain distributions indexed by energy level; the
    ratio order relative to gamma_c, not the magnitude order, is what counts.
    """
    vp = as_prob_vec(p)
    vq = as_prob_vec(q)
    gs = as_gibbs_vec(gamma_s)
    gc = as_gibbs_vec(gamma_c)
    if vp.dim != gs.dim or vq.dim != gs.dim:
        raise DimensionMismatch("states and system reference must share dimension")
    if cycle.k != gc.dim:
        raise DimensionMismatch("cycle states and catalyst reference must share dimension")
    composite = gibbs_tensor(gs, gc)
    for ci, cj in cycle.pairs():
        if not thermo_majorizes(tensor(vp, ci), tensor(vq, cj), composite):
            return False
    return True


# ---------------------------------------------------------------------------
# Batch machinery used by the landscape scans. A concave piecewise-linear
# curve equals the pointwise minimum of its extended segment lines, and
# dominance everywhere is equivalent to dominance at the dominated curve's
# breakpoints, so the pairwise check reduces to dense array arithmetic.
# ---------------------------------------------------------------------------


def lorenz_breakpoints_batch(rows: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of the Lorenz curves of many states at once.

    rows: (m, D) array of probability vectors; gamma: (D,) positive reference.
    Returns (X, Y), each (m, D+1), starting at 0 and snapped to end at 1.
    """
    rows = np.asarray(rows, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    order = np.argsort(-(rows / gamma), axis=1, kind="stable")
    gs = np.take_along_axis(np.broadcast_to(gamma, rows.shape), order, axis=1)
    ps = np.take_along_axis(rows, order, axis=1)
    m = rows.shape[0]
    zeros = np.zeros((m, 1))
    x = np.concatenate([zeros, np.cumsum(gs, axis=1)], axis=1)
    y = np.concatenate([zeros, np.cumsum(ps, axis=1)], axis=1)
    x[:, -1] = 1.0
    y[:, -1] = 1.0
    return x, y


def _segment_lines(xa: np.ndarray, ya: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of each curve's segments, extended to lines."""
    slopes = np.diff(ya, axis=1) / np.diff(xa, axis=1)
    return slopes, ya[:, :-1] - slopes * xa[:, :-1]


def dominance_matrix(
    xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray
) -> np.ndarray:
    """Boolean matrix M[i, j] = curve A_i dominates curve B_j everywhere.

    A_i's value at B_j's breakpoints depends on B_j only through its
    abscissae xb[j], and scan rows share few distinct abscissa rows (the
    ratio order changes only where two ratios cross). So A is evaluated once
    per distinct row of xb, each value computed exactly as for a single row,
    and compared against every member's heights.
    """
    slopes, intercepts = _segment_lines(xa, ya)
    ux, inverse, counts = np.unique(xb, axis=0, return_inverse=True, return_counts=True)
    vals = np.full((xa.shape[0], ux.shape[0], ux.shape[1]), np.inf)
    for s in range(slopes.shape[1]):
        cand = intercepts[:, s, None, None] + slopes[:, s, None, None] * ux[None, :, :]
        np.minimum(vals, cand, out=vals)
    floor = yb - CURVE_TOL
    out = np.empty((xa.shape[0], xb.shape[0]), dtype=bool)
    members = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for g, cols in enumerate(members):
        block = np.ones((xa.shape[0], len(cols)), dtype=bool)
        for k in range(ux.shape[1]):
            block &= vals[:, g, k, None] >= floor[None, cols, k]
        out[:, cols] = block
    return out


def dominance_diagonal(
    xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray
) -> np.ndarray:
    """Boolean vector v[i] = curve A_i dominates curve B_i (paired rows)."""
    slopes, intercepts = _segment_lines(xa, ya)
    vals = np.min(intercepts[:, :, None] + slopes[:, :, None] * xb[:, None, :], axis=1)
    return np.all(vals >= yb - CURVE_TOL, axis=1)
