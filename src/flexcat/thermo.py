"""Thermo-Lorenz curves and thermo-majorization checks.

GibbsVec and gibbs_vector live in probvec, which needs no numpy, and are
re-exported here.

A state p is compared against q relative to a strictly positive reference
distribution gamma. Sorting the ratios p_i/gamma_i non-increasingly and
accumulating (gamma, p) mass yields a concave piecewise-linear curve; p
thermo-majorizes q iff p's curve dominates q's everywhere.

Every dominance check, single or batched, evaluates the dominating curve at
the dominated curve's breakpoints, interpolating on the segment that holds
each point, with slack CURVE_TOL (each value sums up to d rounded products).
A segment of zero width in floats (a Gibbs weight below about e^-37) never
holds a point; a narrow one's slope, rounded by up to ulp/width, is never
extended past its ends. Every catalysed check, thermo_flexible_ok and the
thermal scans in search, validates its inputs in _step_inputs and builds its
step curves in _step_curves.

The all-pairs kernel dominance_matrix makes the same comparisons in bulk;
its docstring says how.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FlexcatError
from .probvec import (
    CMP_TOL,
    CURVE_TOL,
    SUM_TOL,
    Cycle,
    GibbsVec,
    ProbVec,
    _clamped,
    _gibbs,
    as_prob_vec,
    gibbs_vector,
    tensor,
)


def as_gibbs_vec(g: ProbVec | Sequence[float]) -> GibbsVec:
    """Strictly positive reference; a plain sequence is not clamped (Gibbs weights can be < CLAMP)."""
    if isinstance(g, GibbsVec):
        return g
    if isinstance(g, ProbVec):
        return _gibbs(g.values)
    vals = list(map(float, g))
    _clamped(vals)  # raises on NaN, infinite or negative entries and bad sums
    total = math.fsum(vals)
    return _gibbs(tuple(v / total for v in vals))


@dataclass(frozen=True)
class LorenzCurve:
    """Concave piecewise-linear curve from (0,0) to (1,1); np.interp(x, c.xs, c.ys) evaluates it."""

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
        for (x0, _), (x1, y1) in zip(bp, bp[1:]):
            if x1 <= x0:
                raise FlexcatError("breakpoint x-coordinates must strictly increase")
            if not -CMP_TOL <= y1 <= 1.0 + CMP_TOL:
                raise FlexcatError("breakpoint heights must stay within [0, 1]")
        # concave: no breakpoint below its neighbours' chord (by height, not slope)
        for (x0, y0), (x1, y1), (x2, y2) in zip(bp, bp[1:], bp[2:]):
            if y1 < y0 + (y2 - y0) * (x1 - x0) / (x2 - x0) - CURVE_TOL:
                raise FlexcatError("curve is not concave")

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.breakpoints)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.breakpoints)


def _same_dim(state: ProbVec, gamma: GibbsVec) -> ProbVec:
    """The state, once its dimension is checked against its reference."""
    if state.dim != gamma.dim:
        raise DimensionMismatch(f"state dim {state.dim} != reference dim {gamma.dim}")
    return state


def _breakpoints(
    gamma: ProbVec | Sequence[float], *states: ProbVec | Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Lorenz breakpoints of the states relative to gamma, validating each in turn."""
    vg = as_gibbs_vec(gamma)
    rows = [_same_dim(as_prob_vec(state), vg).values for state in states]
    return lorenz_breakpoints_batch(np.array(rows), vg.values)


def lorenz_curve(p: ProbVec | Sequence[float], gamma: ProbVec | Sequence[float]) -> LorenzCurve:
    """Thermo-Lorenz curve of p relative to gamma.

    Levels are ordered by non-increasing p_i/gamma_i (stable on ties) and the
    breakpoints are the cumulative (gamma, p) masses in that order. A point
    whose x does not exceed its predecessor's in floats is dropped.
    """
    xs, ys = (a[0].tolist() for a in _breakpoints(gamma, p))
    points = [(x1, y1) for x0, x1, y1 in zip(xs, xs[1:], ys[1:]) if x1 > x0]
    return LorenzCurve(((0.0, 0.0), *points))


def curve_geq(a: LorenzCurve, b: LorenzCurve) -> bool:
    """True iff curve a dominates curve b everywhere."""
    ca, cb = np.array((a.xs, a.ys)), np.array((b.xs, b.ys))
    return bool(dominance_diagonal(ca[:1], ca[1:], cb[:1], cb[1:])[0])


def thermo_majorizes(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    gamma: ProbVec | Sequence[float],
) -> bool:
    """True iff p thermo-majorizes q relative to gamma (p ≻_β q)."""
    x, y = _breakpoints(gamma, p, q)
    return bool(dominance_diagonal(x[:1], y[:1], x[1:], y[1:])[0])


def gibbs_tensor(gamma_s: ProbVec | Sequence[float], gamma_c: ProbVec | Sequence[float]) -> GibbsVec:
    """Composite reference for a system-plus-catalyst pair.

    Equals the Gibbs vector of the summed energy levels, computed as a plain
    product to avoid re-exponentiation error.
    """
    return _gibbs(tensor(as_gibbs_vec(gamma_s), as_gibbs_vec(gamma_c)).values)


def _tensor_rows(v: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Rows v ⊗ states[i], system major; a stack of b states v takes b blocks of states."""
    rows = v[..., None, :, None] * states[..., :, None, :]
    return rows.reshape(-1, v.shape[-1] * states.shape[-1])


def _step_inputs(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    gamma_s: ProbVec | Sequence[float],
    gamma_c: ProbVec | Sequence[float],
    src: np.ndarray | Sequence[Sequence[float]],
    dst: np.ndarray | Sequence[Sequence[float]],
) -> tuple[np.ndarray, np.ndarray, tuple[float, ...]]:
    """Validated inputs of the catalysed steps p ⊗ src[i] → q ⊗ dst[i], for _step_curves.

    Returns p and q as a (2, d) array, src and dst as a (2, m, k) array and
    the composite reference, checking each in that order.
    """
    gs, gc = as_gibbs_vec(gamma_s), as_gibbs_vec(gamma_c)
    vp, vq = (_same_dim(as_prob_vec(v), gs) for v in (p, q))
    states = np.array([src, dst], dtype=float)  # (2, m, k): src's rows, then dst's
    if states.shape[2] != gc.dim:
        raise DimensionMismatch("cycle states and catalyst reference must share dimension")
    return np.array([vp.values, vq.values]), states, gibbs_tensor(gs, gc).values


def _step_curves(
    pq: np.ndarray, states: np.ndarray, gamma: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lorenz breakpoints (xa, ya, xb, yb) of the steps that _step_inputs validated.

    All rows take one batch call.
    """
    x, y = lorenz_breakpoints_batch(_tensor_rows(pq, states), gamma)
    m = states.shape[1]
    return x[:m], y[:m], x[m:], y[m:]


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
    states = [c.values for c in cycle.states]
    inputs = _step_inputs(p, q, gamma_s, gamma_c, states, states[1:] + states[:1])
    xa, ya, xb, yb = _step_curves(*inputs)
    return bool(dominance_diagonal(xa, ya, xb, yb).all())


def lorenz_breakpoints_batch(rows: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of the Lorenz curves of many states at once.

    rows: (m, D) array of probability vectors; gamma: (D,) positive reference.
    Returns (X, Y), each (m, D+1), starting at 0 and snapped to end at 1.
    """
    rows = np.asarray(rows, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    order = (-(rows / gamma)).argsort(axis=1, kind="stable")
    m, d = rows.shape
    x = np.zeros((m, d + 1))
    y = np.zeros((m, d + 1))
    gamma[order].cumsum(axis=1, out=x[:, 1:])
    rows[np.arange(m)[:, None], order].cumsum(axis=1, out=y[:, 1:])
    x[:, -1] = 1.0
    y[:, -1] = 1.0
    return x, y


def _abscissa_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of x, and the index of each row's distinct row.

    Equal rows are found among the first rows of x's runs of equal
    consecutive rows by one lexicographic sort, so the cost follows the
    number of runs. A row holding NaN is a group of its own.
    """
    starts = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]).any(axis=1)])
    heads = x[starts]
    order = np.lexsort(heads.T)
    new = np.r_[True, (heads[order[1:]] != heads[order[:-1]]).any(axis=1)]
    group = np.empty(len(starts), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return heads[order[new]], np.repeat(group, np.diff(np.r_[starts, len(x)]))


def _curve_values(xa: np.ndarray, ya: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Each curve A_i at the points pts[i] (m, n), or at every row of pts[0] (1, runs, n).

    A point is interpolated on the last segment whose left end does not exceed
    it, so a zero-width segment is reached only as the final one (slope 0).
    The segment depends on A_i only through xa[i], so for shared points it is
    counted once per distinct abscissa row of A and indexed by each row's group.
    """
    m, n = xa.shape
    if pts.ndim == 2:
        seg = (xa[:, 1:-1].T[:, :, None] <= pts).sum(axis=0)
    else:
        distinct, group = _abscissa_groups(xa)
        seg = (distinct[:, 1:-1].T[:, :, None, None] <= pts[0]).sum(axis=0)[group]
    seg += (np.arange(m) * n).reshape((m,) + (1,) * (pts.ndim - 1))  # flat indices into (m, n)
    dx = xa[:, 1:] - xa[:, :-1]
    slopes = np.zeros_like(xa)
    np.divide(ya[:, 1:] - ya[:, :-1], dx, out=slopes[:, :-1], where=dx > 0)
    vals = pts - xa.take(seg)
    vals *= slopes.take(seg)
    return np.add(vals, ya.take(seg), out=vals)


def dominance_matrix(
    xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray
) -> np.ndarray:
    """Boolean matrix M[i, j] = curve A_i dominates curve B_j everywhere.

    Each cell is the conjunction over k of vals[i, k] >= yb[j, k] - CURVE_TOL,
    where vals[i, k] is A_i at xb[j, k]; the kernel decides it without
    comparing cell by cell.

    - Runs. A_i's values at B_j's breakpoints depend on B_j only through
      xb[j], and scan rows come in runs of consecutive equal abscissa rows
      (the ratio order changes only where two ratios cross). When an
      abscissa row recurs after another, the rows are grouped by one stable
      sort and the output columns are put back in order at the end, so each
      distinct abscissa row makes one run whatever the row order. A is
      evaluated once per run, on segments counted once per distinct
      abscissa row of A (_curve_values). Rows in random order still cost
      more than scan rows: within a run their heights are not monotone, so
      more of them are band rows.
    - Cleared columns. A (run, column) pair where no row's value falls below
      the column's highest height in the run passes for every cell and is
      skipped; a NaN on either side never skips.
    - Interval bounds. Within a run, where height column k never falls,
      row i's comparison holds on a prefix of the run, whose length
      searchsorted finds; where it never rises, on a suffix. Each (row, run)
      pair keeps the intersection [lo, hi) of its columns' intervals, and
      the matrix is the run-length expansion of these intervals (np.repeat).
    - Band rows. A column that both rises and falls (a height that is
      constant in the catalyst weight, jittering by an ulp) empties the
      intervals of rows below its minimum and leaves rows at or above its
      maximum alone; only rows in between are compared cell by cell.

    A NaN value empties its row's interval, as every comparison with it fails.
    """
    m, size = xa.shape[0], xb.shape[0]
    distinct, group = _abscissa_groups(xb)
    order = None
    if (group[1:] != group[:-1]).sum() >= len(distinct):  # an abscissa row recurs
        order = group.argsort(kind="stable")
        xb, yb, group = xb[order], yb[order], group[order]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    ends = np.r_[starts[1:], size]
    lens = ends - starts
    vals = _curve_values(xa, ya, xb[starts][None])  # (m, runs, n)
    floor = yb - CURVE_TOL
    # moves[0 or 1, t, k]: how often column k falls or rises within its first t + 1
    # heights; a step to or from NaN counts as both
    moves = np.zeros((2,) + floor.shape, dtype=np.intp)
    np.cumsum(~(floor[1:] >= floor[:-1]), axis=0, out=moves[0, 1:])
    np.cumsum(~(floor[1:] <= floor[:-1]), axis=0, out=moves[1, 1:])
    never_falls, never_rises = (moves[:, ends - 1] == moves[:, starts]).tolist()  # (runs, n) each
    cleared = vals.min(axis=0) >= np.maximum.reduceat(floor, starts, axis=0)
    lo = np.zeros((len(starts), m), dtype=np.intp)  # [lo, hi) per (run, row)
    hi = np.repeat(lens[:, None], m, axis=1)
    # a NaN empties its (run, row) interval; locating NaNs by flat index is about
    # 7x faster than isnan(vals).any(axis=2), a reduction over a short axis
    nan_rows, nan_runs = np.divmod(np.flatnonzero(np.isnan(vals)) // vals.shape[2], len(starts))
    hi[nan_runs, nan_rows] = 0
    band = []  # (run, column, rows) compared cell by cell
    bounds = list(zip(starts.tolist(), ends.tolist()))
    for g, k in np.argwhere(~cleared).tolist():
        a, b = bounds[g]
        v, col = vals[:, g, k], floor[a:b, k]
        if never_falls[g][k]:
            np.minimum(hi[g], col.searchsorted(v, "right"), out=hi[g])
        elif never_rises[g][k]:
            np.maximum(lo[g], b - a - col[::-1].searchsorted(v, "right"), out=lo[g])
        else:
            below, above = v < col.min(), v >= col.max()
            hi[g, below] = 0
            band.append((g, k, np.flatnonzero(~(below | above))))
    np.maximum(hi, lo, out=hi)
    pieces = np.stack([lo, hi - lo, lens[:, None] - hi], axis=-1).transpose(1, 0, 2)
    out = np.repeat(np.tile([False, True, False], lo.size), pieces.ravel()).reshape(m, size)
    for g, k, rows in band:
        a, b = bounds[g]
        out[rows, a:b] &= vals[rows, g, k, None] >= floor[a:b, k]
    if order is None:
        return out
    place = np.empty_like(order)  # place[j]: the sorted column of B_j
    place[order] = np.arange(size)
    return out[:, place]


def dominance_diagonal(
    xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray
) -> np.ndarray:
    """Boolean vector v[i] = curve A_i dominates curve B_i (paired rows)."""
    return (_curve_values(xa, ya, xb) >= yb - CURVE_TOL).all(axis=1)
