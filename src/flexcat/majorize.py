"""Majorization order, stochastic conversion probability, and catalysis checks.

Partial-sum comparisons carry an additive slack of CMP_TOL so exact-equality
boundary cases stay deterministic in floating point. Vectors of unequal
dimension are zero-padded, which leaves the order unchanged.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate

from .probvec import (
    CMP_TOL,
    Cycle,
    ProbVec,
    SchmidtVec,
    _Frozen,
    _check_sorted_states,
    as_prob_vec,
    as_schmidt_vec,
    sort_desc,
    tensor,
)


class ViolationReport(_Frozen):
    """Prefix positions where one vector's partial sums exceed the other's."""

    __match_args__ = ("indices", "m", "n_max")
    indices: frozenset[int]
    m: int | None
    n_max: int | None

    def __init__(self, indices: frozenset[int], m: int | None, n_max: int | None) -> None:
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_max", n_max)

    @property
    def empty(self) -> bool:
        return not self.indices


def _padded(x: SchmidtVec, y: SchmidtVec) -> tuple[tuple[float, ...], tuple[float, ...]]:
    dx, dy = x.dim, y.dim
    if dx == dy:
        return x.values, y.values
    d = max(dx, dy)
    return x.values + (0.0,) * (d - dx), y.values + (0.0,) * (d - dy)


def is_majorized_by(x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]) -> bool:
    """True iff x ≺ y: every prefix sum of x is bounded by that of y."""
    vx, vy = _padded(as_schmidt_vec(x), as_schmidt_vec(y))
    px = accumulate(vx)
    py = accumulate(vy)
    # the full sums agree by normalization, so the last prefix is skipped
    for k, (sx, sy) in enumerate(zip(px, py)):
        if k == len(vx) - 1:
            break
        if sx > sy + CMP_TOL:
            return False
    return True


def _suffix_sums(vals: tuple[float, ...]) -> list[float]:
    return list(accumulate(reversed(vals)))[::-1]


def vidal_probability(x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]) -> float:
    """Optimal success probability of converting x into y stochastically.

    Minimum over l of the tail-sum ratio E_l(x)/E_l(y). Ratios with an empty
    target tail (E_l(y) = 0) impose no constraint and are skipped; an empty
    source tail against a non-empty target forces probability 0.
    """
    vx, vy = _padded(as_schmidt_vec(x), as_schmidt_vec(y))
    ex = _suffix_sums(vx)
    ey = _suffix_sums(vy)
    best = math.inf
    for sx, sy in zip(ex, ey):
        if sy == 0.0:
            continue
        best = min(best, sx / sy)
    # l = 1 always contributes a finite ratio of ~1, so best is finite
    return max(0.0, min(1.0, best))


def _steps(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], cycle: Cycle
) -> Iterator[tuple[SchmidtVec, SchmidtVec]]:
    """The steps (x ⊗ c_i, y ⊗ c_{i+1}) of a cycle, each side sorted, built as they are read.

    x and y are validated on the call, before the first step is read.
    """
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    return ((sort_desc(tensor(sx, ci)), sort_desc(tensor(sy, cj))) for ci, cj in cycle.pairs())


def standard_catalysis_ok(
    x: SchmidtVec | Sequence[float],
    y: SchmidtVec | Sequence[float],
    c: ProbVec | Sequence[float],
) -> bool:
    """True iff c is a standard catalyst: x ⊗ c ≺ y ⊗ c."""
    vx, vc = as_prob_vec(x), as_prob_vec(c)  # c is checked once, after x and before y
    return is_majorized_by(sort_desc(tensor(vx, vc)), sort_desc(tensor(y, vc)))


def flexible_cycle_ok(
    x: SchmidtVec | Sequence[float],
    y: SchmidtVec | Sequence[float],
    cycle: Cycle,
) -> bool:
    """True iff x ⊗ c_i ≺ y ⊗ c_{i+1} for every step of the cycle.

    Cycle states must be sorted (Schmidt) vectors.
    """
    steps = _steps(x, y, cycle)  # validates x and y before the states
    _check_sorted_states(cycle)
    return all(is_majorized_by(*step) for step in steps)


def violation_indices(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]
) -> ViolationReport:
    """Indices k where the k-th partial sum of x exceeds y's beyond tolerance."""
    vx, vy = _padded(as_schmidt_vec(x), as_schmidt_vec(y))
    d = len(vx)
    px = list(accumulate(vx))
    py = list(accumulate(vy))
    hits = frozenset(k + 1 for k in range(d - 1) if px[k] > py[k] + CMP_TOL)
    if hits:
        return ViolationReport(hits, min(hits), max(hits))
    return ViolationReport(hits, None, None)


def incomparable(x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]) -> bool:
    """True iff neither x ≺ y nor y ≺ x."""
    return not is_majorized_by(x, y) and not is_majorized_by(y, x)
