"""Necessary conditions and structural theorems for flexible catalyst cycles.

Each result is a runtime predicate so searches can use it as a cheap
pre-filter before any grid work. Strict inequalities carry RATIO_TOL of
slack toward acceptance; exact-equality preconditions use CMP_TOL.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import (
    EmptyViolationSet,
    NotFeasible,
    PreconditionUnmet,
    WrongDimension,
    ZeroTail,
)
from .majorize import (
    ViolationReport,
    flexible_cycle_ok,
    incomparable,
    standard_catalysis_ok,
)
from .probvec import CMP_TOL, RATIO_TOL, Cycle, SchmidtVec, _check_sorted_states, as_schmidt_vec


def _require_positive_tails(x: SchmidtVec, y: SchmidtVec) -> None:
    if x.values[-1] <= 0.0 or y.values[-1] <= 0.0:
        raise ZeroTail("smallest components of both vectors must be positive")


def boundary_ratios_ok(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], cycle: Cycle
) -> bool:
    """Largest/smallest-component growth constraints along the cycle.

    Every feasible cycle satisfies C_{i,1} <= (y_1/x_1) C_{i+1,1} and
    C_{i,k} >= (y_d/x_d) C_{i+1,k}.
    """
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    _require_positive_tails(sx, sy)
    _check_sorted_states(cycle)
    top = sy.values[0] / sx.values[0]
    bottom = sy.values[-1] / sx.values[-1]
    for ci, cj in cycle.pairs():
        if ci.values[0] > top * cj.values[0] + CMP_TOL:
            return False
        if ci.values[-1] < bottom * cj.values[-1] - CMP_TOL:
            return False
    return True


def support_size_uniform(cycle: Cycle) -> bool:
    """True iff every cycle state has the same number of non-zero entries."""
    sizes = {state.support_size() for state in cycle.states}
    return len(sizes) == 1


def endpoint_conditions_ok(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]
) -> bool:
    """x_1 <= y_1 and x_d >= y_d: necessary for any catalytic transformation."""
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    _require_positive_tails(sx, sy)
    return (
        sx.values[0] <= sy.values[0] + CMP_TOL
        and sx.values[-1] >= sy.values[-1] - CMP_TOL
    )


def boundary_rigidity_holds(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], cycle: Cycle
) -> bool:
    """With matching endpoints (x_1 = y_1, x_d = y_d > 0), feasible cycles must
    keep their first and last components constant; this checks that constancy.
    """
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    if abs(sx.values[0] - sy.values[0]) > CMP_TOL or abs(sx.values[-1] - sy.values[-1]) > CMP_TOL:
        raise PreconditionUnmet("largest and smallest components must match")
    if sx.values[-1] <= 0.0 or sy.values[-1] <= 0.0:
        raise PreconditionUnmet("smallest components must be positive")
    _check_sorted_states(cycle)
    firsts = [state.values[0] for state in cycle.states]
    lasts = [state.values[-1] for state in cycle.states]
    return (
        max(firsts) - min(firsts) <= RATIO_TOL
        and max(lasts) - min(lasts) <= RATIO_TOL
    )


def k2_standard_witness(
    cycle: Cycle, x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]
) -> int:
    """Index (1-based) of a cycle state that already works as a standard catalyst.

    For 2-dimensional states the cycle is totally ordered under majorization
    and its minimal element is guaranteed to be a standard catalyst.
    """
    if cycle.k != 2:
        raise NotFeasible("witness extraction applies to 2-dimensional cycles")
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    if not flexible_cycle_ok(sx, sy, cycle):
        raise NotFeasible("cycle does not enable the transformation")
    # the most mixed state has the largest second component
    j = max(range(cycle.n), key=lambda i: (cycle.states[i].values[-1], -i))
    if not standard_catalysis_ok(sx, sy, cycle.states[j]):
        raise NotFeasible("minimal cycle state failed the standard check")
    return j + 1


def d3_no_go(x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float]) -> bool:
    """True iff no flexible cycle can convert between the two 3-dimensional
    vectors in either direction, which holds exactly when they are incomparable.
    """
    sx = as_schmidt_vec(x)
    sy = as_schmidt_vec(y)
    if sx.dim != 3 or sy.dim != 3:
        raise WrongDimension("applies to dimension-3 vectors")
    return incomparable(sx, sy)


def ratio_bound_holds(
    cycle: Cycle, y: SchmidtVec | Sequence[float], report: ViolationReport
) -> bool:
    """Every cycle state's largest-to-smallest-nonzero ratio must exceed the
    worst adjacent ratio of y across the violation indices.
    """
    if report.empty:
        raise EmptyViolationSet("no violation indices: vectors are comparable")
    sy = as_schmidt_vec(y)
    _check_sorted_states(cycle)
    threshold = 0.0
    for l in report.indices:
        num = sy.values[l - 1]
        den = sy.values[l]
        threshold = max(threshold, num / den if den > 0.0 else math.inf)
    for state in cycle.states:
        if state.values[0] / state.values[state.support_size() - 1] <= threshold - RATIO_TOL:
            return False
    return True


def adjacent_ratio_bound_ok(
    c: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], report: ViolationReport
) -> bool:
    """Adjacent-component bound that standard catalysts obey.

    True iff max_v C_v/C_{v+1} < min(y_1/y_m, y_{n+1}/y_d). Flexible cycle
    states can violate this, so it is NOT a valid necessary condition for
    flexible catalysis; it exists to make that failure checkable.
    """
    if report.empty:
        raise EmptyViolationSet("no violation indices: vectors are comparable")
    sc = as_schmidt_vec(c)
    sy = as_schmidt_vec(y)
    m = report.m
    n = report.n_max
    assert m is not None and n is not None
    max_adjacent = -math.inf
    for v in range(sc.dim - 1):
        num = sc.values[v]
        den = sc.values[v + 1]
        if den == 0.0:
            if num == 0.0:
                continue  # both vanished: no constraint from this pair
            max_adjacent = math.inf
            break
        max_adjacent = max(max_adjacent, num / den)

    def guarded(num: float, den: float) -> float:
        return num / den if den > 0.0 else math.inf

    threshold = min(guarded(sy.values[0], sy.values[m - 1]), guarded(sy.values[n], sy.values[-1]))
    return max_adjacent < threshold + RATIO_TOL
