"""Validated probability vectors, sorting, tensor products, and tail sums.

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadNormalization,
    DimensionMismatch,
    EmptyCycle,
    EmptyVector,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotSorted,
)

# All of the package's tolerances. Inputs within SUM_TOL of unit sum are
# renormalized exactly; comparisons of sums use CMP_TOL. Entries at or below
# CLAMP in magnitude become exact zeros so support counts are well-defined.
SUM_TOL = 1e-9
CMP_TOL = 1e-12
CLAMP = 1e-15
CURVE_TOL = 1e-10  # slack of Lorenz-curve dominance, toward acceptance
RATIO_TOL = 1e-10  # slack of strict ratio inequalities, toward acceptance
PARAM_PRECISION = 1e-6  # the optimizers stop once their step falls below it


@dataclass(frozen=True)
class ProbVec:
    """Finite probability distribution: non-negative entries, unit sum."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def dim(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def support_size(self) -> int:
        """Number of strictly positive entries (zeros are exact after clamping)."""
        return sum(1 for v in self.values if v > 0.0)


@dataclass(frozen=True)
class SchmidtVec(ProbVec):
    """ProbVec sorted non-increasingly; the domain of majorization checks."""

    def __post_init__(self) -> None:
        super().__post_init__()
        vals = self.values
        for i in range(len(vals) - 1):
            if vals[i] < vals[i + 1]:
                raise NotSorted(f"entries must be non-increasing, got {vals}")


def make_prob_vec(raw: Iterable[float]) -> ProbVec:
    """Validate and normalize a raw sequence into a ProbVec.

    NaN or infinite entries raise NonFiniteEntry and entries strictly below
    -CLAMP raise NegativeEntry; entries within CLAMP of zero are clamped to
    exactly 0. Sums within SUM_TOL of unity are renormalized to exact unit
    sum, anything further off raises BadNormalization.
    """
    vals = [float(v) for v in raw]
    if not vals:
        raise EmptyVector("probability vector needs at least one entry")
    for v in vals:
        if not math.isfinite(v):
            raise NonFiniteEntry(f"entry {v} is not finite")
        if v < -CLAMP:
            raise NegativeEntry(f"entry {v} is negative")
    vals = [0.0 if abs(v) <= CLAMP else v for v in vals]
    try:
        total = math.fsum(vals)
    except OverflowError:  # a sum beyond the float range is far from 1
        total = math.inf
    if abs(total - 1.0) > SUM_TOL:
        raise BadNormalization(f"entries sum to {total}, expected 1 within {SUM_TOL}")
    return ProbVec(tuple(v / total for v in vals))


def sort_desc(p: ProbVec | Sequence[float]) -> SchmidtVec:
    """Reorder a distribution non-increasingly (stable on ties)."""
    vec = as_prob_vec(p)
    return SchmidtVec(tuple(sorted(vec.values, reverse=True)))


def uniform(d: int) -> SchmidtVec:
    """The flat distribution on d outcomes."""
    if d < 1:
        raise EmptyVector("dimension must be positive")
    return SchmidtVec(tuple([1.0 / d] * d))


def tensor(a: ProbVec | Sequence[float], b: ProbVec | Sequence[float]) -> ProbVec:
    """Product distribution with entries a_i * b_j, dim = dim(a) * dim(b)."""
    va = as_prob_vec(a)
    vb = as_prob_vec(b)
    return ProbVec(tuple(x * y for x in va.values for y in vb.values))


def tail_sum(x: SchmidtVec | Sequence[float], l: int) -> float:
    """Sum of the d-l+1 smallest entries of a sorted vector (1-based l)."""
    vec = as_schmidt_vec(x)
    if not 1 <= l <= vec.dim:
        raise IndexOutOfRange(f"l={l} outside 1..{vec.dim}")
    return math.fsum(vec.values[l - 1 :])


def as_prob_vec(p: ProbVec | Sequence[float]) -> ProbVec:
    """Pass ProbVec through, validate anything else via make_prob_vec."""
    if isinstance(p, ProbVec):
        return p
    return make_prob_vec(p)


def as_schmidt_vec(x: ProbVec | Sequence[float]) -> SchmidtVec:
    """Coerce to SchmidtVec, raising NotSorted for unsorted input."""
    if isinstance(x, SchmidtVec):
        return x
    return SchmidtVec(as_prob_vec(x).values)


@dataclass(frozen=True)
class Cycle:
    """Ordered sequence of equal-dimension catalyst states, indexed cyclically."""

    states: tuple[ProbVec, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise EmptyCycle("cycle needs at least one state")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatch(f"cycle states have mixed dimensions {sorted(dims)}")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def k(self) -> int:
        return self.states[0].dim

    def pairs(self) -> list[tuple[ProbVec, ProbVec]]:
        """Consecutive (c_i, c_{i+1}) pairs with the cyclic wrap c_{n+1} = c_1."""
        n = self.n
        return [(self.states[i], self.states[(i + 1) % n]) for i in range(n)]


def make_cycle(states: Iterable[ProbVec | Sequence[float]]) -> Cycle:
    return Cycle(tuple(as_prob_vec(s) for s in states))
