"""Validated probability vectors, Gibbs vectors, sorting, tensor products, and tail sums.

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    BadNormalization,
    BadRange,
    DimensionMismatch,
    EmptyCycle,
    EmptyVector,
    FlexcatError,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotSorted,
)

if TYPE_CHECKING:
    import numpy as np

# All of the package's tolerances. Inputs within SUM_TOL of unit sum are
# renormalized exactly; comparisons of sums use CMP_TOL. Entries at or below
# CLAMP in magnitude become exact zeros so support counts are well-defined.
SUM_TOL = 1e-9
CMP_TOL = 1e-12
CLAMP = 1e-15
CURVE_TOL = 1e-10  # slack of Lorenz-curve dominance, toward acceptance
RATIO_TOL = 1e-10  # slack of strict ratio inequalities, toward acceptance
PARAM_PRECISION = 1e-6  # the optimizers stop once their step falls below it

# Default grid points per weight axis of the entanglement and thermal 2-cycle
# landscapes. search builds its default grids from them; the CLI help names
# them without importing search, which imports numpy.
ENT_GRID_STEPS = 201
THERMO_GRID_STEPS = 401


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
        import numpy as np  # here, so the scalar commands start without numpy

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


@dataclass(frozen=True)
class GibbsVec(ProbVec):
    """ProbVec with strictly positive entries (a valid thermal reference)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(v <= 0.0 for v in self.values):
            raise FlexcatError("reference distribution must be strictly positive")


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
    if not math.isfinite(max(lv) - emin):  # else beta = 0 would give 0 * inf = NaN weights
        raise BadRange("energy levels must differ by a finite amount")
    weights = [math.exp(-beta * (e - emin)) for e in lv]
    z = math.fsum(weights)
    return GibbsVec(tuple(w / z for w in weights))


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
            raise EmptyCycle("cycle is empty")
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
