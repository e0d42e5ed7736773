"""Validated probability vectors, Gibbs vectors, sorting, tensor products, and tail sums.

All values are immutable after construction and every operation is a pure
function, so they can be shared freely across threads.

Each input is checked and converted once. _clamped makes make_prob_vec's
checks in a few C-level scans; only invalid input walks its entries, to name
the first bad one. The public constructors ProbVec, SchmidtVec and GibbsVec
run the same checks on the values they are given, but neither clamp nor
renormalize them. A vector the package builds from values it has already
checked, or that are valid by construction (sorts, tensor products), is made
by _build, which checks nothing. Computed Gibbs weights go through _gibbs,
which checks only that none has underflowed below the normal float range.

The value classes get their immutability, equality, hash and repr from
_Frozen, not from dataclasses, whose import (with inspect and ast) would add
13–18 ms to every start of the scalar CLI.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Sequence
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
# search._provably_empty's allowance for the rounding of the kernel's sums and
# of its own products: EMPTY_GRID_ULPS * (d + 1) machine epsilons on top of
# CURVE_TOL, for p and q of d entries.
EMPTY_GRID_ULPS = 64
# The CSV writer formats v * 1e6 within this of a .5 tie by the f-string, not rint.
FORMAT_TIE_BAND = 1e-9

# Default grid points per weight axis of the entanglement and thermal 2-cycle
# landscapes. search builds its default grids from them; the CLI help names
# them without importing search, which imports numpy.
ENT_GRID_STEPS = 201
THERMO_GRID_STEPS = 401


class _Frozen:
    """Immutable value: the fields named by __match_args__ are set once, in __init__.

    Two values are equal when they are of the same class and their fields
    are equal; the hash is that of the field tuple, and the repr names each
    field, as a frozen dataclass's would.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ProbVec(_Frozen):
    """Finite probability distribution: non-negative entries, unit sum.

    Raises what make_prob_vec raises, but keeps the entries as given: an
    entry within CLAMP of zero is not clamped and a sum within SUM_TOL of 1
    is not renormalized.
    """

    __match_args__ = ("values",)
    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]) -> None:
        vals = list(map(float, values))
        _clamped(vals)
        object.__setattr__(self, "values", tuple(vals))

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


class SchmidtVec(ProbVec):
    """ProbVec sorted non-increasingly; the domain of majorization checks."""

    def __init__(self, values: Iterable[float]) -> None:
        super().__init__(values)
        _check_sorted(self.values)


class GibbsVec(ProbVec):
    """ProbVec with entries that are normal positive floats (a valid thermal reference).

    Entries below CLAMP are kept too; a subnormal one is rejected.
    """

    def __init__(self, values: Iterable[float]) -> None:
        super().__init__(values)
        _check_positive(self.values)


def _build(cls: type[ProbVec], values: tuple[float, ...]) -> ProbVec:
    """A cls holding float values that are valid already; nothing is checked or converted."""
    vec = object.__new__(cls)
    object.__setattr__(vec, "values", values)
    return vec


def _check_sorted(vals: tuple[float, ...]) -> None:
    # the pairwise `<` lets a NaN pass, as a loop over adjacent entries would
    if any(map(operator.lt, vals, vals[1:])):
        raise NotSorted(f"entries must be non-increasing, got {vals}")


def _check_positive(vals: tuple[float, ...]) -> None:
    low = min(vals)  # vals are finite and non-empty here
    if low <= 0.0:
        raise FlexcatError("reference distribution must be strictly positive")
    if low < sys.float_info.min:  # a subnormal weight loses relative precision
        raise FlexcatError(
            f"reference weight {low!r} is subnormal (below {sys.float_info.min!r}),"
            " too small for the thermo-majorization kernels"
        )


def _gibbs(weights: tuple[float, ...]) -> GibbsVec:
    """A GibbsVec of normalized weights the package computed, once none has underflowed."""
    _check_positive(weights)
    return _build(GibbsVec, weights)


def _clamped(vals: list[float]) -> tuple[list[float], float]:
    """The entries with those within CLAMP of zero made exact zeros, and their sum.

    Raises as make_prob_vec documents, the first failing entry naming the
    error. Valid input takes a few C-level scans.
    """
    if not vals:
        raise EmptyVector("probability vector needs at least one entry")
    low = min(vals)
    if low < -CLAMP or not all(map(math.isfinite, vals)):
        for v in vals:
            if not math.isfinite(v):
                raise NonFiniteEntry(f"entry {v} is not finite")
            if v < -CLAMP:
                raise NegativeEntry(f"entry {v} is negative")
    if low <= CLAMP:
        vals = [0.0 if abs(v) <= CLAMP else v for v in vals]
    try:
        total = math.fsum(vals)
    except OverflowError:  # a sum beyond the float range is far from 1
        total = math.inf
    if abs(total - 1.0) > SUM_TOL:
        raise BadNormalization(f"entries sum to {total}, expected 1 within {SUM_TOL}")
    return vals, total


def _normalized(raw: Iterable[float]) -> tuple[float, ...]:
    """The values make_prob_vec gives raw: checked, clamped and divided by their sum."""
    vals, total = _clamped(list(map(float, raw)))
    return tuple(vals) if total == 1.0 else tuple(v / total for v in vals)


def _values(p: ProbVec | Sequence[float]) -> tuple[float, ...]:
    """The values of a ProbVec, or of make_prob_vec(p) without building it."""
    return p.values if isinstance(p, ProbVec) else _normalized(p)


def make_prob_vec(raw: Iterable[float]) -> ProbVec:
    """Validate and normalize a raw sequence into a ProbVec.

    NaN or infinite entries raise NonFiniteEntry and entries strictly below
    -CLAMP raise NegativeEntry; entries within CLAMP of zero are clamped to
    exactly 0. Sums within SUM_TOL of unity are renormalized to exact unit
    sum, anything further off raises BadNormalization.
    """
    return _build(ProbVec, _normalized(raw))


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
    return _gibbs(tuple(w / z for w in weights))


def sort_desc(p: ProbVec | Sequence[float]) -> SchmidtVec:
    """Reorder a distribution non-increasingly (stable on ties)."""
    return _build(SchmidtVec, tuple(sorted(_values(p), reverse=True)))


def uniform(d: int) -> SchmidtVec:
    """The flat distribution on d outcomes."""
    if d < 1:
        raise EmptyVector("dimension must be positive")
    return _build(SchmidtVec, (1.0 / d,) * d)


def tensor(a: ProbVec | Sequence[float], b: ProbVec | Sequence[float]) -> ProbVec:
    """Product distribution with entries a_i * b_j, dim = dim(a) * dim(b)."""
    va = _values(a)
    vb = _values(b)
    return _build(ProbVec, tuple([x * y for x in va for y in vb]))


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
    vals = _values(x)
    _check_sorted(vals)
    return _build(SchmidtVec, vals)


class Cycle(_Frozen):
    """Ordered sequence of equal-dimension catalyst states, indexed cyclically."""

    __match_args__ = ("states",)
    states: tuple[ProbVec, ...]

    def __init__(self, states: tuple[ProbVec, ...]) -> None:
        if not states:
            raise EmptyCycle("cycle is empty")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"cycle states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "states", states)

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


def _check_sorted_states(cycle: Cycle) -> None:
    """Raise NotSorted unless every state of the cycle is non-increasing."""
    for state in cycle.states:
        if not isinstance(state, SchmidtVec):
            _check_sorted(state.values)
