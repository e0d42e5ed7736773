"""Landscape scans, derivative-free optimizers, and the conjecture harness.

Catalysts of dimension 2 are parameterized by a single weight: sorted
states (1-c, c) with c in [0, 0.5] for majorization searches, and plain
states (c, 1-c) with c in [0, 1] (ground-level population) in the thermal
setting. A 2-cycle landscape has one weight axis: cell (i, j) needs steps
x⊗c_i → y⊗c_j and x⊗c_j → y⊗c_i, entries (i, j) and (j, i) of one step
matrix S, so a scan computes S once and combines it with S.T. Every kernel
runs in one thread. The entanglement kernels loop over the 2d tail or
prefix columns, updating one 2-D buffer per column; the thermal kernel is
thermo.dominance_matrix, whose docstring describes it. A thermal 2-cycle
scan first tries to prove its grid empty from the curves' end slopes
(_provably_empty) and builds no curve when it can. Every entanglement
search builds its steps in _step_rows, zero-padded as the scalar API pads;
the thermal scans build theirs in thermo._step_curves. The harness tests
each trial's endpoint conditions, then the grid diagonal, and searches
closed walks only if both leave it open.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .conditions import endpoint_conditions_ok
from .errors import BadRange, DimensionMismatch, SamplingFailed, WrongDimension
from .majorize import _padded, _steps, incomparable, vidal_probability
from .probvec import (
    CMP_TOL,
    CURVE_TOL,
    ENT_GRID_STEPS,
    PARAM_PRECISION,
    THERMO_GRID_STEPS,
    Cycle,
    ProbVec,
    SchmidtVec,
    _build,
    as_schmidt_vec,
    gibbs_vector,
)
from .thermo import _step_curves, _step_inputs, dominance_diagonal, dominance_matrix


@dataclass(frozen=True)
class GridSpec:
    """The one weight axis that both catalyst weights of a 2-cycle landscape share.

    (lo2, hi2, steps2) must repeat (lo1, hi1, steps1). The six fields stay so
    callers such as perfbench keep building GridSpec(lo, hi, lo, hi, n, n)
    and counting steps1 * steps2 cells.
    """

    lo1: float
    hi1: float
    lo2: float
    hi2: float
    steps1: int
    steps2: int

    def __post_init__(self) -> None:
        if not self.lo1 < self.hi1:
            raise BadRange("axis bounds must satisfy lo < hi")
        for name in ("steps1", "steps2"):
            try:  # numpy integers pass; 2.5, 3.0 and "3" would fail later inside numpy
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise BadRange("grid step counts must be integers") from None
        if self.steps1 < 2:
            raise BadRange("each axis needs at least 2 grid points")
        if self.steps1 > math.isqrt(sys.maxsize):  # else numpy cannot size the square grid
            raise BadRange(f"each axis takes at most {math.isqrt(sys.maxsize)} grid points")
        if (self.lo2, self.hi2, self.steps2) != (self.lo1, self.hi1, self.steps1):
            raise BadRange("both catalyst weights must share one axis")

    def axis1(self) -> np.ndarray:
        return np.linspace(self.lo1, self.hi1, self.steps1)


@dataclass(frozen=True)
class LandscapeGrid:
    """Row-major scan result, symmetric from a scan: values[i, j] is cell (axis1[i], axis1[j]).

    values is read-only: float64 in [0, 1] for kind "probability", bool for
    kind "feasibility" (1 byte a cell). A feasibility grid is taken as given
    when it is bool; numbers must all be exactly 0 or 1.
    """

    spec: GridSpec
    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("probability", "feasibility"):
            raise BadRange(f"unknown landscape kind {self.kind!r}")
        vals = np.asarray(self.values)
        if self.kind == "probability" or vals.dtype != bool:  # a scan's bool grid needs no pass
            vals = np.asarray(vals, dtype=float)
        if vals.shape != (self.spec.steps1, self.spec.steps2):
            raise DimensionMismatch(
                f"values shape {vals.shape} != grid {(self.spec.steps1, self.spec.steps2)}"
            )
        # a NaN fails every comparison, so it is rejected too
        if self.kind == "probability":
            if not -CMP_TOL <= vals.min() <= vals.max() <= 1 + CMP_TOL:
                raise BadRange("probability values must lie in [0, 1]")
        elif vals.dtype != bool:
            if not ((vals == 0.0) | (vals == 1.0)).all():
                raise BadRange("feasibility values must be 0 or 1")
            vals = vals.astype(bool)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class OptResult:
    """Optimizer outcome; value is the objective re-evaluated at params."""

    params: tuple[float, ...]
    value: float
    iterations: int


DEFAULT_ENT_GRID = GridSpec(0.0, 0.5, 0.0, 0.5, ENT_GRID_STEPS, ENT_GRID_STEPS)
DEFAULT_THERMO_GRID = GridSpec(0.0, 1.0, 0.0, 1.0, THERMO_GRID_STEPS, THERMO_GRID_STEPS)


# ---------------------------------------------------------------------------
# entanglement scans (k = 2)
# ---------------------------------------------------------------------------


def _step_rows(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], cs: np.ndarray
) -> np.ndarray:
    """Rows x⊗(1-c, c) and y⊗(1-c, c) for each c, stacked as shape (2, len(cs), 2d).

    x and y are validated and zero-padded as the scalar API pads; each row is
    sorted non-increasingly, so its cumsum gives prefix sums and the cumsum of
    its reverse, reversed, gives tail sums.
    """
    vx, vy = _padded(as_schmidt_vec(x), as_schmidt_vec(y))
    weights = np.stack([1.0 - cs, cs], axis=1)
    rows = np.stack([np.outer(weights, v).reshape(len(cs), -1) for v in (vx, vy)])
    rows.sort(axis=-1)
    return rows[..., ::-1]


def _tail_ratio(sx: np.ndarray, sy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sx / sy (broadcast), inf where the target tail is empty: no constraint."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(sx, sy, out=out)
    np.copyto(ratio, np.inf, where=sy == 0.0)
    return ratio


def _min_tail_ratio(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """P[i, j] = min_l sx[i, l] / sy[j, l], skipping empty target tails."""
    out = np.full((sx.shape[0], sy.shape[0]), np.inf)
    buf = np.empty_like(out)
    for col in range(sx.shape[1]):
        np.minimum(out, _tail_ratio(sx[:, col, None], sy[None, :, col], out=buf), out=out)
    return out


def _majorization_matrix(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """M[i, j] = row i of px is prefix-dominated by row j of py."""
    out = np.ones((px.shape[0], py.shape[0]), dtype=bool)
    for col in range(px.shape[1] - 1):
        out &= px[:, col, None] <= py[None, :, col] + CMP_TOL
    return out


def _standard_margins(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Worst prefix-sum slack of each row of px against the same row of py.

    A row's margin is >= 0 iff x⊗(1-c,c) is majorized by y⊗(1-c,c).
    """
    return (py - px)[:, :-1].min(axis=1)


def per_step_probability(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], cycle: Cycle
) -> float:
    """Geometric mean of the per-step conversion probabilities around a cycle."""
    factors = []
    for step in _steps(x, y, cycle):
        p = vidal_probability(*step)
        if p == 0.0:
            return 0.0
        factors.append(p)
    return math.prod(factors) ** (1.0 / cycle.n)


def _check_weight_range(spec: GridSpec, hi: float, above: str) -> None:
    """Reject an axis outside [0, hi]; `above` says what a weight above hi breaks."""
    if spec.hi1 > hi:
        raise BadRange(f"catalyst weight above {hi:g} {above}")
    if spec.lo1 < 0.0:
        raise BadRange("catalyst weight must be non-negative")


def _weight_axis(resolution: float) -> np.ndarray:
    """Sorted-catalyst weights c in [0, 0.5] at the given pitch."""
    if not 0.0 < resolution <= 0.5:
        raise BadRange("resolution must lie in (0, 0.5]")
    steps = round(min(0.5 / resolution, sys.maxsize)) + 1  # 0.5 / 5e-324 is inf
    return GridSpec(0.0, 0.5, 0.0, 0.5, steps, steps).axis1()


def scan_pflex_landscape(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], spec: GridSpec
) -> LandscapeGrid:
    """Per-step probability of the 2-cycle [(1-c1, c1), (1-c2, c2)] on a grid."""
    _check_weight_range(spec, 0.5, "breaks sortedness of (1-c, c)")
    tails = np.cumsum(_step_rows(x, y, spec.axis1())[..., ::-1], axis=-1)[..., ::-1]
    step = np.clip(_min_tail_ratio(*tails), 0.0, 1.0)
    return LandscapeGrid(spec, np.sqrt(step * step.T), "probability")


# Compass moves by parameter count: coordinate moves plus, in 2-D, both
# all-coordinates diagonals. The diagonals keep the ascent from stalling on
# ridge-aligned optima (the per-step objective is symmetric in its
# parameters, so its maxima often sit on such ridges).
_DIRECTIONS = {
    1: ((1.0,), (-1.0,)),
    2: ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (-1.0, -1.0)),
}


def _pattern_search(
    f: Callable[[Sequence[float]], float],
    start: Sequence[float],
    step: float,
    bounds: Sequence[tuple[float, float]],
) -> tuple[tuple[float, ...], float, int]:
    """Shrinking-step compass ascent; only strict improvements move."""
    params = [float(v) for v in start]
    value = f(params)
    evals = 1
    while step > PARAM_PRECISION:
        best_val = value
        best = None
        for direction in _DIRECTIONS[len(params)]:
            cand = [
                min(max(p + step * dv, lo), hi)
                for p, dv, (lo, hi) in zip(params, direction, bounds)
            ]
            if cand == params:
                continue
            v = f(cand)
            evals += 1
            if v > best_val:
                best_val = v
                best = cand
        if best is None:
            step /= 2.0
        else:
            params, value = best, best_val
    return tuple(params), value, evals


def _refine_constant(
    objective: Callable[[Sequence[float]], float], cs: np.ndarray, diag: np.ndarray
) -> tuple[tuple[float, ...], float, int]:
    """Compass ascent over one constant weight, from the argmax of diag at the pitch of axis cs."""
    start = float(cs[int(np.argmax(diag))])
    bound = (float(cs[0]), float(cs[-1]))
    return _pattern_search(objective, [start], float(cs[1] - cs[0]), [bound])


def _catalyst(c: float) -> SchmidtVec:
    """The state (1-c, c) of a weight c in [0, 0.5]: sorted and normalized by construction."""
    c = float(c)  # a weight clipped to the axis can be an int bound of a GridSpec
    return _build(SchmidtVec, (1.0 - c, c))


def best_standard(
    x: SchmidtVec | Sequence[float], y: SchmidtVec | Sequence[float], resolution: float = 0.0025
) -> OptResult:
    """Best constant catalyst (1-c, c): grid scan of c plus local refinement."""
    cs = _weight_axis(resolution)
    vx = as_schmidt_vec(x)
    vy = as_schmidt_vec(y)
    sx, sy = np.cumsum(_step_rows(vx, vy, cs)[..., ::-1], axis=-1)[..., ::-1]
    diag = np.clip(_tail_ratio(sx, sy).min(axis=1), 0.0, 1.0)

    def objective(params: Sequence[float]) -> float:
        c = params[0]
        return per_step_probability(vx, vy, Cycle((_catalyst(c),)))

    return OptResult(*_refine_constant(objective, cs, diag))


def best_flexible(
    x: SchmidtVec | Sequence[float],
    y: SchmidtVec | Sequence[float],
    spec: GridSpec = DEFAULT_ENT_GRID,
) -> OptResult:
    """Best 2-cycle of catalysts: global grid argmax plus local refinement.

    The objective is symmetric under swapping the two weights; the returned
    params are canonicalized to non-increasing order.
    """
    vx = as_schmidt_vec(x)
    vy = as_schmidt_vec(y)
    grid = scan_pflex_landscape(vx, vy, spec)
    flat = int(np.argmax(grid.values))  # ties break at the lowest row-major index
    i, j = divmod(flat, spec.steps1)
    cs = spec.axis1()

    def objective(params: Sequence[float]) -> float:
        c1, c2 = params
        cycle = Cycle((_catalyst(c1), _catalyst(c2)))
        return per_step_probability(vx, vy, cycle)

    pitch = float(cs[1] - cs[0])
    bound = (spec.lo1, spec.hi1)
    params, value, evals = _pattern_search(objective, cs[[i, j]].tolist(), pitch, [bound, bound])
    # constant cycles lie on the diagonal; refining there keeps the best constant catalyst's value
    diag_params, diag_value, diag_evals = _refine_constant(
        lambda prm: objective([prm[0], prm[0]]), cs, np.diagonal(grid.values)
    )
    evals += diag_evals
    if diag_value > value:
        params, value = (diag_params[0], diag_params[0]), diag_value
    ordered = tuple(sorted(params, reverse=True))
    return OptResult(ordered, objective(ordered), evals + 1)


# ---------------------------------------------------------------------------
# thermal scans (k = 2, states (c, 1-c))
# ---------------------------------------------------------------------------


def _scan_inputs(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    levels_s: Sequence[float],
    levels_c: Sequence[float],
    beta: float,
    cs: np.ndarray,
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[np.ndarray, np.ndarray, tuple[float, ...]]]:
    """gamma_s, gamma_c and the _step_inputs of the steps p ⊗ (c_i, 1-c_i) → q ⊗ (c_j, 1-c_j)."""
    if len(levels_c) != 2:
        raise DimensionMismatch("catalyst parameterization needs exactly 2 levels")
    states = np.stack([cs, 1.0 - cs], axis=1)
    gamma_s, gamma_c = gibbs_vector(levels_s, beta), gibbs_vector(levels_c, beta)
    return gamma_s.values, gamma_c.values, _step_inputs(p, q, gamma_s, gamma_c, states, states)


def _provably_empty(
    pq: np.ndarray, gamma_s: tuple[float, ...], gamma_c: tuple[float, ...], cs: np.ndarray
) -> bool:
    """True when no cell of the thermal 2-cycle grid on axis cs can be feasible.

    pq holds the validated p and q; no curve is built. Cell (i, j) needs
    A_i ≥ B_j - τ and A_j ≥ B_i - τ at the breakpoints of the B curve, where A_i
    and B_j are the Lorenz curves of p ⊗ (c_i, 1-c_i) and q ⊗ (c_j, 1-c_j)
    against gamma_s ⊗ (g0, g1) and τ = CURVE_TOL. Per axis point, let
    α = max(c/g0, (1-c)/g1), σ its least positive entry, and X the Gibbs
    weight of its support: 1 inside the axis, g1 at c = 0, g0 at c = 1. With
    a, a' the largest and least p/gamma_s (b, b' for q), A_i's first slope is
    a·α_i and, when p has full support, its last positive slope is a'·σ_i.

    A concave curve lies under the line of its first segment through the
    origin and under the line of its last positive segment through its
    support end (X_i, 1). In exact arithmetic each segment is at least
    w = min(gamma_s)·min(g0, g1) wide, the least composite weight. So:

    - B_j's first breakpoint (x, b·α_j·x) has x ≥ w, where A_i lies at most
      a·α_i·x: A_i passes only if (b·α_j - a·α_i)·w ≤ τ. Adding the same
      bound for A_j against B_i, (R1) (b - a)(α_i + α_j) ≤ 2τ/w.
    - With full support, B_j's last positive segment starts at
      (X_j - u, 1 - b'·σ_j·u) with u ≥ w. If X_i = X_j, A_i lies there at most
      1 - a'·σ_i·u, so as for R1, (R2) (a' - b')(σ_i + σ_j) ≤ 2τ/w.
    - If X_i > X_j, A_i lies at most 1 - a'·σ_i(X_i - X_j) at B_j's support
      end (X_j, 1), so (R3) a'·σ_i(X_i - X_j) ≤ τ.

    A point is kept when, among the partners of some one support weight, the
    most lenient partner of each rule passes it: a superset of the points of
    feasible cells. τ gets an allowance for the few ulps by which the kernel's
    sums and these products round. A subnormal weight rounds by more, so
    then nothing is proven.
    """
    g0, g1 = gamma_c
    w = min(gamma_s) * min(g0, g1)
    if w < np.finfo(float).tiny:
        return False
    tol = CURVE_TOL + 64 * (pq.shape[1] + 1) * np.finfo(float).eps
    full = pq.min() > 0.0  # R2 and R3 need p and q of full support
    ratios = pq / gamma_s
    (a, b), (a1, b1) = ratios.max(axis=1), ratios.min(axis=1)
    cat = np.stack([cs / g0, (1.0 - cs) / g1])
    alpha = cat.max(axis=0)
    sigma = np.where(cat > 0.0, cat, np.inf).min(axis=0)
    support = np.where(cs == 0.0, g1, np.where(cs == 1.0, g0, 1.0))
    kept = np.zeros(len(cs), dtype=bool)
    for x in np.unique(support):
        group = support == x
        ok = (b - a) * (alpha + alpha[group].min()) <= 2 * tol / w  # R1
        if full:
            s = sigma[group].min()
            ok &= np.where(
                group,
                (a1 - b1) * (sigma + s) <= 2 * tol / w,  # R2
                a1 * np.where(support > x, sigma, s) * abs(support - x) <= tol,  # R3
            )
        kept |= ok
    return not kept.any()


def scan_thermo_feasibility(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    levels_s: Sequence[float],
    levels_c: Sequence[float],
    beta: float,
    spec: GridSpec = DEFAULT_THERMO_GRID,
) -> LandscapeGrid:
    """Feasibility of the thermal 2-cycle [(c1, 1-c1), (c2, 1-c2)] as a bool grid.

    values[i, j] is True iff both steps of the cycle pass thermo-majorization.
    """
    _check_weight_range(spec, 1.0, "makes a negative population")
    cs = spec.axis1()
    gamma_s, gamma_c, inputs = _scan_inputs(p, q, levels_s, levels_c, beta, cs)
    if _provably_empty(inputs[0], gamma_s, gamma_c, cs):
        return LandscapeGrid(spec, np.zeros((len(cs), len(cs)), dtype=bool), "feasibility")
    step = dominance_matrix(*_step_curves(*inputs))
    step &= step.T  # numpy buffers the overlapping operand; no second bool grid stays alive
    return LandscapeGrid(spec, step, "feasibility")


def scan_thermo_standard(
    p: ProbVec | Sequence[float],
    q: ProbVec | Sequence[float],
    levels_s: Sequence[float],
    levels_c: Sequence[float],
    beta: float,
    num: int = 1001,
) -> np.ndarray:
    """Feasibility of constant thermal catalysts (c, 1-c) on a diagonal grid.

    Returns a boolean vector over c = linspace(0, 1, num).
    """
    cs = GridSpec(0.0, 1.0, 0.0, 1.0, num, num).axis1()  # GridSpec's rule: num >= 2
    return dominance_diagonal(*_step_curves(*_scan_inputs(p, q, levels_s, levels_c, beta, cs)[2]))


# ---------------------------------------------------------------------------
# random instances and the conjecture harness
# ---------------------------------------------------------------------------

MAX_SAMPLE_ATTEMPTS = 100_000


def _draw_sorted_simplex(rng: np.random.Generator, d: int) -> SchmidtVec:
    draws = rng.exponential(1.0, d)
    vec = np.sort(draws / draws.sum())[::-1]
    return _build(SchmidtVec, tuple(vec.tolist()))


def _sample_incomparable(rng: np.random.Generator, d: int) -> tuple[SchmidtVec, SchmidtVec, int]:
    for attempt in range(1, MAX_SAMPLE_ATTEMPTS + 1):
        x = _draw_sorted_simplex(rng, d)
        y = _draw_sorted_simplex(rng, d)
        if incomparable(x, y):
            return x, y, attempt
    raise SamplingFailed(f"no incomparable pair in {MAX_SAMPLE_ATTEMPTS} attempts")


def sample_incomparable_pair(rng_seed: int, d: int) -> tuple[SchmidtVec, SchmidtVec]:
    """Deterministic incomparable pair of sorted flat-simplex samples."""
    if d < 3:
        raise WrongDimension("incomparable pairs need dimension >= 3")
    if rng_seed < 0:  # numpy takes only non-negative seeds
        raise BadRange("seed must be non-negative")
    x, y, _ = _sample_incomparable(np.random.default_rng(rng_seed), d)
    return x, y


@dataclass(frozen=True)
class ConjectureCandidate:
    """Instance where a flexible cycle was found but no standard catalyst."""

    trial: int
    x: tuple[float, ...]
    y: tuple[float, ...]
    cycle_weights: tuple[float, ...]
    best_standard_weight: float
    best_standard_margin: float


@dataclass(frozen=True)
class ConjectureReport:
    """Summary of a random-instance search for flexible-only transformations.

    standard_by_refinement_trials is 0 by the k=2 witness theorem; kept for the report format.
    """

    trials: int
    seed: int
    d: int
    k: int
    n: int
    resolution: float
    raw_pairs_drawn: int
    flexible_feasible_trials: int
    standard_on_grid_trials: int
    standard_by_refinement_trials: int
    candidates: tuple[ConjectureCandidate, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def _bool_power(m: np.ndarray, n: int) -> np.ndarray:
    """Walks of exactly n steps; a float product runs on BLAS and, unlike uint8, cannot wrap."""
    out = m.copy()
    for _ in range(n - 1):
        out = (out @ m.astype(float)) > 0  # thresholded every step, so counts stay <= len(m)
    return out


def _reconstruct_cycle(m: np.ndarray, n: int) -> list[int]:
    """Lowest-index closed walk of length n in the step-feasibility digraph."""
    start = int(np.flatnonzero(np.diagonal(_bool_power(m, n)))[0])
    walk = [start]
    current = start
    for remaining in range(n - 1, 0, -1):
        nexts = np.flatnonzero(m[current] & _bool_power(m, remaining)[:, start])
        current = int(nexts[0])
        walk.append(current)
    return walk


def conjecture_search(
    trials: int,
    seed: int,
    d: int = 4,
    grid_resolution: float = 0.005,
    k: int = 2,
    n: int = 2,
) -> ConjectureReport:
    """Search random incomparable pairs for flexible-only transformations.

    Per trial: skip a pair failing the endpoint conditions (x_1 <= y_1,
    x_d >= y_d) before any grid work; count a standard catalyst on the grid
    diagonal as flexible and standard; otherwise report a closed walk of
    length n as a candidate, with the grid argmax of the standard margin.
    By the k=2 witness theorem (conditions.k2_standard_witness) the most
    mixed state of a feasible cycle, a grid point, is a standard catalyst,
    so candidates arise only from float noise or a counterexample.
    """
    if k != 2:
        raise WrongDimension("only 2-dimensional catalyst grids are implemented")
    if d < 3:
        raise WrongDimension("incomparable pairs need dimension >= 3")
    cs = _weight_axis(grid_resolution)
    if n < 1:
        raise BadRange("cycle length must be at least 1")
    if trials < 0:
        raise BadRange("trials must be non-negative")
    if seed < 0:
        raise BadRange("seed must be non-negative")
    raw_pairs = 0
    standard_grid = 0
    candidates: list[ConjectureCandidate] = []
    for trial in range(trials):
        x, y, attempts = _sample_incomparable(np.random.default_rng((seed, trial)), d)
        raw_pairs += attempts
        if not endpoint_conditions_ok(x, y):
            continue
        prefix_x, prefix_y = np.cumsum(_step_rows(x, y, cs), axis=-1)
        m = _majorization_matrix(prefix_x, prefix_y)
        if np.diagonal(m).any():  # a constant catalyst is a closed walk of every length
            standard_grid += 1
            continue
        if not np.diagonal(_bool_power(m, n)).any():
            continue
        margins = _standard_margins(prefix_x, prefix_y)
        best = int(np.argmax(margins))
        candidates.append(
            ConjectureCandidate(
                trial=trial,
                x=x.values,
                y=y.values,
                cycle_weights=tuple(float(cs[i]) for i in _reconstruct_cycle(m, n)),
                best_standard_weight=float(cs[best]),
                best_standard_margin=float(margins[best]),
            )
        )
    return ConjectureReport(
        trials=trials,
        seed=seed,
        d=d,
        k=k,
        n=n,
        resolution=grid_resolution,
        raw_pairs_drawn=raw_pairs,
        flexible_feasible_trials=standard_grid + len(candidates),
        standard_on_grid_trials=standard_grid,
        standard_by_refinement_trials=0,
        candidates=tuple(candidates),
    )
