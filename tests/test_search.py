"""Landscape scans, optimizers, samplers, and the conjecture harness."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from flexcat import (
    BadRange,
    Cycle,
    GridSpec,
    LandscapeGrid,
    SchmidtVec,
    WrongDimension,
    best_flexible,
    best_standard,
    conjecture_search,
    flexible_cycle_ok,
    incomparable,
    is_majorized_by,
    make_prob_vec,
    per_step_probability,
    sample_incomparable_pair,
    scan_pflex_landscape,
    scan_thermo_feasibility,
    scan_thermo_standard,
    sort_desc,
    standard_catalysis_ok,
    support_size_uniform,
    tensor,
    thermo_flexible_ok,
    uniform,
    vidal_probability,
)
from flexcat import exact, search, thermo
from flexcat.conditions import endpoint_conditions_ok
from flexcat.probvec import CMP_TOL
from flexcat.search import (
    _bool_power,
    _majorization_matrix,
    _min_tail_ratio,
    _reconstruct_cycle,
    _sample_incomparable,
    _standard_margins,
    _step_rows,
)
from flexcat.thermo import gibbs_vector
from helpers import (
    BETA,
    C_ALT1,
    LEVELS_C,
    LEVELS_S,
    THERMO_C1,
    THERMO_C2,
    THERMO_P,
    THERMO_Q,
    X_ALT4,
    X_DEMO4,
    Y_ALT4,
    Y_DEMO4,
    checked_cells,
    endpoint_kept_trials,
    mix_down,
    random_sorted,
    schmidt,
    two_cycle_walk,
    weight_state,
)


def test_grid_spec_validation():
    with pytest.raises(BadRange, match="lo < hi"):
        GridSpec(0.5, 0.0, 0.5, 0.0, 10, 10)
    with pytest.raises(BadRange, match="at least 2 grid points"):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    side = math.isqrt(sys.maxsize)  # the longest axis whose square grid numpy can size
    with pytest.raises(BadRange, match=f"at most {side} grid points"):
        GridSpec(0.0, 1.0, 0.0, 1.0, side + 1, side + 1)
    assert GridSpec(0.0, 1.0, 0.0, 1.0, side, side).steps1 == side  # no array is built
    for lo2, hi2, steps2 in ((0.1, 1.0, 10), (0.0, 0.9, 10), (0.0, 1.0, 11)):
        with pytest.raises(BadRange, match="share one axis"):
            GridSpec(0.0, 1.0, lo2, hi2, 10, steps2)
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, 11, 11)
    assert spec.axis1()[0] == 0.0
    assert spec.axis1()[-1] == 0.5


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", None])
def test_grid_spec_rejects_non_integer_step_counts(steps):
    with pytest.raises(BadRange, match="must be integers"):
        GridSpec(0.0, 1.0, 0.0, 1.0, steps, steps)


def test_grid_spec_accepts_numpy_integer_step_counts():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, np.int64(3), np.int64(3))
    assert spec.axis1().tolist() == [0.0, 0.5, 1.0]
    assert type(spec.steps1) is int and spec == GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)


def test_thermo_standard_scan_rejects_float_num():
    with pytest.raises(BadRange, match="must be integers"):
        scan_thermo_standard(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, 3.0)
    assert scan_thermo_standard(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, np.int64(3)).shape == (3,)


def test_landscape_grid_validation():
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, 3, 3)
    with pytest.raises(BadRange):
        LandscapeGrid(spec, np.zeros((3, 3)), "heat")
    with pytest.raises(Exception):
        LandscapeGrid(spec, np.zeros((2, 3)), "probability")
    with pytest.raises(BadRange):
        LandscapeGrid(
            GridSpec(0.0, 0.5, 0.0, 0.5, 2, 2), np.array([[0.5, np.nan], [0.0, 1.0]]), "probability"
        )
    grid = LandscapeGrid(spec, np.zeros((3, 3)), "feasibility")
    with pytest.raises(ValueError):
        grid.values[0, 0] = 1.0  # values are read-only
    grid = LandscapeGrid(spec, np.full((3, 3), 0.5), "probability")
    assert grid.values.dtype == np.float64 and not grid.values.flags.writeable


@pytest.mark.parametrize("bad", [0.7, math.nan, 2.0, -1.0])
def test_feasibility_grid_rejects_values_other_than_zero_and_one(bad):
    cells = np.eye(3)
    cells[2, 0] = bad
    with pytest.raises(BadRange, match="must be 0 or 1"):
        LandscapeGrid(GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3), cells, "feasibility")


@pytest.mark.parametrize(
    "cells",
    [
        np.eye(3),
        np.where(np.eye(3) == 1.0, 1.0, -0.0),
        np.eye(3, dtype=int),
        np.eye(3, dtype=bool),
        np.eye(3).tolist(),
    ],
    ids=["float", "signed-zero", "int", "bool", "list"],
)
def test_feasibility_grid_stores_zero_one_cells_as_bool(cells):
    grid = LandscapeGrid(GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3), cells, "feasibility")
    assert grid.values.dtype == bool
    assert np.array_equal(grid.values, np.eye(3, dtype=bool))
    assert not grid.values.flags.writeable
    with pytest.raises(ValueError):
        grid.values[0, 1] = True


def test_per_step_trivial_catalyst_equals_base_probability():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    base = per_step_probability(x, y, Cycle((make_prob_vec([1.0]),)))
    assert base == pytest.approx(vidal_probability(x, y), abs=1e-15)
    assert base == pytest.approx(0.5857, abs=1e-4)


def test_per_step_reference_flexible_cycle():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    cycle = Cycle((weight_state(0.3936), weight_state(0.2149)))
    assert per_step_probability(x, y, cycle) == pytest.approx(0.7666, abs=2e-3)


def test_per_step_reference_standard_weight():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    cycle = Cycle((weight_state(0.2651),))
    assert per_step_probability(x, y, cycle) == pytest.approx(0.7299, abs=2e-3)


def test_scan_rejects_ranges_that_break_sortedness():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    with pytest.raises(BadRange, match="above 0.5 breaks sortedness"):
        scan_pflex_landscape(x, y, GridSpec(0.0, 0.7, 0.0, 0.7, 5, 5))
    with pytest.raises(BadRange, match="must be non-negative"):
        scan_pflex_landscape(x, y, GridSpec(-0.1, 0.5, -0.1, 0.5, 5, 5))


def test_scan_diagonal_dominance():
    grid = scan_pflex_landscape(schmidt(X_DEMO4), schmidt(Y_DEMO4), GridSpec(0, 0.5, 0, 0.5, 101, 101))
    assert float(np.diagonal(grid.values).max()) <= float(grid.values.max())


def test_default_scan_hits_reference_optima():
    grid = scan_pflex_landscape(schmidt(X_DEMO4), schmidt(Y_DEMO4), GridSpec(0, 0.5, 0, 0.5, 201, 201))
    assert float(grid.values.max()) == pytest.approx(0.7666, abs=2e-3)
    assert float(np.diagonal(grid.values).max()) == pytest.approx(0.7299, abs=2e-3)


def test_best_standard_demo_pair():
    result = best_standard(schmidt(X_DEMO4), schmidt(Y_DEMO4))
    assert result.params[0] == pytest.approx(0.2651, abs=5e-3)
    assert result.value == pytest.approx(0.7299, abs=2e-3)


def test_best_standard_majorized_pair_reaches_one():
    y = schmidt([0.9, 0.1])
    result = best_standard(uniform(2), y)
    assert result.value == pytest.approx(1.0, abs=1e-12)


def test_best_standard_identity_pair():
    x = schmidt(X_DEMO4)
    result = best_standard(x, x)
    assert result.value == pytest.approx(1.0, abs=1e-12)


def test_best_flexible_beats_standard_and_refines():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    spec = GridSpec(0, 0.5, 0, 0.5, 201, 201)
    grid = scan_pflex_landscape(x, y, spec)
    flex = best_flexible(x, y, spec)
    std = best_standard(x, y)
    assert flex.value >= std.value - 1e-12
    assert flex.value >= float(grid.values.max())  # refinement is monotone
    assert flex.params[0] >= flex.params[1]  # canonical descending order
    cycle = Cycle((weight_state(flex.params[0]), weight_state(flex.params[1])))
    assert flex.value == pytest.approx(per_step_probability(x, y, cycle), abs=1e-9)


def test_best_flexible_random_pairs_dominate_standard():
    rng = np.random.default_rng(52)
    spec = GridSpec(0, 0.5, 0, 0.5, 21, 21)
    for _ in range(10):
        x = random_sorted(rng, 4)
        y = random_sorted(rng, 4)
        flex = best_flexible(x, y, spec)
        std = best_standard(x, y, resolution=0.025)
        assert flex.value >= std.value - 1e-12


def test_best_flexible_identity_pair():
    x = schmidt(X_DEMO4)
    result = best_flexible(x, x, GridSpec(0, 0.5, 0, 0.5, 21, 21))
    assert result.value == pytest.approx(1.0, abs=1e-12)


def test_thermo_scan_demo_setup():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 401, 401)
    grid = scan_thermo_feasibility(p, q, LEVELS_S, LEVELS_C, BETA, spec)
    a = spec.axis1()
    ia = int(np.argmin(np.abs(a - 0.82)))
    ib = int(np.argmin(np.abs(a - 0.59)))
    assert grid.values[ia, ib] == 1.0
    assert float(np.diagonal(grid.values).sum()) == 0.0
    assert grid.values.sum() > 0


def test_thermo_scan_degenerate_catalyst_levels_empty():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 101, 101)
    grid = scan_thermo_feasibility(p, q, LEVELS_S, (0.0, 0.0), BETA, spec)
    assert float(grid.values.sum()) == 0.0


def test_thermo_scan_matches_scalar_checks():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 41, 41)
    grid = scan_thermo_feasibility(p, q, LEVELS_S, LEVELS_C, BETA, spec)
    gs = gibbs_vector(LEVELS_S, BETA)
    gc = gibbs_vector(LEVELS_C, BETA)
    a = spec.axis1()
    rng = np.random.default_rng(53)
    cells = [(int(i), int(j)) for i, j in rng.integers(0, 41, size=(30, 2))]
    cells += [tuple(np.argwhere(grid.values == 1.0)[0])] if grid.values.any() else []
    for i, j in cells:
        cycle = Cycle((make_prob_vec([a[i], 1 - a[i]]), make_prob_vec([a[j], 1 - a[j]])))
        assert bool(grid.values[i, j]) == thermo_flexible_ok(p, q, gs, cycle, gc)


def test_thermo_feasible_cells_pass_applicable_conditions():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 101, 101)
    grid = scan_thermo_feasibility(p, q, LEVELS_S, LEVELS_C, BETA, spec)
    a = spec.axis1()
    for i, j in np.argwhere(grid.values == 1.0):
        cycle = Cycle((make_prob_vec([a[i], 1 - a[i]]), make_prob_vec([a[j], 1 - a[j]])))
        assert support_size_uniform(cycle)


def test_thermo_standard_scan_demo_is_empty():
    feas = scan_thermo_standard(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, 1001)
    assert feas.shape == (1001,)
    assert not feas.any()


@pytest.mark.parametrize("lo, hi", [(0.0, 1.5), (-0.25, 1.0), (0.0, float("inf"))])
def test_thermo_scan_rejects_weights_outside_unit_interval(lo, hi):
    with pytest.raises(BadRange, match="catalyst weight"):
        scan_thermo_feasibility(
            THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, GridSpec(lo, hi, lo, hi, 3, 3)
        )


@pytest.mark.parametrize("num", [-1, 0, 1])
def test_thermo_standard_scan_needs_two_points(num):
    with pytest.raises(BadRange, match="at least 2 grid points"):
        scan_thermo_standard(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, num)


def _count_calls(monkeypatch, name: str, module=search) -> list[int]:
    calls = [0]
    kernel = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# the Console script CI step's system with an empty Fig. 2 grid
EMPTY_FIG2 = ((0.6652, 0.2447, 0.0901), (0.1, 0.2, 0.7), (0, 1, 2), (0, 1), 1.0)


def test_each_scan_builds_one_step_matrix(monkeypatch):
    """Both directions of a 2-cycle come from one step matrix and its transpose,
    and a thermal grid proven empty builds no curve."""
    ratio_calls = _count_calls(monkeypatch, "_min_tail_ratio")
    step_calls = _count_calls(monkeypatch, "dominance_matrix")
    curve_calls = _count_calls(monkeypatch, "_step_curves")
    scan_pflex_landscape(schmidt(X_DEMO4), schmidt(Y_DEMO4), GridSpec(0, 0.5, 0, 0.5, 31, 31))
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 401, 401)  # the Fig. 2 grid, with 58 feasible cells
    assert scan_thermo_feasibility(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, spec).values.any()
    assert (ratio_calls, step_calls, curve_calls) == ([1], [1], [1])
    assert not scan_thermo_feasibility(*EMPTY_FIG2, spec).values.any()
    assert (step_calls, curve_calls) == ([1], [1])


def test_thermal_scan_returns_its_step_matrix(monkeypatch):
    """The grid is M & M.T for the step matrix M, and no second grid outlives the scan:
    M is freed or is the grid itself."""
    made = []
    kernel = search.dominance_matrix

    def step_matrix(*args):
        step = kernel(*args)
        made.append((step.copy(), weakref.ref(step)))
        return step

    monkeypatch.setattr(search, "dominance_matrix", step_matrix)
    grid = scan_thermo_feasibility(
        THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, GridSpec(0.0, 1.0, 0.0, 1.0, 31, 31)
    )
    (step, alive), = made
    assert np.array_equal(grid.values, step & step.T)
    assert alive() is None or alive() is grid.values


def _assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    if want.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


SHARED_AXES = {
    **{f"{n} points": GridSpec(0.0, 1.0, 0.0, 1.0, n, n) for n in (2, 11, 401, 1001)},
    "repeated subnormal": GridSpec(0.0, 5e-324, 0.0, 5e-324, 3, 3),
}


@pytest.mark.parametrize("spec", SHARED_AXES.values(), ids=SHARED_AXES.keys())
def test_empty_scan_and_axis_are_shared_read_only_views(spec):
    """A scan proven empty and GridSpec.axis1 hand out fresh views of one kept array
    that no caller can make writable, bit for bit what np.zeros and np.linspace make."""
    n = spec.steps1
    first, second = (scan_thermo_feasibility(*EMPTY_FIG2, spec).values for _ in range(2))
    axis = spec.axis1()
    assert first is not second and np.shares_memory(first, second)
    assert axis is not spec.axis1() and np.shares_memory(axis, spec.axis1())
    fresh = (np.zeros((n, n), dtype=bool), np.linspace(spec.lo1, spec.hi1, n))
    for got, want in zip((first, axis), fresh):
        _assert_bits(got, want)
        with pytest.raises(ValueError):
            got.setflags(write=True)
        with pytest.raises(ValueError):
            got[0] = got[-1]


def test_shared_arrays_follow_alternating_shapes():
    """The kept grid and axis serve scans of 1001, 11 and again 1001 points, with a
    non-empty scan and a standard scan on another axis in between."""
    fig2 = (THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA)
    fig2_spec = GridSpec(0.0, 1.0, 0.0, 1.0, 401, 401)
    for n in (1001, 11, 1001):
        spec = GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
        _assert_bits(scan_thermo_feasibility(*EMPTY_FIG2, spec).values, np.zeros((n, n), dtype=bool))
        _assert_bits(spec.axis1(), np.linspace(0.0, 1.0, n))
        grid = scan_thermo_feasibility(*fig2, fig2_spec).values
        assert int(grid.sum()) == 58
        assert np.array_equal(scan_thermo_standard(*fig2, 401), np.diagonal(grid))
        _assert_bits(spec.axis1(), np.linspace(0.0, 1.0, n))


def test_shared_arrays_hold_under_threads():
    """Threads that scan alternating shapes, switching every microsecond, each get
    their own shape's grid and axis."""
    specs = [GridSpec(0.0, 1.0, 0.0, 1.0, n, n) for n in (3, 11, 31, 101)]
    wrong = []

    def work(k):
        for r in range(150):
            spec = specs[(k + r) % len(specs)]
            n = spec.steps1
            values = scan_thermo_feasibility(*EMPTY_FIG2, spec).values
            if values.shape != (n, n) or values.any():
                wrong.append(("grid", n, values.shape))
            if spec.axis1().tobytes() != np.linspace(0.0, 1.0, n).tobytes():
                wrong.append(("axis", n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


EQUAL_SPECS_OF_OTHER_AXES = {  # pairs of equal GridSpecs whose linspaces differ
    "sign of zero": (GridSpec(-1.0, -0.0, -1.0, -0.0, 3, 3), GridSpec(-1.0, 0.0, -1.0, 0.0, 3, 3)),
    "float32": (
        GridSpec(np.float32(0.0), np.float32(0.5), np.float32(0.0), np.float32(0.5), 3, 3),
        GridSpec(0.0, 0.5, 0.0, 0.5, 3, 3),
    ),
}


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize(
    "specs", EQUAL_SPECS_OF_OTHER_AXES.values(), ids=EQUAL_SPECS_OF_OTHER_AXES.keys()
)
def test_equal_specs_keep_their_own_axis(specs, first):
    """GridSpec(-1.0, -0.0, ...) equals GridSpec(-1.0, 0.0, ...) but its axis ends in -0.0,
    and float32 bounds make a float32 axis, whichever spec asks first."""
    assert specs[0] == specs[1]
    for spec in (specs[first], specs[1 - first], specs[first]):
        _assert_bits(spec.axis1(), np.linspace(spec.lo1, spec.hi1, 3))


THERMO_CYCLE = Cycle((make_prob_vec(THERMO_C1), make_prob_vec(THERMO_C2)))
THERMAL_CHECKS = {
    "flexible_ok": lambda: thermo_flexible_ok(
        THERMO_P, THERMO_Q, gibbs_vector(LEVELS_S, BETA), THERMO_CYCLE, gibbs_vector(LEVELS_C, BETA)
    ),
    "feasibility": lambda: scan_thermo_feasibility(
        THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, GridSpec(0.0, 1.0, 0.0, 1.0, 31, 31)
    ),
    "standard": lambda: scan_thermo_standard(THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, 31),
}


@pytest.mark.parametrize("check", THERMAL_CHECKS.values(), ids=THERMAL_CHECKS.keys())
def test_each_thermal_check_builds_its_steps_once(monkeypatch, check):
    """The scalar check and both scans reach thermo-dominance through one step builder."""
    builder_calls = _count_calls(monkeypatch, "_step_curves", thermo)
    scan_builder_calls = _count_calls(monkeypatch, "_step_curves")  # search's imported name
    batch_calls = _count_calls(monkeypatch, "lorenz_breakpoints_batch", thermo)
    check()
    assert (builder_calls[0] + scan_builder_calls[0], batch_calls[0]) == (1, 1)


ENTANGLEMENT_SEARCHES = {  # (search, _step_rows calls it makes)
    "landscape": (
        lambda: scan_pflex_landscape(X_DEMO4, Y_DEMO4, GridSpec(0.0, 0.5, 0.0, 0.5, 31, 31)), 1
    ),
    "best_standard": (lambda: best_standard(X_DEMO4, Y_DEMO4, 0.05), 1),
    "best_flexible": (
        lambda: best_flexible(X_DEMO4, Y_DEMO4, GridSpec(0.0, 0.5, 0.0, 0.5, 31, 31)), 1
    ),
    # one per trial that passes the endpoint pre-filter
    "conjecture": (
        lambda: conjecture_search(60, seed=0, d=4, grid_resolution=0.05),
        len(endpoint_kept_trials(60, seed=0, d=4)),
    ),
}


@pytest.mark.parametrize(
    "run_search, calls", ENTANGLEMENT_SEARCHES.values(), ids=ENTANGLEMENT_SEARCHES.keys()
)
def test_each_entanglement_search_builds_its_tails_once(monkeypatch, run_search, calls):
    row_calls = _count_calls(monkeypatch, "_step_rows")
    run_search()
    assert row_calls == [calls]


def _random_thermal_system(seed: int):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(3))
    q = rng.dirichlet(np.ones(3))
    levels_s = rng.uniform(0.0, 3.0, 3)
    levels_c = (0.0, float(rng.uniform(0.2, 2.0)))
    return p, q, levels_s, levels_c, float(rng.uniform(0.3, 2.0))


# sha256 of grid.values.astype(np.float64).tobytes(), recorded while each scan
# still computed its second step direction on a separate weight axis and
# returned its 0/1 cells as float64
PINNED_THERMAL_SCANS = [
    # (seed, feasible cells of 1001², sha256)
    (1, 1891, "7b669b8ec24298af6d2a61e09b4a554c129e640bae7d9e76a822045c8fbf7f51"),
    (4, 25785, "b2ce9abd1dd22f366ee363a0bf897e7d775c833150807f5aced2c6441eb8b150"),
    (14, 127247, "d8ba629bd80ff8dc2ec538ec67286a2b264b40d2bcd44a453190a337efae3418"),
]


@pytest.mark.parametrize(
    "seed, cells, sha", PINNED_THERMAL_SCANS, ids=[f"seed{row[0]}" for row in PINNED_THERMAL_SCANS]
)
def test_thermal_scans_match_pinned_hashes(seed, cells, sha):
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 1001, 1001)
    grid = scan_thermo_feasibility(*_random_thermal_system(seed), spec)
    assert grid.values.dtype == bool
    assert not grid.values.flags.writeable
    assert int(grid.values.sum()) == cells
    assert hashlib.sha256(grid.values.astype(np.float64).tobytes()).hexdigest() == sha


def test_probability_scans_and_best_flexible_match_pinned_hash():
    """24 random pairs at d = 3..6 on square grids of 21..81 points inside [0, 0.5]."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(7)
    for _ in range(24):
        d = int(rng.integers(3, 7))
        x = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        y = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        lo, hi = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.3, 0.5))
        steps = int(rng.integers(21, 82))
        spec = GridSpec(lo, hi, lo, hi, steps, steps)
        result = best_flexible(x, y, spec)
        digest.update(scan_pflex_landscape(x, y, spec).values.tobytes())
        digest.update(struct.pack("3d", *result.params, result.value))
        digest.update(struct.pack("q", result.iterations))
    assert digest.hexdigest() == "911790ceeb94bb406ab4c7474db22b24bdf7f3aa988f2fb1de648dae7ec4337d"


def test_best_standard_matches_pinned_hash():
    """36 random pairs at d = 3..7, one in four of unequal dimension, at pitches 0.0025, 0.01, 0.05."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(13)
    for t in range(36):
        dx = int(rng.integers(3, 8))
        dy = int(rng.integers(3, 8)) if t % 4 == 0 else dx
        x = np.sort(rng.dirichlet(np.ones(dx)))[::-1]
        y = np.sort(rng.dirichlet(np.ones(dy)))[::-1]
        result = best_standard(x, y, (0.0025, 0.01, 0.05)[t % 3])
        digest.update(struct.pack("2d", *result.params, result.value))
        digest.update(struct.pack("q", result.iterations))
    assert digest.hexdigest() == "d5910b2704f9eb28782b9165f597438f6b85e61ad80fdb9acbe5a5c05ca4b163"


def test_thermo_standard_scan_trivial_transition_is_full():
    p = make_prob_vec(THERMO_P)
    gs = gibbs_vector(LEVELS_S, BETA)
    q = make_prob_vec(0.5 * p.as_array() + 0.5 * gs.as_array())
    feas = scan_thermo_standard(p, q, LEVELS_S, LEVELS_C, BETA, 101)
    assert feas.all()


def _prefixes(x, y, cs):
    return np.cumsum(_step_rows(x, y, cs), axis=-1)


def test_sampler_postcondition_and_determinism():
    a1, b1 = sample_incomparable_pair(123, 4)
    a2, b2 = sample_incomparable_pair(123, 4)
    assert a1.values == a2.values
    assert b1.values == b2.values
    assert incomparable(a1, b1)
    assert isinstance(a1, SchmidtVec)
    with pytest.raises(WrongDimension):
        sample_incomparable_pair(0, 2)
    with pytest.raises(BadRange, match="seed must be non-negative"):
        sample_incomparable_pair(-1, 4)


def test_bool_power_and_cycle_reconstruction():
    m = np.array([[False, True], [True, False]])
    assert bool(np.diagonal(_bool_power(m, 2)).all())
    assert not np.diagonal(_bool_power(m, 1)).any()
    assert _reconstruct_cycle(m, 2) == [0, 1]
    chain = np.array(
        [[False, True, False], [False, False, True], [True, False, False]]
    )
    assert _reconstruct_cycle(chain, 3) == [0, 1, 2]


def test_bool_power_counts_more_than_256_walks():
    star = np.zeros((257, 257), dtype=bool)
    star[0, 1:] = star[1:, 0] = True  # 256 closed walks of length 2 through node 0
    walks = _bool_power(star, 2)
    assert walks[0, 0]
    assert np.diagonal(walks).all()
    assert _reconstruct_cycle(star, 2) == [0, 1]


def test_conjecture_report_is_deterministic():
    r1 = conjecture_search(30, seed=9, d=4, grid_resolution=0.01)
    r2 = conjecture_search(30, seed=9, d=4, grid_resolution=0.01)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["trials"] == 30


def test_conjecture_counts_are_consistent():
    report = conjecture_search(120, seed=4, d=4, grid_resolution=0.005)
    assert report.trials == 120
    assert (
        report.flexible_feasible_trials
        == report.standard_on_grid_trials
        + report.standard_by_refinement_trials
        + len(report.candidates)
    )
    assert report.candidates == ()
    assert report.raw_pairs_drawn >= report.trials


def test_conjecture_rejects_unsupported_parameters():
    with pytest.raises(BadRange):
        conjecture_search(-1, seed=0)
    with pytest.raises(BadRange, match="seed must be non-negative"):
        conjecture_search(3, seed=-1)
    with pytest.raises(WrongDimension):
        conjecture_search(1, seed=0, d=2)
    for resolution in (0.0, -0.1, 0.6, float("nan")):
        with pytest.raises(BadRange):
            conjecture_search(1, seed=0, grid_resolution=resolution)


# sha256 of to_json(), recorded before the harness decided trials by the k=2
# witness theorem (margin refinement on every off-diagonal closed walk)
PINNED_REPORTS = [
    # (trials, seed, d, n, resolution, sha256)
    (300, 0, 4, 2, 0.005, "d4ad356cac38e3d51c5a179616f614bd9cba88628793f1d616793cc257d2d664"),
    (300, 1, 4, 2, 0.005, "a48f9d77c279868c7e516bcc91bbeb2f0209e8adbe6fcb5e02502a127f32cfed"),
    (300, 2, 4, 2, 0.005, "d2bd4771574a96cd9e22d57ee20b72548db97593ef02c04c82ba9747e0e25db4"),
    (300, 3, 4, 2, 0.005, "8bf2c44e44f549fc6049f21b5172ddd09feebcbb0ea484abbe11d0da5863846b"),
    (300, 4, 4, 2, 0.005, "f039473e309835d225f164c56e835145fa95bf9112db65ec83eb59f818b3a8ed"),
    (300, 5, 4, 2, 0.005, "341dd2e678061c330df7f9e0c60823a393538bb9248d5a85d4028130662198eb"),
    (300, 6, 4, 2, 0.005, "ede598ee8a1efaa62b10b57ce873f67102326c0c129a0dfca8853694969e5de0"),
    (300, 7, 4, 2, 0.005, "ecf1463f367b15840e66ae0afa98f7e23fd8ca03204fa9d76089c355c17f339b"),
    (100, 0, 3, 1, 0.005, "ba6b7b76d092058c1b738fdb60c4766fb015f34f44d2b94c58e805499a8eaf6b"),
    (100, 0, 3, 2, 0.005, "7ff8326152a75c255cf6cc361eafc4357b2a8bc0bd40e3e4e30e9a63cdfe4f61"),
    (100, 0, 3, 3, 0.005, "50d42002963eed9dac18b19fe890d0768691cb9111e1cce77e2f87ba55160234"),
    (100, 0, 3, 4, 0.005, "d434a9444031dc77e9734e619d9423e8c0aba954841a2a021c64acba3b09b432"),
    (100, 0, 4, 1, 0.005, "9624fe3efc1c3e17f63c3434a4de1540770091b53b37307f7ac3716d6ea2f4bd"),
    (100, 0, 4, 2, 0.005, "a4e0190052064be377d5c210a6b5f27dcbf3ea07a36ca799a5f350c136b1d849"),
    (100, 0, 4, 3, 0.005, "b77e21c4d057ae236690ee2474bb14953a6bcdfbcff8f60ba6e2990fbe2919d2"),
    (100, 0, 4, 4, 0.005, "b94964bfa619978027697a14f25e5088cda7c512a5e7821e274bd8a39236fba3"),
    (100, 0, 5, 1, 0.005, "cab32739b8845e67416d3ab497ce46900f6a955777f986becb588607a81330cf"),
    (100, 0, 5, 2, 0.005, "01b90f1e8a1b7b3aab39ae734dba57e9a6bc4bacb6f173030d9b51c559585498"),
    (100, 0, 5, 3, 0.005, "362c27845bddfa3637580dfb7b87c7bfc76c871687591ce29bc1452d448a62e3"),
    (100, 0, 5, 4, 0.005, "940f32e42b1549b7f568e13f553c7ffb1083b961e8e5f4f9717066bea8e066b1"),
    (100, 0, 6, 1, 0.005, "b2adcf16b4adc7fffc613b4c29a97f0def812adb673cbd212080a5206374664f"),
    (100, 0, 6, 2, 0.005, "be6d9a5591761aedee13509867c729d62676c31cbe6c4cc3e61a27c151c861fd"),
    (100, 0, 6, 3, 0.005, "fcbc52e128944e59d69af4a0f53ddd391201c743b9a65ef114f77a8ce7aa9e8c"),
    (100, 0, 6, 4, 0.005, "f13752a10be5e0b7982c27f03566119c72afcdc2f86ddf9ef70f851441498386"),
    (200, 3, 5, 2, 0.05, "8225c28a1a5369cee6e92b97aecae99ff46666cffc59f88df1f38121c85b9aad"),
    (200, 3, 5, 2, 0.02, "b2bb16860fe1be1c108e0507ab6fb4aee75eabc04216378ba1fc5458a8b3ad98"),
    (200, 3, 5, 2, 0.01, "00f2e27be8f9d66d90b81387f6d697ae5c6ac0a04a0cc25901146a070261d102"),
]


def test_conjecture_reports_are_byte_identical_to_pinned_hashes():
    for trials, seed, d, n, resolution, sha in PINNED_REPORTS:
        report = conjecture_search(trials, seed, d=d, grid_resolution=resolution, n=n)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == sha, (trials, seed, d, n)
    assert conjecture_search(1000, seed=0).to_json() == (
        '{"candidates":[],"d":4,"flexible_feasible_trials":25,"k":2,"n":2,'
        '"raw_pairs_drawn":2767,"resolution":0.005,"seed":0,'
        '"standard_by_refinement_trials":0,"standard_on_grid_trials":25,"trials":1000}'
    )


@pytest.mark.parametrize("d", range(3, 7))
def test_unpruned_closed_walks_pass_the_prefilter_and_sit_on_the_diagonal(d):
    """The full grid and closed-walk test on every trial, with no pruning:
    no pair the endpoint pre-filter drops has a closed walk, and every
    closed walk comes with a standard catalyst on the grid diagonal."""
    cs = np.linspace(0.0, 0.5, 51)
    walks = 0
    for n in (2, 3):
        for trial in range(1250):
            x, y, _ = _sample_incomparable(np.random.default_rng((d, n, trial)), d)
            m = _majorization_matrix(*_prefixes(x, y, cs))
            if np.diagonal(_bool_power(m, n)).any():
                walks += 1
                assert endpoint_conditions_ok(x, y), (n, trial)
                assert np.diagonal(m).any(), (n, trial)
    if d == 3:
        assert walks == 0  # the d=3 no-go: incomparable pairs never convert
    else:
        assert walks > 20


def test_conjecture_reports_an_off_diagonal_walk(monkeypatch):
    """Forces the closed-walk branch that the witness theorem leaves unreachable."""
    monkeypatch.setattr(search, "_majorization_matrix", two_cycle_walk)
    report = conjecture_search(60, seed=0, d=4, grid_resolution=0.05)
    cs = np.linspace(0.0, 0.5, 11)
    kept = endpoint_kept_trials(60, seed=0, d=4)
    assert kept
    assert [cand.trial for cand in report.candidates] == kept
    assert report.flexible_feasible_trials == len(kept)
    assert report.standard_on_grid_trials == report.standard_by_refinement_trials == 0
    for cand in report.candidates:
        assert cand.cycle_weights == (cs[2], cs[5])
        margins = _standard_margins(*_prefixes(SchmidtVec(cand.x), SchmidtVec(cand.y), cs))
        assert cand.best_standard_margin == margins.max()
        assert cand.best_standard_weight == cs[int(np.argmax(margins))]
    payload = json.loads(report.to_json())
    assert payload["candidates"][0]["cycle_weights"] == [cs[2], cs[5]]


# ---------------------------------------------------------------------------
# differential harness for majorization and Vidal probability: the step matrices
# against the scalar API bit for bit, seeded cells against exact rationals, and
# on a shared axis the cycle checks and the scan against the scalar API
# ---------------------------------------------------------------------------


def _check_steps(rng, x, y, a, b=None, spec=None, tally=None) -> np.ndarray:
    """Every harness check on the steps x⊗(1-a_i, a_i) → y⊗(1-b_j, b_j); returns M.

    M = _majorization_matrix and P = _min_tail_ratio, clipped as the scan clips it, equal
    is_majorized_by and vidal_probability bit for bit on probvec's steps: all cells up to
    21 points a side, else 100 of M's boundary cells and 100 seeded ones. At 3 of those,
    and on a shared axis (b=None) at 3 diagonal cells, M is the sign of the exact margin
    outside the band (-2 CMP_TOL, 0) and P the exact ratio within 1e-12; on a shared axis
    _standard_margins is the exact margin within 1e-14, standard_catalysis_ok is M's
    diagonal, flexible_cycle_ok is M & M.T, and the scan of spec, a's GridSpec if given,
    is per_step_probability within 2 ulp.
    """
    ca, cb = a.tolist(), (a if b is None else b).tolist()
    states = {c: weight_state(c) for c in ca + cb}
    tx, ty = ([tensor(v, states[c]) for c in cs] for v, cs in ((x, ca), (y, cb)))
    xs, ys = [sort_desc(t) for t in tx], [sort_desc(t) for t in ty]
    rows = _step_rows(x, y, a) if b is None else (_step_rows(x, y, a)[0], _step_rows(x, y, b)[1])
    prefixes = [r.cumsum(axis=-1) for r in rows]
    m = _majorization_matrix(*prefixes)
    p = np.clip(_min_tail_ratio(*(np.cumsum(r[:, ::-1], axis=-1)[:, ::-1] for r in rows)), 0.0, 1.0)
    cells = checked_cells(rng, m, 21, 100)
    mc, pc = m.tolist(), p.tolist()
    for i, j in cells.tolist():
        scalar = is_majorized_by(xs[i], ys[j]), vidal_probability(xs[i], ys[j])
        assert (mc[i][j], pc[i][j]) == scalar, (x, y, ca[i], cb[j])
    picks = set(map(tuple, rng.permutation(cells)[:3].tolist()))
    picks |= {(k, k) for k in rng.permutation(len(ca))[: 3 * (b is None)].tolist()}
    tally = Counter() if tally is None else tally
    tally.update(bitwise=len(cells), exact=len(picks))
    grid = scan_pflex_landscape(x, y, spec).values if spec else None
    for i, j in sorted(picks):
        case = x, y, ca[i], cb[j]
        margin = exact.prefix_margin(tx[i].values, ty[j].values)
        band = -2 * CMP_TOL < margin < 0  # in the band the slack decides, so the cell is only counted
        tally["band"] += band
        assert band or mc[i][j] == (margin >= 0), (*case, margin)
        assert abs(pc[i][j] - exact.vidal_probability(tx[i].values, ty[j].values)) <= 1e-12, case
        if b is None:
            cycle = Cycle((states[ca[i]], states[ca[j]]))
            assert flexible_cycle_ok(x, y, cycle) == (mc[i][j] and mc[j][i]), case
            if i == j:
                assert abs(_standard_margins(*prefixes)[i] - margin) <= 1e-14, case
                assert standard_catalysis_ok(x, y, states[ca[i]]) == mc[i][i], case
            if spec:
                want = per_step_probability(x, y, cycle)
                assert abs(grid[i, j] - want) <= 2 * math.ulp(want), case
    return m


ENT_SPECS = [GridSpec(0.0, 0.5, 0.0, 0.5, n, n) for n in (2, 3, 11, 21, 37, 61)]
ENT_SPECS.append(GridSpec(0.1, 0.4, 0.1, 0.4, 16, 16))
ENT_AXES = [spec.axis1().copy() for spec in ENT_SPECS] + [np.array([0.0, 0.0, 0.1, 0.1, 0.5])]


def _ent_draw(rng):
    """A harness case (x, y, a, b, spec). x has d = 2..8 entries and y as many, or
    fewer one case in four; y holds a zero one case in four. x and y are random (then
    maybe swapped), or x is mixed down from y (x ≺ y), y itself (a tie), or y before
    its first and last positive entries move by ±k·1e-13, k ≤ 20 (a near-tie). Three
    cases in five share one of ENT_AXES."""
    kind, dx = rng.integers(4), int(rng.integers(2, 9))
    dy = int(rng.integers(2, dx)) if kind < 2 and dx > 2 and rng.random() < 0.6 else dx
    x, y = random_sorted(rng, dx), random_sorted(rng, dy)
    if rng.random() < 0.25:
        vals = y.as_array()
        vals[rng.integers(len(vals))] = 0.0
        y = schmidt(vals / vals.sum())
    if kind == 0 and rng.random() < 0.5:
        x, y = y, x
    elif kind == 1:  # y zero-padded to x's count
        x = mix_down(rng, schmidt([*y.values, *[0.0] * (dx - dy)]))
    elif kind > 1:
        x, vals, last = y, list(y.values), int(np.flatnonzero(y.as_array())[-1])
        shift = int(rng.integers(1, 21)) * 1e-13 * float(rng.choice((-1.0, 1.0))) * (kind == 3)
        vals[0] += shift
        vals[last] -= shift
        y = schmidt(vals)
    k, other = (int(v) for v in rng.integers(len(ENT_AXES), size=2))
    if rng.random() < 0.6:
        return x, y, ENT_AXES[k], None, ENT_SPECS[k] if k < len(ENT_SPECS) else None
    return x, y, ENT_AXES[k], ENT_AXES[other]


def test_entanglement_harness_matches_scalar_api_and_exact_margins():
    """100 seeded harness draws through every check. Their tally is pinned: a changed
    kernel verdict, draw or band share shows here."""
    rng, tally = np.random.default_rng(29), Counter()
    for _ in range(100):
        _check_steps(rng, *_ent_draw(rng), tally=tally)
    assert tally == {"bitwise": 14368, "exact": 445, "band": 67}


ENT_CASES = {  # inputs _ent_draw does not draw: x, y, a catalyst c of 1 or 3 levels, grid points
    "catalyst-dim-1": (X_ALT4, Y_ALT4, (1.0,), 11),
    "catalyst-dim-3": (X_ALT4, Y_ALT4, C_ALT1, 11),
    "unequal-dims": ((0.5, 0.2, 0.15, 0.1, 0.05), (0.4, 0.35, 0.25), None, 11),
    "unequal-dims-swapped": ((0.4, 0.35, 0.25), (0.5, 0.2, 0.15, 0.1, 0.05), None, 11),
    "demo-41": (X_DEMO4, Y_DEMO4, None, 41),
}


@pytest.mark.parametrize("x, y, c, points", ENT_CASES.values(), ids=ENT_CASES.keys())
def test_entanglement_cases(x, y, c, points):
    """Each case through the harness on a points² grid over [0, 0.5]. With a catalyst c
    the steps are x⊗c → y⊗c, so the cell at weight 0 is standard_catalysis_ok(x, y, c).
    The scan is symmetric, and best_standard on its axis and best_flexible on it reach
    at least its best diagonal and best cell."""
    x, y = schmidt(x), schmidt(y)
    steps = (x, y) if c is None else (sort_desc(tensor(x, c)), sort_desc(tensor(y, c)))
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, points, points)
    m = _check_steps(np.random.default_rng(51), *steps, spec.axis1(), spec=spec)
    assert c is None or standard_catalysis_ok(x, y, c) == m[0, 0]
    grid = scan_pflex_landscape(*steps, spec).values
    assert np.allclose(grid, grid.T, atol=1e-12)
    assert best_standard(*steps, 0.5 / (points - 1)).value >= np.diagonal(grid).max() - 1e-12
    assert best_flexible(*steps, spec).value >= grid.max() - 1e-12
