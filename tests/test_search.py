"""Landscape scans, optimizers, samplers, and the conjecture harness."""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys

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
    incomparable,
    make_prob_vec,
    per_step_probability,
    sample_incomparable_pair,
    scan_pflex_landscape,
    scan_thermo_feasibility,
    scan_thermo_standard,
    support_size_uniform,
    thermo_flexible_ok,
    uniform,
    vidal_probability,
)
from flexcat import search, thermo
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
    LEVELS_C,
    LEVELS_S,
    THERMO_C1,
    THERMO_C2,
    THERMO_P,
    THERMO_Q,
    X_DEMO4,
    Y_DEMO4,
    endpoint_kept_trials,
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


def test_scan_symmetry_and_cell_values():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, 41, 41)
    grid = scan_pflex_landscape(x, y, spec)
    assert np.allclose(grid.values, grid.values.T, atol=1e-12)
    a = spec.axis1()
    rng = np.random.default_rng(51)
    for _ in range(20):
        i, j = rng.integers(0, 41, size=2)
        cycle = Cycle((weight_state(float(a[i])), weight_state(float(a[j]))))
        assert grid.values[i, j] == pytest.approx(
            per_step_probability(x, y, cycle), abs=1e-12
        )


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
    """The bool grid that the step matrix is ANDed into is returned without a copy."""
    made = []
    kernel = search.dominance_matrix
    monkeypatch.setattr(search, "dominance_matrix", lambda *args: made.append(kernel(*args)) or made[0])
    grid = scan_thermo_feasibility(
        THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA, GridSpec(0.0, 1.0, 0.0, 1.0, 31, 31)
    )
    assert grid.values is made[0]
    assert np.array_equal(grid.values, grid.values.T)


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


def test_unequal_dimension_scans_equal_the_scalar_api():
    """Scans zero-pad unequal dimensions exactly as per_step_probability does."""
    rng = np.random.default_rng(8)
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, 11, 11)
    cs = spec.axis1()
    for _ in range(12):
        dx, dy = rng.choice(np.arange(2, 6), 2, replace=False)
        first, second = random_sorted(rng, int(dx)), random_sorted(rng, int(dy))
        for x, y in ((first, second), (second, first)):
            grid = scan_pflex_landscape(x, y, spec)
            for i, ci in enumerate(cs):
                for j, cj in enumerate(cs):
                    cycle = Cycle((weight_state(ci), weight_state(cj)))
                    assert grid.values[i, j] == pytest.approx(per_step_probability(x, y, cycle), abs=1e-12)
            # best_standard's 0.05 axis is the grid's own, so refining keeps the grid's best
            assert best_standard(x, y, 0.05).value >= np.diagonal(grid.values).max() - 1e-12
            assert best_flexible(x, y, spec).value >= grid.values.max() - 1e-12


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


def _dense_min_tail_ratio(sx, sy):
    """All-pairs ratios as one 3-D broadcast, empty target tails set to inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = sx[:, None, :] / sy[None, :, :]
    r = np.where(sy[None, :, :] == 0.0, np.inf, r)
    return r.min(axis=2)


def _dense_majorization(px, py):
    return np.all(px[:, None, :-1] <= py[None, :, :-1] + CMP_TOL, axis=2)


def _prefixes(x, y, cs):
    return np.cumsum(_step_rows(x, y, cs), axis=-1)


def _tails(x, y, cs):
    return np.cumsum(_step_rows(x, y, cs)[..., ::-1], axis=-1)[..., ::-1]


def _margin_at(px, py, c):
    """Prefix-sum slack of x⊗(1-c,c) against y⊗(1-c,c), built for one c."""
    left = np.concatenate([px * (1.0 - c), px * c])
    right = np.concatenate([py * (1.0 - c), py * c])
    left.sort()
    right.sort()
    return float((np.cumsum(right[::-1]) - np.cumsum(left[::-1]))[:-1].min())


@pytest.mark.parametrize("d", range(3, 9))
def test_grid_kernels_equal_dense_references(d):
    rng = np.random.default_rng(200 + d)
    x = random_sorted(rng, d)
    y = random_sorted(rng, d)
    # both axes hold c = 0 and c = 0.5, whose rows have empty tails
    cs1 = np.linspace(0.0, 0.5, 61)
    cs2 = np.linspace(0.0, 0.5, 37)
    for a, b in ((cs1, cs2), (cs2, cs1), (cs1, cs1)):
        sx, sy = _tails(x, y, a)[0], _tails(x, y, b)[1]
        assert (sy == 0.0).any()
        assert np.array_equal(_min_tail_ratio(sx, sy), _dense_min_tail_ratio(sx, sy))
        px, py = _prefixes(x, y, a)[0], _prefixes(x, y, b)[1]
        assert np.array_equal(_majorization_matrix(px, py), _dense_majorization(px, py))
        assert np.array_equal(_majorization_matrix(py, px), _dense_majorization(py, px))
    margins = _standard_margins(*_prefixes(x, y, cs1))
    xa, ya = x.as_array(), y.as_array()
    assert np.array_equal(margins, [_margin_at(xa, ya, c) for c in cs1])
    for c in rng.uniform(0.0, 0.5, 20):
        margin = _standard_margins(*_prefixes(x, y, np.array([c])))
        assert float(margin[0]) == _margin_at(xa, ya, float(c))


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
    with pytest.raises(WrongDimension):
        conjecture_search(1, seed=0, k=3)
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
