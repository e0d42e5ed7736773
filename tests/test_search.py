"""Landscape scans, optimizers, samplers, and the conjecture harness."""

from __future__ import annotations

import json

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
from flexcat.probvec import CMP_TOL
from flexcat.search import (
    _bool_power,
    _majorization_matrix,
    _min_tail_ratio,
    _prefix_matrix,
    _reconstruct_cycle,
    _standard_margins,
    _tail_matrix,
)
from flexcat.thermo import gibbs_vector
from helpers import (
    BETA,
    LEVELS_C,
    LEVELS_S,
    THERMO_P,
    THERMO_Q,
    X_DEMO4,
    Y_DEMO4,
    random_sorted,
    schmidt,
    weight_state,
)


def test_grid_spec_validation():
    with pytest.raises(BadRange):
        GridSpec(0.5, 0.0, 0.0, 1.0, 10, 10)
    with pytest.raises(BadRange):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1, 10)
    spec = GridSpec(0.0, 0.5, 0.0, 0.5, 11, 11)
    assert spec.axis1()[0] == 0.0
    assert spec.axis1()[-1] == 0.5


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
    with pytest.raises(BadRange):
        scan_pflex_landscape(x, y, GridSpec(0.0, 0.7, 0.0, 0.5, 5, 5))
    with pytest.raises(BadRange):
        scan_pflex_landscape(x, y, GridSpec(-0.1, 0.5, 0.0, 0.5, 5, 5))


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
    x = random_sorted(rng, d).as_array()
    y = random_sorted(rng, d).as_array()
    # both axes hold c = 0 and c = 0.5, whose rows have empty tails
    cs1 = np.linspace(0.0, 0.5, 61)
    cs2 = np.linspace(0.0, 0.5, 37)
    for a, b in ((cs1, cs2), (cs2, cs1), (cs1, cs1)):
        sx, sy = _tail_matrix(x, a), _tail_matrix(y, b)
        assert (sy == 0.0).any()
        assert np.array_equal(_min_tail_ratio(sx, sy), _dense_min_tail_ratio(sx, sy))
        px, py = _prefix_matrix(x, a), _prefix_matrix(y, b)
        assert np.array_equal(_majorization_matrix(px, py), _dense_majorization(px, py))
        assert np.array_equal(_majorization_matrix(py, px), _dense_majorization(py, px))
    margins = _standard_margins(_prefix_matrix(x, cs1), _prefix_matrix(y, cs1))
    assert np.array_equal(margins, [_margin_at(x, y, c) for c in cs1])
    for c in rng.uniform(0.0, 0.5, 20):
        one_row = np.array([c])
        margin = _standard_margins(_prefix_matrix(x, one_row), _prefix_matrix(y, one_row))
        assert float(margin[0]) == _margin_at(x, y, float(c))


def test_sampler_postcondition_and_determinism():
    a1, b1 = sample_incomparable_pair(123, 4)
    a2, b2 = sample_incomparable_pair(123, 4)
    assert a1.values == a2.values
    assert b1.values == b2.values
    assert incomparable(a1, b1)
    assert isinstance(a1, SchmidtVec)
    with pytest.raises(WrongDimension):
        sample_incomparable_pair(0, 2)


def test_bool_power_and_cycle_reconstruction():
    m = np.array([[False, True], [True, False]])
    assert bool(np.diagonal(_bool_power(m, 2)).all())
    assert not np.diagonal(_bool_power(m, 1)).any()
    assert _reconstruct_cycle(m, 2) == [0, 1]
    chain = np.array(
        [[False, True, False], [False, False, True], [True, False, False]]
    )
    assert _reconstruct_cycle(chain, 3) == [0, 1, 2]


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
    with pytest.raises(WrongDimension):
        conjecture_search(1, seed=0, d=2)
    for resolution in (0.0, -0.1, 0.6, float("nan")):
        with pytest.raises(BadRange):
            conjecture_search(1, seed=0, grid_resolution=resolution)
