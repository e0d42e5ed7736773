"""Gibbs vectors, Lorenz curves, and thermo-majorization."""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from flexcat import (
    BadRange,
    Cycle,
    DimensionMismatch,
    GibbsVec,
    NonFiniteEntry,
    LorenzCurve,
    ProbVec,
    curve_geq,
    gibbs_tensor,
    gibbs_vector,
    lorenz_curve,
    make_prob_vec,
    tensor,
    thermo_flexible_ok,
    thermo_majorizes,
    uniform,
)
from flexcat import exact, search
from flexcat.errors import FlexcatError
from flexcat.search import GridSpec, scan_thermo_feasibility, scan_thermo_standard
from flexcat.thermo import (
    CURVE_TOL,
    _abscissa_groups,
    _curve_values,
    _step_curves,
    _tensor_rows,
    _thermal_inputs,
    dominance_diagonal,
    dominance_matrix,
    lorenz_breakpoints_batch,
)
from helpers import (
    BETA,
    LEVELS_C,
    LEVELS_S,
    THERMO_C1,
    THERMO_C2,
    THERMO_P,
    THERMO_Q,
    boundary,
    checked_cells,
    random_prob,
)


# ---------------------------------------------------------------------------
# reference path: per-curve Python breakpoints, interpolation on the union of
# both curves' breakpoints (the scalar path before the batch kernel served it)
# ---------------------------------------------------------------------------


def _ref_breakpoints(p_vals, g_vals) -> list[tuple[float, float]]:
    order = sorted(range(len(p_vals)), key=lambda i: -(p_vals[i] / g_vals[i]))
    gx = list(accumulate(g_vals[i] for i in order))
    py = list(accumulate(p_vals[i] for i in order))
    gx[-1] = 1.0
    py[-1] = 1.0
    return [(0.0, 0.0)] + list(zip(gx, py))


def _ref_value_at(points, x: float) -> float:
    """Piecewise-linear interpolation, clamped to the end heights outside [0,1]."""
    xs = [pt[0] for pt in points]
    ys = [pt[1] for pt in points]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + t * (ys[i + 1] - ys[i])


def _ref_curve_geq(a, b) -> bool:
    grid = sorted({pt[0] for pt in a} | {pt[0] for pt in b})
    return all(_ref_value_at(a, x) >= _ref_value_at(b, x) - CURVE_TOL for x in grid)


def _ref_thermo_majorizes(p_vals, q_vals, g_vals) -> bool:
    return _ref_curve_geq(_ref_breakpoints(p_vals, g_vals), _ref_breakpoints(q_vals, g_vals))


def _ref_thermo_flexible_ok(p, q, gs, states, gc) -> bool:
    composite = [a * b for a in gs for b in gc]
    n = len(states)
    return all(
        _ref_thermo_majorizes(
            [a * b for a in p for b in states[i]],
            [a * b for a in q for b in states[(i + 1) % n]],
            composite,
        )
        for i in range(n)
    )


def test_gibbs_degenerate_levels():
    assert gibbs_vector([0.0, 0.0], 3.7).values == pytest.approx((0.5, 0.5), abs=1e-15)


def test_gibbs_three_levels_beta_one():
    g = gibbs_vector([0, 1, 2], 1.0)
    z = 1.0 + math.exp(-1.0) + math.exp(-2.0)
    assert g.values == pytest.approx((1 / z, math.exp(-1) / z, math.exp(-2) / z), abs=1e-15)
    assert g.values == pytest.approx((0.6652, 0.2447, 0.0900), abs=1e-4)


def test_gibbs_infinite_temperature_is_uniform():
    g = gibbs_vector([3.0, -1.0, 7.5, 0.2], 0.0)
    assert g.values == pytest.approx(uniform(4).values, abs=1e-15)


def test_gibbs_large_offset_is_stable():
    near = gibbs_vector([0, 1, 2], 1.0)
    far = gibbs_vector([1000, 1001, 1002], 1.0)
    assert far.values == pytest.approx(near.values, abs=1e-12)


def test_gibbs_rejects_nonfinite_beta():
    with pytest.raises(BadRange):
        gibbs_vector([0, 1], math.inf)


@pytest.mark.parametrize("levels", [[0.0, 1.0], [0.0, 1000.0]])
def test_gibbs_rejects_negative_beta(levels):
    # a negative beta would invert the populations, or overflow exp() on wide levels
    with pytest.raises(BadRange, match="beta must be non-negative"):
        gibbs_vector(levels, -1.0)
    assert gibbs_vector(levels, -0.0).values == gibbs_vector(levels, 0.0).values


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gibbs_rejects_nonfinite_levels(bad):
    with pytest.raises(NonFiniteEntry):
        gibbs_vector([0.0, bad, 2.0], 1.0)


def test_gibbs_rejects_level_spread_beyond_float_range():
    # at beta = 0 the spread would enter exp() as 0 * inf = NaN
    for beta in (0.0, 1.0):
        with pytest.raises(BadRange, match="levels must differ by a finite amount"):
            gibbs_vector([-1e308, 1e308], beta)


def test_gibbs_vec_requires_positive_entries():
    with pytest.raises(FlexcatError):
        GibbsVec((1.0, 0.0))


def test_lorenz_of_reference_is_diagonal():
    g = gibbs_vector([0, 1, 2], 1.0)
    curve = lorenz_curve(g, g)
    for x, y in curve.breakpoints:
        assert y == pytest.approx(x, abs=1e-12)


def test_lorenz_point_mass_rises_then_flat():
    g = gibbs_vector([0, 1, 2], 1.0)
    p = make_prob_vec([1.0, 0.0, 0.0])  # largest ratio sits on level 0
    curve = lorenz_curve(p, g)
    assert curve.breakpoints[1] == pytest.approx((g.values[0], 1.0), abs=1e-12)
    assert _ref_value_at(curve.breakpoints, 0.9) == pytest.approx(1.0, abs=1e-12)
    assert np.interp(0.9, curve.xs, curve.ys) == pytest.approx(1.0, abs=1e-12)


def test_lorenz_beta_order_demo_state():
    g = gibbs_vector(LEVELS_S, BETA)
    p = make_prob_vec(THERMO_P)
    # independent ordering oracle: sort indices by p_i / gamma_i descending
    ratios = [pv / gv for pv, gv in zip(p.values, g.values)]
    order = sorted(range(3), key=lambda i: -ratios[i])
    assert order == [2, 1, 0]
    curve = lorenz_curve(p, g)
    expect_x = np.cumsum([g.values[i] for i in order])
    expect_y = np.cumsum([p.values[i] for i in order])
    got = curve.breakpoints[1:]
    assert [pt[0] for pt in got] == pytest.approx(list(expect_x), abs=1e-12)
    assert [pt[1] for pt in got] == pytest.approx(list(expect_y), abs=1e-12)


def test_lorenz_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lorenz_curve(make_prob_vec([0.5, 0.5]), gibbs_vector([0, 1, 2], 1.0))


def test_lorenz_curves_are_concave():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        p = random_prob(rng, d)
        g = gibbs_vector(rng.normal(0, 2, d), float(rng.uniform(0, 3)))
        lorenz_curve(p, g)  # construction validates concavity


def test_curve_validation_rejects_bad_shapes():
    with pytest.raises(FlexcatError):
        LorenzCurve(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))  # convex kink
    with pytest.raises(FlexcatError):
        LorenzCurve(((0.1, 0.0), (1.0, 1.0)))  # does not start at origin
    nan = math.nan
    for bp in (
        ((nan, 0.0), (1.0, 1.0)),
        ((0.0, nan), (1.0, 1.0)),
        ((0.0, 0.0), (nan, 0.5), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 0.5), (nan, 1.0)),
    ):
        with pytest.raises(FlexcatError):
            LorenzCurve(bp)  # a NaN coordinate


def test_curve_geq_reflexive_and_diagonal():
    g = gibbs_vector([0, 1, 2], 1.0)
    p = make_prob_vec([0.6, 0.3, 0.1])
    curve = lorenz_curve(p, g)
    assert curve_geq(curve, curve)
    assert curve_geq(curve, lorenz_curve(g, g))


def test_thermo_majorizes_demo_fails():
    g = gibbs_vector(LEVELS_S, BETA)
    assert not thermo_majorizes(make_prob_vec(THERMO_P), make_prob_vec(THERMO_Q), g)


def test_thermo_majorizes_reflexive_and_gibbs_minimal():
    rng = np.random.default_rng(32)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        g = gibbs_vector(rng.normal(0, 1, d), 1.0)
        p = random_prob(rng, d)
        assert thermo_majorizes(p, p, g)
        assert thermo_majorizes(p, g, g)


def test_thermo_majorizes_transitive_on_chains():
    rng = np.random.default_rng(33)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        g = gibbs_vector(rng.normal(0, 1, d), 1.0)
        p = random_prob(rng, d)
        t, s = rng.uniform(0.1, 0.9, size=2)
        q = make_prob_vec((1 - t) * p.as_array() + t * g.as_array())
        r = make_prob_vec((1 - s) * q.as_array() + s * g.as_array())
        assert thermo_majorizes(p, q, g)
        assert thermo_majorizes(q, r, g)
        assert thermo_majorizes(p, r, g)


def test_tie_independence_of_level_permutation():
    # levels 0 and 1 carry equal ratios (0.5) but different masses; swapping
    # them permutes the breakpoints yet leaves the polyline unchanged
    g = GibbsVec((0.2, 0.4, 0.4))
    p = make_prob_vec([0.1, 0.2, 0.7])
    g_swapped = GibbsVec((0.4, 0.2, 0.4))
    p_swapped = make_prob_vec([0.2, 0.1, 0.7])
    a = lorenz_curve(p, g)
    b = lorenz_curve(p_swapped, g_swapped)
    for t in np.linspace(0, 1, 101):
        assert _ref_value_at(a.breakpoints, t) == pytest.approx(
            _ref_value_at(b.breakpoints, t), abs=1e-12
        )


def test_thermo_flexible_demo_cycle_both_directions():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    gs = gibbs_vector(LEVELS_S, BETA)
    gc = gibbs_vector(LEVELS_C, BETA)
    c1 = make_prob_vec(THERMO_C1)
    c2 = make_prob_vec(THERMO_C2)
    assert thermo_flexible_ok(p, q, gs, Cycle((c1, c2)), gc)
    assert thermo_flexible_ok(p, q, gs, Cycle((c2, c1)), gc)


def test_thermo_flexible_single_state_matches_direct_check():
    rng = np.random.default_rng(34)
    gs = gibbs_vector(LEVELS_S, BETA)
    gc = gibbs_vector(LEVELS_C, BETA)
    composite = gibbs_tensor(gs, gc)
    for _ in range(100):
        p = random_prob(rng, 3)
        q = random_prob(rng, 3)
        c = random_prob(rng, 2)
        direct = thermo_majorizes(tensor(p, c), tensor(q, c), composite)
        assert thermo_flexible_ok(p, q, gs, Cycle((c,)), gc) == direct


def test_thermo_flexible_gibbs_catalyst_is_inert():
    rng = np.random.default_rng(35)
    gs = gibbs_vector(LEVELS_S, BETA)
    gc = gibbs_vector(LEVELS_C, BETA)
    for _ in range(50):
        p = random_prob(rng, 3)
        t = float(rng.uniform(0.1, 0.9))
        q = make_prob_vec((1 - t) * p.as_array() + t * gs.as_array())
        assert thermo_majorizes(p, q, gs)
        assert thermo_flexible_ok(p, q, gs, Cycle((gc, gc)), gc)


def test_thermo_flexible_dimension_checks():
    p = make_prob_vec(THERMO_P)
    q = make_prob_vec(THERMO_Q)
    gs = gibbs_vector(LEVELS_S, BETA)
    gc = gibbs_vector(LEVELS_C, BETA)
    with pytest.raises(DimensionMismatch):
        thermo_flexible_ok(p, q, gs, Cycle((make_prob_vec([1.0]),)), gc)
    with pytest.raises(DimensionMismatch):
        thermo_flexible_ok(make_prob_vec([0.5, 0.5]), q, gs, Cycle((gc,)), gc)


def test_gibbs_tensor_matches_summed_levels():
    gs = gibbs_vector([0, 1, 2], 1.0)
    gc = gibbs_vector([0, 1], 1.0)
    combined = gibbs_tensor(gs, gc)
    direct = gibbs_vector([s + c for s in [0, 1, 2] for c in [0, 1]], 1.0)
    assert combined.values == pytest.approx(direct.values, abs=1e-12)


def test_batch_lorenz_matches_scalar():
    rng = np.random.default_rng(36)
    d = 6
    g = gibbs_vector(rng.normal(0, 1, d), 1.0)
    rows = np.array([random_prob(rng, d).as_array() for _ in range(20)])
    xb, yb = lorenz_breakpoints_batch(rows, g.as_array())
    for i in range(20):
        curve = lorenz_curve(make_prob_vec(rows[i]), g)
        assert curve.breakpoints == tuple(_ref_breakpoints(make_prob_vec(rows[i]).values, g.values))
        assert xb[i] == pytest.approx([pt[0] for pt in curve.breakpoints], abs=1e-12)
        assert yb[i] == pytest.approx([pt[1] for pt in curve.breakpoints], abs=1e-12)


def _thermo_rows(v, cs):
    """Scan rows v ⊗ (c, 1-c) for each c, in composite index order (system major)."""
    return _tensor_rows(v, np.stack([cs, 1.0 - cs], axis=1))


def _scan_curves(v, cs, gamma):
    """Breakpoints of the scan rows v ⊗ (c, 1-c) for each c."""
    return lorenz_breakpoints_batch(_thermo_rows(v, cs), gamma)


# c = 0.5 is an exact crossing of every pair of ratios v_i c / γ_i0 and
# v_i (1 - c) / γ_i1 when the catalyst reference is (0.5, 0.5).
SCAN_CS = np.unique(np.concatenate([np.linspace(0.0, 1.0, 41), [0.5]]))


def test_batch_dominance_matches_curve_geq():
    rng = np.random.default_rng(37)
    d = 5
    g = gibbs_vector(rng.normal(0, 1, d), 0.7)
    rows_a = np.array([random_prob(rng, d).as_array() for _ in range(12)])
    rows_b = np.array([random_prob(rng, d).as_array() for _ in range(12)])
    xa, ya = lorenz_breakpoints_batch(rows_a, g.as_array())
    xb, yb = lorenz_breakpoints_batch(rows_b, g.as_array())
    m = dominance_matrix(xa, ya, xb, yb)
    for i in range(12):
        for j in range(12):
            want = _ref_thermo_majorizes(rows_a[i].tolist(), rows_b[j].tolist(), g.values)
            curve_a = lorenz_curve(make_prob_vec(rows_a[i]), g)
            curve_b = lorenz_curve(make_prob_vec(rows_b[j]), g)
            assert m[i, j] == want
            assert curve_geq(curve_a, curve_b) == want
            assert thermo_majorizes(make_prob_vec(rows_a[i]), make_prob_vec(rows_b[j]), g) == want
    # scan-shaped rows share abscissa rows, including the tie at c = 0.5
    gs = gibbs_vector(rng.normal(0, 1, 3), 0.7)
    gamma = gibbs_tensor(gs, gibbs_vector([0.0, 0.0], 0.7))
    p = random_prob(rng, 3).as_array()
    q = random_prob(rng, 3).as_array()
    xa, ya = _scan_curves(p, SCAN_CS, gamma.as_array())
    xb, yb = _scan_curves(q, SCAN_CS, gamma.as_array())
    assert len(np.unique(xb, axis=0)) < len(SCAN_CS)
    m = dominance_matrix(xa, ya, xb, yb)
    ref_a = [_ref_breakpoints(r.tolist(), gamma.values) for r in _thermo_rows(p, SCAN_CS)]
    ref_b = [_ref_breakpoints(r.tolist(), gamma.values) for r in _thermo_rows(q, SCAN_CS)]
    curves_a = [lorenz_curve(make_prob_vec(r), gamma) for r in _thermo_rows(p, SCAN_CS)]
    curves_b = [lorenz_curve(make_prob_vec(r), gamma) for r in _thermo_rows(q, SCAN_CS)]
    for i, curve_a in enumerate(curves_a):
        for j, curve_b in enumerate(curves_b):
            want = _ref_curve_geq(ref_a[i], ref_b[j])
            assert m[i, j] == want
            assert curve_geq(curve_a, curve_b) == want


def _dense_dominance(xa, ya, xb, yb):
    """All-pairs min-of-segment-lines formula evaluated without deduplication."""
    slopes = np.diff(ya, axis=1) / np.diff(xa, axis=1)
    intercepts = ya[:, :-1] - slopes * xa[:, :-1]
    vals = np.full((xa.shape[0], xb.shape[0], xb.shape[1]), np.inf)
    for s in range(slopes.shape[1]):
        cand = intercepts[:, s, None, None] + slopes[:, s, None, None] * xb[None, :, :]
        np.minimum(vals, cand, out=vals)
    return np.all(vals >= yb[None, :, :] - CURVE_TOL, axis=2)


@pytest.mark.parametrize("d", range(3, 9))
def test_dominance_matrix_equals_dense_reference(d):
    rng = np.random.default_rng(100 + d)
    levels_s = rng.normal(0, 1, d)
    for levels_c in ([0.0, 0.0], [0.0, rng.uniform(0.2, 2.0)]):
        gamma = gibbs_tensor(gibbs_vector(levels_s, 0.9), gibbs_vector(levels_c, 0.9)).as_array()
        p = random_prob(rng, d).as_array()
        q = random_prob(rng, d).as_array()
        a1 = _scan_curves(p, SCAN_CS, gamma)
        b2 = _scan_curves(q, SCAN_CS[::-1], gamma)
        assert np.array_equal(dominance_matrix(*a1, *b2), _dense_dominance(*a1, *b2))
        assert np.array_equal(dominance_matrix(*b2, *a1), _dense_dominance(*b2, *a1))
    # random rows with all-distinct abscissa rows: every group has one member
    g = gibbs_vector(levels_s, 0.9).as_array()
    rows_a = np.array([random_prob(rng, d).as_array() for _ in range(30)])
    rows_b = np.array([random_prob(rng, d).as_array() for _ in range(40)])
    xa, ya = lorenz_breakpoints_batch(rows_a, g)
    xb, yb = lorenz_breakpoints_batch(rows_b, g)
    distinct = np.unique(xb, axis=0, return_index=True)[1]
    xb, yb = xb[distinct], yb[distinct]
    assert len(xb) >= 4
    assert (xb[1:] != xb[:-1]).any(axis=1).all()  # sorted, so every run has one row
    m = dominance_matrix(xa, ya, xb, yb)
    assert np.array_equal(m, _dense_dominance(xa, ya, xb, yb))


def test_abscissa_groups_rebuild_rows():
    nan = math.nan
    x = np.array(
        [[0, 0.5, 1], [0, 0.5, 1], [0, 0.2, 1], [0, 0.5, 1], [0, nan, 1], [0, nan, 1], [0, 0.2, 1]]
    )
    distinct, group = _abscissa_groups(x)
    assert np.array_equal(distinct[group], x, equal_nan=True)
    assert group[0] == group[1] == group[3] != group[2] == group[6]
    assert len(distinct) == 4  # a row holding NaN equals no other row


def _tied_state(rng, g: np.ndarray) -> tuple[float, ...]:
    """A random state; half of them put equal ratios p_i / g_i on several levels."""
    d = len(g)
    p = rng.exponential(1.0, d)
    if rng.random() < 0.5:
        tied = rng.choice(d, int(rng.integers(2, d + 1)), replace=False)
        p[tied] = g[tied] * rng.uniform(0.5, 2.0)
    return tuple(p / p.sum())


@pytest.mark.parametrize("d", range(2, 9))
def test_thermo_flexible_ok_matches_reference(d):
    rng = np.random.default_rng(200 + d)
    verdicts = set()
    for trial in range(60):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.0, 2.0))
        gs = gibbs_vector(rng.uniform(0.0, 3.0, d), beta)
        gc = gibbs_vector(rng.uniform(0.0, 2.0, k), beta)
        p = _tied_state(rng, gs.as_array())
        # half of the targets are mixed toward the Gibbs state, so both verdicts occur
        q = _tied_state(rng, gs.as_array())
        if trial % 2:
            q = tuple(0.5 * a + 0.5 * b for a, b in zip(p, gs.values))
        states = [_tied_state(rng, gc.as_array()) for _ in range(n)]
        got = thermo_flexible_ok(p, q, gs, Cycle(tuple(map(make_prob_vec, states))), gc)
        want = _ref_thermo_flexible_ok(
            make_prob_vec(p).values, make_prob_vec(q).values, gs.values,
            [make_prob_vec(c).values for c in states], gc.values,
        )
        assert got == want, (p, q, states, gs.values, gc.values)
        verdicts.add(got)
    assert verdicts == {True, False}


# A Gibbs weight of e^-40 is too small to change a float running sum, so some
# Lorenz segments have zero width in floats.
TINY_X = (0.5, 0.3, 0.2)
TINY_Y = (0.6, 0.3, 0.1)
TINY_LEVELS_S = (0.0, 1.0, 40.0)


def test_tiny_gibbs_weight_scan_matches_exact_oracle():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = scan_thermo_feasibility(TINY_X, TINY_Y, TINY_LEVELS_S, (0.0, 1.0), 1.0, spec)
    gs = gibbs_vector(TINY_LEVELS_S, 1.0).values
    gc = gibbs_vector((0.0, 1.0), 1.0).values
    cs = spec.axis1()
    feasible = np.array(
        [
            [
                exact.thermo_cycle_margin(TINY_X, TINY_Y, gs, gc, [(c1, 1.0 - c1), (c2, 1.0 - c2)])
                >= 0
                for c2 in cs
            ]
            for c1 in cs
        ]
    )
    assert feasible.sum() == 15
    assert np.array_equal(grid.values == 1.0, feasible)


def _scan_values(p, q, levels_s, levels_c, beta):
    """p and q, then gamma_s and gamma_c, as a thermal scan validates them."""
    refs = gibbs_vector(levels_s, beta), gibbs_vector(levels_c, beta)
    gamma_s, gamma_c, *pq = _thermal_inputs(refs, p, q)
    return pq, gamma_s, gamma_c


def _thermal_draw(rng):
    """A random d = 3 system as perfbench's thermal workloads draw one."""
    p, q = (rng.exponential(1.0, 3) for _ in range(2))
    return (
        tuple(p / p.sum()),
        tuple(q / q.sum()),
        tuple(rng.uniform(0.0, 3.0, 3)),
        (0.0, float(rng.uniform(0.2, 2.0))),
        float(rng.uniform(0.3, 2.0)),
    )


def test_end_slope_rules_prove_most_thermal_draws_empty():
    """At least 60% of random d = 3 systems drawn as the benchmark draws them
    are proven empty at 101²: 201 of these 300, while 210 are empty."""
    rng = np.random.default_rng(300)
    cs = np.linspace(0.0, 1.0, 101)
    proven = 0
    for _ in range(300):
        pq, gamma_s, gamma_c = _scan_values(*_thermal_draw(rng))
        proven += search._provably_empty(pq, gamma_s, gamma_c, cs)
    assert proven >= 180


def _equivalence_axes():
    """Axes with both ends, neither end, 2 points, and repeated zero points."""
    repeated = GridSpec(0.0, 5e-324, 0.0, 5e-324, 3, 3)
    assert repeated.axis1().tolist() == [0.0, 0.0, 5e-324]
    spans = ((0, 1, 1001), (0.2, 0.7, 31), (0, 0.5, 51), (0, 1, 2))
    return [GridSpec(lo, hi, lo, hi, n, n) for lo, hi, n in spans] + [repeated]


def _near_tie_system():
    """p, the Gibbs state of levels (0, 1, 2, 3), and q, whose largest and least
    ratios to it lie about 6e-9 above and below 1. With catalyst levels (0, 0) the
    inside passes R1 at its least α and R2 at its least σ, but no point passes both."""
    levels_s = (0.0, 1.0, 2.0, 3.0)
    p = gibbs_vector(levels_s, 1.0).values
    q = [v * r for v, r in zip(p, (1 + 6.1e-9, 1.0, 1.0, 1 - 6.3e-9))]
    q[1] += 1.0 - math.fsum(q)
    return p, tuple(q), levels_s


# ---------------------------------------------------------------------------
# differential harness for thermo-dominance: each case's step matrix
# M = dominance_matrix against the paired kernel that thermo_majorizes and
# thermo_flexible_ok run, its scan grid against M & M.T, and a subset of its
# cells against thermo_flexible_ok and exact rational margins
# ---------------------------------------------------------------------------

FULL_PAIRS = 201  # up to this many rows a side, M is compared with the paired kernel in full
SAMPLED_PAIRS = 2000  # above it, up to this many of M's boundary cells and as many seeded ones


def _check_kernels(rng, curves) -> np.ndarray:
    """M = dominance_matrix(*curves), checked against dominance_diagonal and returned.

    Also checks _curve_values at points that every row shares (the kernel's
    mode) against its paired mode, bit for bit, sign bits and NaN included.
    """
    xa, ya, xb, yb = curves
    m = dominance_matrix(*curves)
    i, j = checked_cells(rng, m, FULL_PAIRS, SAMPLED_PAIRS).T
    assert np.array_equal(m[i, j], dominance_diagonal(xa[i], ya[i], xb[j], yb[j]))
    pts = np.unique(xb, axis=0)
    rows = rng.permutation(len(xa))[:FULL_PAIRS]
    shared = _curve_values(xa, ya, pts[None])[rows]
    at = np.repeat(rows, len(pts))
    paired = _curve_values(xa[at], ya[at], np.tile(pts, (len(rows), 1))).reshape(shared.shape)
    assert np.array_equal(shared, paired, equal_nan=True)
    assert np.array_equal(np.signbit(shared), np.signbit(paired))
    return m


def _check_system(rng, system, spec, order, tally, every_edge=False):
    """Every check on the thermal 2-cycle scan of system on spec's axis, the curves
    taking its points in the given order; returns the curves and M & M.T.

    A grid proven empty must hold no feasible cell. The cells checked against the
    scalar API and the exact oracle are one seeded boundary cell of the grid and
    one seeded cell, or with every_edge each feasible cell and each 4-neighbour;
    outside the band (-CURVE_TOL, 0) a verdict is the sign of the exact margin.
    """
    pq, gamma_s, gamma_c = _scan_values(*system)
    cs = spec.axis1()[order]
    curves = _step_curves(pq, np.stack([cs, 1.0 - cs], axis=1), gamma_s, gamma_c)
    m = _check_kernels(rng, curves)
    grid = m & m.T
    assert np.array_equal(scan_thermo_feasibility(*system, spec).values[np.ix_(order, order)], grid)
    proven = search._provably_empty(pq, gamma_s, gamma_c, spec.axis1())
    assert not (proven and grid.any()), (system, spec)
    tally["proven"] += proven
    tally["empty"] += not grid.any()
    if every_edge:
        picks = np.argwhere(grid | boundary(grid))
    else:
        edge = np.argwhere(boundary(grid))
        picks = np.r_[edge[rng.permutation(len(edge))[:1]], rng.integers(len(cs), size=(1, 2))]
    gs, gc = GibbsVec(gamma_s), GibbsVec(gamma_c)
    for i, j in picks.tolist():
        states = [(cs[i], 1.0 - cs[i]), (cs[j], 1.0 - cs[j])]
        verdict = thermo_flexible_ok(*pq, gs, Cycle((ProbVec(states[0]), ProbVec(states[1]))), gc)
        assert verdict == grid[i, j], (system, states)
        margin = exact.thermo_cycle_margin(*pq, gamma_s, gamma_c, states)
        tally["exact"] += 1
        if -CURVE_TOL < margin < 0:  # in the band the slack decides, so the cell is only counted
            tally["band"] += 1
        else:
            assert verdict == (margin >= 0), (system, states, margin)
    return curves, grid


def _harness_draw(rng, steps=None):
    """A random system (p, q, levels_s, levels_c, beta), a GridSpec, the order in
    which the curves take its axis points, and that order's name. steps, if
    given, holds the point counts that the axis is drawn from, evenly.

    d = 2..6, zero entries and tied ratios p_i/g_i; levels up to 60 kT, whose
    Gibbs weights near e^-60 are too small to move a float sum; catalyst levels
    (0, 0), (0, ±40) (one weight rounds to 1) or a random gap; 2- to
    1001-point axes over [0, 1] or a sub-range, in order, reversed, recurring
    or shuffled.
    """
    d = int(rng.integers(2, 7))
    top = 60.0 if rng.random() < 0.2 else 3.0
    kind = rng.random()
    if kind < 0.15:
        levels_c = (0.0, 0.0)
    elif kind < 0.25:
        levels_c = (0.0, float(rng.choice((-40.0, 40.0))))
    else:
        levels_c = (0.0, float(rng.uniform(0.2, top)))
    beta = float(rng.uniform(0.3, 2.0)) if top == 3.0 and kind >= 0.25 else 1.0
    levels_s = tuple(rng.uniform(0.0, top, d))
    g = gibbs_vector(levels_s, beta).as_array()
    p, q = (np.array(_tied_state(rng, g)) for _ in range(2))
    if rng.random() < 0.25:
        (p, q)[rng.integers(2)][rng.integers(d)] = 0.0
    sizes, shares = (2, 3, 11, 31, 41, 201, 401, 1001), (0.15, 0.1, 0.2, 0.2, 0.15, 0.1, 0.05, 0.05)
    n = int(rng.choice(sizes, p=shares) if steps is None else rng.choice(steps))
    lo, hi = (0.0, 1.0) if rng.random() < 0.6 else (0.2, 0.9) if rng.random() < 0.5 else (0.0, 0.5)
    order, kind = np.arange(n), rng.random()
    if kind < 0.15:
        order, name = order[::-1], "reversed"
    elif kind < 0.25 and n <= 401:
        order, name = np.r_[order, order[::-1], order], "recurring"
    elif kind < 0.45:
        order, name = rng.permutation(n), "shuffled"
    else:
        name = "in order"
    system = (tuple(p / p.sum()), tuple(q / q.sum()), levels_s, levels_c, beta)
    return system, GridSpec(lo, hi, lo, hi, n, n), order, name


@functools.cache
def _screen_draws() -> list:
    """5,000 seeded harness draws on 2- to 41-point axes, each with its scan inputs."""
    rng = np.random.default_rng(25)
    draws = []
    for _ in range(5000):
        system, spec, _, _ = _harness_draw(rng, steps=(2, 3, 11, 41))
        draws.append((system, spec, _scan_values(*system)))
    return draws


def test_end_slope_screen_matches_frozen_reference():
    """_provably_empty on the paper's pair, a state near the Gibbs state, zero entries
    and a near-tie, each with catalyst levels whose point classes merge, vanish or
    repeat, on axes with both ends, neither end, 2 points and repeated zero points,
    through every harness check; and the tiny Gibbs weight of
    test_tiny_gibbs_weight_scan_matches_exact_oracle. Its verdicts on 5,000 seeded
    draws equal those of the retired every-point reference, recorded as a digest."""
    assert gibbs_vector((0.0, -40.0), 1.0).values[1] == 1.0  # c = 0 joins the inside
    assert gibbs_vector((0.0, 40.0), 1.0).values[0] == 1.0  # c = 1 joins the inside
    rng = np.random.default_rng(28)
    tally = dict.fromkeys(("exact", "band", "proven", "empty"), 0)
    pairs = ((THERMO_P, THERMO_Q), ((0.6652, 0.2447, 0.0901), (0.1, 0.2, 0.7)),
             ((0.7, 0.3, 0.0), (0.5, 0.3, 0.2)), ((0.5, 0.3, 0.2), (0.6, 0.4, 0.0)))
    systems = [(p, q, LEVELS_S) for p, q in pairs] + [_near_tie_system()]
    axes = _equivalence_axes()
    for p, q, levels_s in systems:
        for levels_c in ((0.0, 1.0), (0.0, 0.0), (0.0, -40.0), (0.0, 40.0)):
            for spec in axes:
                system = (p, q, levels_s, levels_c, 1.0)
                _check_system(rng, system, spec, np.arange(spec.steps1), tally)
    tiny = (TINY_X, TINY_Y, TINY_LEVELS_S, (0.0, 1.0), 1.0)
    _check_system(rng, tiny, GridSpec(0.0, 1.0, 0.0, 1.0, 201, 201), np.arange(201), tally)
    pq, gamma_s, gamma_c = _scan_values(*_near_tie_system(), (0.0, 0.0), 1.0)
    assert search._provably_empty(pq, gamma_s, gamma_c, axes[0].axis1())  # decided point by point
    # pinned: a changed end-slope verdict or band share shows here
    assert tally == {"exact": 103, "band": 0, "proven": 36, "empty": 99}
    verdicts = []
    for draw, (_, spec, (pq, gamma_s, gamma_c)) in enumerate(_screen_draws()):
        cs = (spec if draw % 5 else axes[draw // 5 % len(axes)]).axis1()
        verdicts.append(search._provably_empty(pq, gamma_s, gamma_c, cs))
    digest = hashlib.sha256(np.packbits(verdicts).tobytes()).hexdigest()[:16]
    assert (sum(verdicts), digest) == (2298, "68978e3d47e21b2e")  # the reference's verdicts


def test_end_slope_pruning_is_sound():
    """Whenever the end-slope rules prove a grid of the screen draws empty, the full
    step matrix finds no feasible cell, and exact rational margins agree on sampled
    cells; and 120 harness draws, on 2- to 1001-point axes in any order, pass every
    harness check."""
    rng = np.random.default_rng(2024)
    seen = set()
    exact_checked = 0
    for system, spec, (pq, gamma_s, gamma_c) in _screen_draws()[:2000]:
        cs = spec.axis1()
        if not search._provably_empty(pq, gamma_s, gamma_c, cs):
            continue
        curves = _step_curves(pq, np.stack([cs, 1.0 - cs], axis=1), gamma_s, gamma_c)
        step = dominance_matrix(*curves)
        assert not (step & step.T).any(), (system, spec)
        seen.add((
            len(pq[0]),
            min(pq[0] + pq[1]) > 0.0,
            max(system[2]) > 3.0,
            system[3] == (0.0, 0.0),
            spec.lo1 > 0.0,
            spec.steps1 < 4,
        ))
        if exact_checked < 150:
            i, j = rng.integers(len(cs), size=2)
            states = [(cs[i], 1.0 - cs[i]), (cs[j], 1.0 - cs[j])]
            assert exact.thermo_cycle_margin(*pq, gamma_s, gamma_c, states) < 0
            exact_checked += 1
    assert {key[0] for key in seen} == {2, 3, 4, 5, 6}
    for field in range(1, 6):  # pruned with and without each case
        assert {key[field] for key in seen} == {True, False}
    rng = np.random.default_rng(27)
    tally = dict.fromkeys(("exact", "band", "proven", "empty"), 0)
    seen = {key: set() for key in ("d", "steps", "order", "levels_c", "case")}
    for _ in range(120):
        system, spec, order, name = _harness_draw(rng)
        curves, grid = _check_system(rng, system, spec, order, tally)
        seen["d"].add(len(system[0]))
        seen["steps"].add(spec.steps1)
        seen["order"].add(name)
        seen["levels_c"].add(system[3][1] if abs(system[3][1]) in (0.0, 40.0) else "gap")
        seen["case"] |= {
            "zero entry" if min(system[0] + system[1]) == 0.0 else "full support",
            "zero width" if (np.diff(curves[0], axis=1) == 0).any() else "no zero width",
            "feasible" if grid.any() else "empty",
        }
    # pinned: a changed end-slope verdict or band share shows here
    assert tally == {"exact": 155, "band": 2, "proven": 71, "empty": 84}
    assert seen == {
        "d": {2, 3, 4, 5, 6},
        "steps": {2, 3, 11, 31, 41, 201, 401, 1001},
        "order": {"in order", "reversed", "recurring", "shuffled"},
        "levels_c": {0.0, -40.0, 40.0, "gap"},
        "case": {"zero entry", "full support", "zero width", "no zero width", "feasible", "empty"},
    }


# p and q of full support on three equal levels: their least ratios to the Gibbs state
# are 39 and 18 CURVE_TOL, and q's largest lies about 4 CURVE_TOL above p's
R3_P = (0.5, 0.5 - 1.3e-9, 1.3e-9)
R3_Q = (0.5 + 1.3e-10, 0.5 - 7.3e-10, 6e-10)
R3_CASES = {  # catalyst levels and an axis of one end point and one inside point
    "c=0": ((0.0, -1.0), GridSpec(0.0, 0.95, 0.0, 0.95, 2, 2)),
    "c=1": ((0.0, 1.0), GridSpec(0.05, 1.0, 0.05, 1.0, 2, 2)),
}


@pytest.mark.parametrize("levels_c, spec", R3_CASES.values(), ids=R3_CASES.keys())
def test_r3_takes_sigma_from_the_point_of_larger_support(levels_c, spec):
    """R3 bounds σ of the point of larger support X. On these axes R1 fails the inside
    point's own cell and R2 the end point's, whose σ is its α; the mixed cell passes R1,
    and R3 with the inside point's σ, 0.05/0.73. Were R3 to take the end point's σ,
    1/0.73, the rules would prove the grid empty. The kernel finds it empty too, so
    only the rules' verdict tells the two apart."""
    tally = dict.fromkeys(("exact", "band", "proven", "empty"), 0)
    system = (R3_P, R3_Q, (0.0, 0.0, 0.0), levels_c, 1.0)
    _check_system(np.random.default_rng(29), system, spec, np.arange(2), tally)
    assert tally == {"exact": 1, "band": 0, "proven": 0, "empty": 1}


def _ref_curve_value(xs, ys, x):
    """_curve_values' arithmetic at one point, in scalar Python: x lies on the last
    segment whose left end does not exceed it, and a zero-width segment has slope 0."""
    i = bisect_right(xs, x, 1, len(xs) - 1) - 1
    dx = xs[i + 1] - xs[i]
    slope = (ys[i + 1] - ys[i]) / dx if dx > 0 else 0.0
    return (x - xs[i]) * slope + ys[i]


def test_curve_values_match_frozen_reference():
    """_curve_values at points that every row shares and at one row of points per
    curve, against _ref_curve_value bit for bit, sign bits and NaN included."""
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(100):
        system, spec, order, _ = _harness_draw(rng)
        pq, gamma_s, gamma_c = _scan_values(*system)
        cs = spec.axis1()[order]
        xa, ya, xb, _ = _step_curves(pq, np.stack([cs, 1.0 - cs], axis=1), gamma_s, gamma_c)
        if rng.random() < 0.3:
            ya = np.where(rng.random(ya.shape) < 0.05, np.nan, ya)
        pts = np.unique(xb, axis=0)
        shared, own = _curve_values(xa, ya, pts[None]), _curve_values(xa, ya, xb)
        for i, g in rng.integers((len(xa), len(pts)), size=(10, 2)).tolist():
            for got, at in ((shared[i, g], pts[g]), (own[i], xb[i])):
                want = np.array([_ref_curve_value(xa[i].tolist(), ya[i].tolist(), x) for x in at])
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        seen |= {
            ("zero width", bool((np.diff(xa[:, :-1], axis=1) == 0).any())),
            ("NaN", bool(np.isnan(ya).any())),
            ("recurring", 1 + (xb[1:] != xb[:-1]).any(axis=1).sum() > len(pts)),
        }
    assert {case for case, hit in seen if hit} == {"zero width", "NaN", "recurring"}


def _random_scan_pair(rng, d, cs, levels_c=None):
    """Scan curves of two random states on axis cs, relative to a random Gibbs reference."""
    beta = rng.uniform(0.3, 2.0)
    levels_c = [0.0, rng.uniform(0.2, 2.0)] if levels_c is None else levels_c
    gamma = gibbs_tensor(
        gibbs_vector(rng.uniform(0.0, 3.0, d), beta), gibbs_vector(levels_c, beta)
    ).as_array()
    return [_scan_curves(random_prob(rng, d).as_array(), cs, gamma) for _ in range(2)]


KERNEL_CASES = {  # curves _harness_draw does not make: the edit, then seed, d, points, levels_c
    # A = B lowered by CURVE_TOL: at its own abscissae A_i takes yb[i] - CURVE_TOL, so with
    # catalyst levels (0, 0) rows land inside columns that jitter by an ulp (band rows), and
    # with a random gap (None) on the ends of the intervals that searchsorted finds
    "lowered-by-tol": ("lowered", 5, 4, 201, (0.0, 0.0)),
    "lowered-by-tol-gap": ("lowered", 5, 4, 201, None),
    "nan-heights": ("nan", 8, 3, 201, None),
    # rows in random order: each abscissa row recurs many times, so the kernel sorts
    # B's rows into runs and puts its columns back
    "shuffled-rows-d3": ("shuffled", 1103, 3, 1001, None),
    "shuffled-rows-d5": ("shuffled", 1105, 5, 1001, None),
}


@pytest.mark.parametrize(
    "edit, seed, d, points, levels_c", KERNEL_CASES.values(), ids=KERNEL_CASES.keys()
)
def test_dominance_matrix_cases(edit, seed, d, points, levels_c):
    """Each case through _check_kernels both ways round; M of rows permuted on either
    side is M of the ordered rows permuted alike, and holds both verdicts."""
    rng = np.random.default_rng(seed)
    (xa, ya), (xb, yb) = _random_scan_pair(rng, d, np.linspace(0.0, 1.0, points), levels_c)
    pa = pb = np.arange(points)
    if edit == "lowered":
        xb, yb, ya = xa, ya, ya - CURVE_TOL
    elif edit == "nan":  # A's row 3, every 7th A row at k = 2 and every 5th B row at k = 3
        ya[3] = np.nan
        ya[::7, 2] = np.nan
        yb[::5, 3] = np.nan
    else:
        pa, pb = rng.permutation(points), rng.permutation(points)
    curves = (xa[pa], ya[pa], xb[pb], yb[pb])
    m = _check_kernels(rng, curves)
    _check_kernels(rng, curves[2:] + curves[:2])
    assert np.array_equal(m, dominance_matrix(xa, ya, xb, yb)[pa][:, pb])
    assert 0 < m.sum() < m.size


def test_fig2_example_cells_agree_with_exact_margins():
    """The paper's Fig. 2 system at 401²: each of its 58 feasible cells and of their
    44 infeasible 4-neighbours agrees with its exact margin. In exact rationals the
    direct conversion fails by 0.03498 and the paper's cycle, in either order, passes
    with margin exactly 0."""
    tally = dict.fromkeys(("exact", "band", "proven", "empty"), 0)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 401, 401)
    system = (THERMO_P, THERMO_Q, LEVELS_S, LEVELS_C, BETA)
    rng = np.random.default_rng(30)
    _, grid = _check_system(rng, system, spec, np.arange(401), tally, every_edge=True)
    assert (grid.sum(), (boundary(grid) & ~grid).sum()) == (58, 44)
    assert tally == {"exact": 102, "band": 0, "proven": 0, "empty": 0}
    gs, gc = gibbs_vector(LEVELS_S, BETA).values, gibbs_vector(LEVELS_C, BETA).values
    assert round(float(exact.thermo_margin(THERMO_P, THERMO_Q, gs)), 5) == -0.03498
    assert exact.thermo_cycle_margin(THERMO_P, THERMO_Q, gs, gc, [THERMO_C1, THERMO_C2]) == 0
    assert exact.thermo_cycle_margin(THERMO_P, THERMO_Q, gs, gc, [THERMO_C2, THERMO_C1]) == 0


def test_least_alpha_matches_every_point_minimum():
    """On axes a few ulps wide around the crossing g0/(g0 + g1), where rounding moves
    the first point with c/g0 >= (1-c)/g1, and on wide ones."""
    rng = np.random.default_rng(26)
    moved = 0
    for _ in range(3000):
        g0, g1 = gibbs_vector((0.0, float(rng.uniform(-3.0, 3.0))), 1.0).values
        mid = g0 / (g0 + g1)
        span = float(rng.choice([1e-16, 1e-15, 1e-13, 0.3]))
        ends = max(mid - span, 1e-300), min(mid + span, 1.0 - 1e-16)
        inside = np.linspace(*ends, rng.choice([2, 3, 7, 50]))
        u, v = inside / g0, (1.0 - inside) / g1
        assert search._least_alpha(inside, g0, g1) == np.maximum(u, v).min()
        moved += int(np.argmax(np.r_[u >= v, True])) != inside.searchsorted(mid)
    assert moved > 100


def test_subnormal_gibbs_weight_is_rejected():
    """A subnormal weight, of the system's reference or only of the composite one,
    rounds by more than the end-slope rules allow for, and a zero composite weight
    would divide by zero in them, so neither scan reaches them."""
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11)
    scans = (
        lambda *system: scan_thermo_feasibility(*system, spec),
        lambda *system: scan_thermo_standard(*system, 11),
    )
    cases = (
        ((0.0, 1.0, 720.0), (0.0, 1.0), "is subnormal"),
        ((0.0, 1.0, 360.0), (0.0, 360.0), "is subnormal"),
        # e^-400 is a normal float; its square, the composite weight, rounds to zero
        ((0.0, 1.0, 400.0), (0.0, 400.0), "must be strictly positive"),
    )
    for levels_s, levels_c, message in cases:
        for scan in scans:
            with pytest.raises(FlexcatError, match=message):
                scan(TINY_X, TINY_Y, levels_s, levels_c, 1.0)
    for gamma in (lambda: gibbs_vector((0.0, 1.0, 720.0), 1.0), lambda: (0.6, 0.4, 1e-313)):
        with pytest.raises(FlexcatError, match="is subnormal"):
            thermo_majorizes(TINY_X, TINY_X, gamma())
    # e^-360 is a normal float; its square, the composite weight, is not
    gs, gc = gibbs_vector((0.0, 1.0, 360.0), 1.0), gibbs_vector((0.0, 360.0), 1.0)
    with pytest.raises(FlexcatError, match="is subnormal"):
        gibbs_tensor(gs, gc)


# Inputs that fail two checks at once, by name: (p, levels_s, levels_c, the axis
# bounds or None) and the error of the check that fires first.
PRECEDENCE_CASES = {
    "three catalyst levels, p misdimensioned": (
        ((0.5, 0.5), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), None),
        (DimensionMismatch, "catalyst parameterization needs exactly 2 levels"),
    ),
    "non-finite system level, p unnormalized": (
        ((0.5, 0.6, 0.2), (0.0, math.inf, 2.0), (0.0, 1.0), None),
        (NonFiniteEntry, "energy levels must be finite, got [0.0, inf, 2.0]"),
    ),
    "p misdimensioned, composite weight zero": (
        ((0.5, 0.5), (0.0, 1.0, 400.0), (0.0, 400.0), None),
        (DimensionMismatch, "state dim 2 != reference dim 3"),
    ),
    "axis above 1, p unnormalized": (
        ((0.5, 0.6, 0.2), (0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.5)),
        (BadRange, "catalyst weight above 1 makes a negative population"),
    ),
    "axis below 0, p unnormalized": (
        ((0.5, 0.6, 0.2), (0.0, 1.0, 2.0), (0.0, 1.0), (-0.5, 1.0)),
        (BadRange, "catalyst weight must be non-negative"),
    ),
}


@pytest.mark.parametrize("case", PRECEDENCE_CASES)
def test_thermal_scans_keep_their_error_precedence(case):
    """Both scans raise the class and message of the check that fires first; a case
    with an axis checks scan_thermo_feasibility, whose axis it is, alone."""
    (p, levels_s, levels_c, axis), (error, message) = PRECEDENCE_CASES[case]
    system = (p, (0.2, 0.3, 0.5), levels_s, levels_c, 1.0)
    lo, hi = axis or (0.0, 1.0)
    scans = [lambda: scan_thermo_feasibility(*system, GridSpec(lo, hi, lo, hi, 11, 11))]
    if axis is None:
        scans.append(lambda: scan_thermo_standard(*system, 11))
    for scan in scans:
        with pytest.raises(FlexcatError) as raised:
            scan()
        assert (type(raised.value), str(raised.value)) == (error, message)


@pytest.mark.parametrize("p", [(0.6, 0.4, 0.0), (0.5, 0.5, 0.0), (0.5, 0.3, 0.2)])
def test_lorenz_curve_with_tiny_gibbs_weight(p):
    g = gibbs_vector(TINY_LEVELS_S, 1.0)
    curve = lorenz_curve(p, g)  # construction validates the curve
    assert curve.breakpoints[0] == (0.0, 0.0)
    assert curve.breakpoints[-1] == (1.0, 1.0)
    assert all(x0 < x1 for x0, x1 in zip(curve.xs, curve.xs[1:]))
    assert curve_geq(curve, curve)
    assert thermo_majorizes(p, p, g)


@pytest.mark.parametrize("cast", [list, tuple, np.array])
def test_plain_gibbs_sequence_keeps_tiny_weights(cast):
    g = gibbs_vector(TINY_LEVELS_S, 1.0)
    plain = cast(g.values)
    assert min(g.values) < 1e-15  # below the clamp of make_prob_vec
    for p in ((0.5, 0.3, 0.2), (0.6, 0.4, 0.0), THERMO_P):
        assert thermo_majorizes(p, p, plain) == thermo_majorizes(p, p, g) is True
    gc = gibbs_vector(LEVELS_C, 1.0)
    assert gibbs_tensor(plain, list(gc.values)) == gibbs_tensor(g, gc)
    for bad in ((math.nan, 0.5, 0.5), (0.5, 0.5, 0.0), (0.6, 0.5, -0.1), (0.5, 0.4, 0.05)):
        with pytest.raises(FlexcatError):
            thermo_majorizes((0.5, 0.3, 0.2), (0.5, 0.3, 0.2), cast(bad))


# Gibbs weights of about 1e-8 to 1e-14 (levels 18 to 32 at beta 1) still move a
# float running sum, but the slope of a Lorenz segment that narrow, taken from
# its rounded ends, is off by up to ulp/width; extended as a line across [0, 1]
# it would undercut a wide neighbour with the same ratio p_i/g_i.
NARROW_LEVELS = np.linspace(18.0, 32.0, 57)


def _agrees_with_exact(verdict: bool, margin) -> bool:
    """A float verdict matches an exact margin unless that margin sits within
    rounding of the acceptance edge at -CURVE_TOL."""
    return abs(margin + CURVE_TOL) < CURVE_TOL / 2 or verdict == (margin >= -CURVE_TOL)


def test_narrow_gibbs_weight_ratio_tie_is_reflexive():
    for e in NARROW_LEVELS:
        g = gibbs_vector((0.0, 1.0, float(e)), 1.0)
        _, g1, g2 = g.values
        p = (0.0, g1 / (g1 + g2), g2 / (g1 + g2))  # thermal on the excited levels
        assert thermo_majorizes(p, p, g), e
        curve = lorenz_curve(p, g)  # construction validates the curve
        assert curve_geq(curve, curve), e
        gc = gibbs_vector((0.0, float(e)), 1.0)
        cycle = Cycle((make_prob_vec(gc.values),))
        assert thermo_flexible_ok(p, p, g, cycle, gc), e
        assert thermo_flexible_ok(THERMO_P, THERMO_P, gibbs_vector(LEVELS_S, BETA), cycle, gc), e


@pytest.mark.parametrize("d", range(2, 7))
def test_narrow_gibbs_weight_verdicts_match_references(d):
    rng = np.random.default_rng(500 + d)
    verdicts = set()
    for trial in range(40):
        levels = rng.uniform(0.0, 3.0, d)
        levels[rng.integers(d)] = rng.choice(NARROW_LEVELS)
        gs = gibbs_vector(levels, 1.0)
        p = _tied_state(rng, gs.as_array())
        q = p if trial % 3 == 0 else _tied_state(rng, gs.as_array())
        if trial % 3 == 2:
            q = tuple(0.5 * a + 0.5 * b for a, b in zip(p, gs.values))
        pv, qv = make_prob_vec(p).values, make_prob_vec(q).values
        got = thermo_majorizes(p, q, gs)
        assert got == _ref_thermo_majorizes(pv, qv, gs.values), (p, q, levels)
        assert _agrees_with_exact(got, exact.thermo_margin(pv, qv, gs.values)), (p, q, levels)
        verdicts.add(got)

        k = int(rng.integers(2, 4))
        gc = gibbs_vector(np.append(rng.uniform(0.0, 2.0, k - 1), rng.choice(NARROW_LEVELS)), 1.0)
        states = [_tied_state(rng, gc.as_array()) for _ in range(int(rng.integers(1, 4)))]
        cs = [make_prob_vec(c).values for c in states]
        got = thermo_flexible_ok(p, q, gs, Cycle(tuple(map(make_prob_vec, states))), gc)
        assert got == _ref_thermo_flexible_ok(pv, qv, gs.values, cs, gc.values), (p, q, states)
        margin = exact.thermo_cycle_margin(pv, qv, gs.values, gc.values, cs)
        assert _agrees_with_exact(got, margin), (p, q, states)
    assert verdicts == {True, False}
