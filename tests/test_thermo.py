"""Gibbs vectors, Lorenz curves, and thermo-majorization."""

from __future__ import annotations

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
from flexcat import search, thermo
from flexcat.errors import FlexcatError
from flexcat.search import GridSpec, scan_thermo_feasibility
from flexcat.thermo import (
    CURVE_TOL,
    _abscissa_groups,
    _curve_values,
    _step_curves,
    _tensor_rows,
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
    exact_thermo_cycle_margin,
    exact_thermo_margin,
    random_prob,
    suite_uniform_gamma_thermo,
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


def test_uniform_gamma_reduces_to_reversed_majorization():
    suite_uniform_gamma_thermo(500)


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
    assert np.array_equal(m, _grouped_dominance(xa, ya, xb, yb))


def _ref_curve_values(xa, ya, pts):
    """_curve_values as it was before segments were counted per distinct abscissa row:
    each curve A_i at the points pts[i] (one row per curve, or one for all), with every
    row's segments counted on an (n - 2, m, ...) array."""
    m, n = xa.shape
    col = (m,) + (1,) * (pts.ndim - 1)
    seg = (xa[:, 1:-1].T.reshape((n - 2,) + col) <= pts).sum(axis=0)
    seg += (np.arange(m) * n).reshape(col)  # flat indices into the (m, n) arrays
    dx = xa[:, 1:] - xa[:, :-1]
    slopes = np.zeros_like(xa)
    np.divide(ya[:, 1:] - ya[:, :-1], dx, out=slopes[:, :-1], where=dx > 0)
    vals = pts - xa.take(seg)
    vals *= slopes.take(seg)
    return np.add(vals, ya.take(seg), out=vals)


def _grouped_dominance(xa, ya, xb, yb):
    """The kernel before runs and interval bounds: one group per distinct abscissa row,
    every member compared column by column."""
    ux, inverse, counts = np.unique(xb, axis=0, return_inverse=True, return_counts=True)
    vals = _ref_curve_values(xa, ya, ux[None])
    floor = yb - CURVE_TOL
    out = np.empty((xa.shape[0], xb.shape[0]), dtype=bool)
    members = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    for g, cols in enumerate(members):
        block = np.ones((xa.shape[0], len(cols)), dtype=bool)
        for k in range(ux.shape[1]):
            block &= vals[:, g, k, None] >= floor[None, cols, k]
        out[:, cols] = block
    return out


def _random_scan_pair(rng, d, cs, levels_c=None):
    """Scan curves of two random states on axis cs, relative to a random Gibbs reference."""
    beta = rng.uniform(0.3, 2.0)
    levels_c = [0.0, rng.uniform(0.2, 2.0)] if levels_c is None else levels_c
    gamma = gibbs_tensor(
        gibbs_vector(rng.uniform(0.0, 3.0, d), beta), gibbs_vector(levels_c, beta)
    ).as_array()
    return [_scan_curves(random_prob(rng, d).as_array(), cs, gamma) for _ in range(2)]


def _assert_matches_grouped(a, b):
    for curves in ((*a, *b), (*b, *a)):
        assert np.array_equal(dominance_matrix(*curves), _grouped_dominance(*curves))


AXIS = np.linspace(0.0, 1.0, 201)
GROUPED_SCANS = {  # (d, weight axis, catalyst levels; None draws a random gap)
    "constant-heights": (4, AXIS, [0.0, 0.0]),
    "reversed": (4, AXIS[::-1], None),
    "recurring": (3, np.concatenate([AXIS, AXIS[::-1], AXIS]), None),
    "axis-2": (3, np.array([0.0, 1.0]), None),
    **{f"grid-1001-d{d}": (d, np.linspace(0.0, 1.0, 1001), None) for d in (3, 4, 5)},
}


@pytest.mark.parametrize("d, cs, levels_c", GROUPED_SCANS.values(), ids=GROUPED_SCANS.keys())
def test_dominance_matrix_equals_grouped_reference(d, cs, levels_c):
    rng = np.random.default_rng(1000 + len(cs) + d)
    for _ in range(2):
        a, b = _random_scan_pair(rng, d, cs, levels_c)
        _assert_matches_grouped(a, b)
        if len(np.unique(cs)) < len(cs):  # the axis turns back, so abscissa rows recur
            xb = b[0]
            assert 1 + (xb[1:] != xb[:-1]).any(axis=1).sum() > len(np.unique(xb, axis=0))


def test_dominance_matrix_band_rows_match_grouped_reference():
    """Rows whose value lies inside a jittering column's range are compared cell by cell.

    With a Gibbs catalyst reference (0.5, 0.5) the prefix heights that close both
    catalyst levels of a system level are constant in c and jitter by an ulp. A
    curve A_i equal to B_i lowered by CURVE_TOL takes, at its own abscissae, the
    value yb[i] - CURVE_TOL exactly, so rows of one run land inside the jitter.
    """
    rng = np.random.default_rng(5)
    (xb, yb), _ = _random_scan_pair(rng, 4, AXIS, [0.0, 0.0])
    xa, ya = xb, yb - CURVE_TOL
    starts = np.flatnonzero(np.r_[True, (xb[1:] != xb[:-1]).any(axis=1)])
    vals = _ref_curve_values(xa, ya, xb[starts][None])
    floor = yb - CURVE_TOL
    band_cells = 0
    for g, (a, b) in enumerate(zip(starts, np.r_[starts[1:], len(xb)])):
        for k in range(xb.shape[1]):
            col, steps = floor[a:b, k], np.diff(floor[a:b, k])
            if (steps < 0).any() and (steps > 0).any():
                band_cells += ((vals[:, g, k] >= col.min()) & (vals[:, g, k] < col.max())).sum()
    assert band_cells > 0
    m = dominance_matrix(xa, ya, xb, yb)
    assert np.array_equal(m, _grouped_dominance(xa, ya, xb, yb))
    assert 0 < m.sum() < m.size


def test_dominance_matrix_nan_values_fail_like_grouped_reference():
    rng = np.random.default_rng(8)
    (xa, ya), (xb, yb) = _random_scan_pair(rng, 3, AXIS)
    ya, yb = ya.copy(), yb.copy()
    ya[3] = np.nan
    ya[::7, 2] = np.nan
    yb[::5, 3] = np.nan
    m = dominance_matrix(xa, ya, xb, yb)
    assert np.array_equal(m, _grouped_dominance(xa, ya, xb, yb))
    assert not m[3].any() and not m[:, ::5].any() and m.any()


def _shuffled(curves, perm):
    return tuple(c[perm] for c in curves)


@pytest.mark.parametrize("d", [3, 5])
def test_dominance_matrix_unordered_rows_match_grouped_reference(d):
    """Scan rows in random order recur many times; they are grouped, then put back."""
    rng = np.random.default_rng(1100 + d)
    a, b = _random_scan_pair(rng, d, np.linspace(0.0, 1.0, 1001))
    pa, pb = rng.permutation(1001), rng.permutation(1001)
    a_shuffled, b_shuffled = _shuffled(a, pa), _shuffled(b, pb)
    xb = b_shuffled[0]
    assert 1 + (xb[1:] != xb[:-1]).any(axis=1).sum() > 10 * len(np.unique(xb, axis=0))
    _assert_matches_grouped(a_shuffled, b_shuffled)
    _assert_matches_grouped(a, b_shuffled)
    ordered = dominance_matrix(*a, *b)
    assert np.array_equal(dominance_matrix(*a_shuffled, *b_shuffled), ordered[pa][:, pb])


def test_abscissa_groups_rebuild_rows():
    nan = math.nan
    x = np.array(
        [[0, 0.5, 1], [0, 0.5, 1], [0, 0.2, 1], [0, 0.5, 1], [0, nan, 1], [0, nan, 1], [0, 0.2, 1]]
    )
    distinct, group = _abscissa_groups(x)
    assert np.array_equal(distinct[group], x, equal_nan=True)
    assert group[0] == group[1] == group[3] != group[2] == group[6]
    assert len(distinct) == 4  # a row holding NaN equals no other row


def _property_scan_pair(rng):
    """Scan curves of a random system: d = 3..6, a degenerate or gapped catalyst,
    2 to 1001 rows, sometimes a Gibbs weight of e^-37 to e^-60, NaN heights or
    rows in random order."""
    d = int(rng.integers(3, 7))
    cs = np.linspace(0.0, 1.0, int(rng.choice([2, 31, 401, 1001])))
    beta = float(rng.uniform(0.3, 2.0))
    levels_s = rng.uniform(0.0, 3.0, d)
    states = [rng.exponential(1.0, d) for _ in range(2)]
    if rng.random() < 0.3:  # too small to change a float running sum: zero-width segments
        beta, tiny = 1.0, rng.integers(d)
        levels_s[tiny] = rng.uniform(37.0, 60.0)
        if rng.random() < 0.5:  # an empty level sorts last, where its segment has zero width
            states[0][tiny] = 0.0
    levels_c = [0.0, 0.0] if rng.random() < 0.5 else [0.0, float(rng.uniform(0.2, 2.0))]
    gamma = gibbs_tensor(gibbs_vector(levels_s, beta), gibbs_vector(levels_c, beta)).as_array()
    curves = [_scan_curves(v / v.sum(), cs, gamma) for v in states]
    if rng.random() < 0.3:
        curves = [_shuffled(c, rng.permutation(len(cs))) for c in curves]
    if rng.random() < 0.2:
        for _, y in curves:
            y[rng.random(y.shape) < 0.02] = np.nan
    return curves


def test_curve_values_match_frozen_reference():
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(200):
        (xa, ya), (xb, yb) = _property_scan_pair(rng)
        seen |= {
            ("zero width", bool((np.diff(xa[:, :-1], axis=1) == 0).any())),
            ("NaN", bool(np.isnan(ya).any() and np.isnan(yb).any())),
            ("recurring", 1 + (xb[1:] != xb[:-1]).any(axis=1).sum() > len(np.unique(xb, axis=0))),
        }
        for pts in (np.unique(xb, axis=0)[None], xb):  # shared rows, and one row per curve
            got, want = _curve_values(xa, ya, pts), _ref_curve_values(xa, ya, pts)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if len(xb) <= 401:  # the 1001-row scans above already cover the matrix
            assert np.array_equal(dominance_matrix(xa, ya, xb, yb), _grouped_dominance(xa, ya, xb, yb))
    assert {case for case, hit in seen if hit} == {"zero width", "NaN", "recurring"}


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
    exact = np.array(
        [
            [
                exact_thermo_cycle_margin(TINY_X, TINY_Y, gs, gc, [(c1, 1.0 - c1), (c2, 1.0 - c2)])
                >= 0
                for c2 in cs
            ]
            for c1 in cs
        ]
    )
    assert exact.sum() == 15
    assert np.array_equal(grid.values == 1.0, exact)


# ---------------------------------------------------------------------------
# the 2-cycle scan: M & M.T, or nothing when the end slopes prove the grid empty
# ---------------------------------------------------------------------------


def _mutual_reference(curves) -> np.ndarray:
    """M & M.T for M of the grouped reference, compared column by column."""
    step = _grouped_dominance(*curves)
    return step & step.T


def _assert_mutual_dominance(curves) -> bool:
    """dominance_matrix & its transpose equals the grouped reference's; returns
    whether the grid holds a true cell."""
    step = dominance_matrix(*curves)
    got = step & step.T
    want = _mutual_reference(curves)
    assert np.array_equal(got, want)
    return bool(want.any())


def _scan_steps(system, cs):
    """(pq, gamma_s, gamma_c, curves) of the thermal scan of system on axis cs."""
    gamma_s, gamma_c, inputs = search._scan_inputs(*system, cs)
    return inputs[0], gamma_s, gamma_c, _step_curves(*inputs)


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


@pytest.mark.parametrize("steps, draws", [(101, 300), (1001, 20)])
def test_thermal_scan_equals_step_matrix_and_transpose(monkeypatch, steps, draws):
    rng = np.random.default_rng(steps)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, steps, steps)
    built = []
    kernel = search.dominance_matrix
    monkeypatch.setattr(search, "dominance_matrix", lambda *args: built.append(1) or kernel(*args))
    grids = {"empty": 0, "non-empty": 0, "proven empty": 0}
    for _ in range(draws):
        system = _thermal_draw(rng)
        want = _mutual_reference(_scan_steps(system, spec.axis1())[3])
        built.clear()
        got = scan_thermo_feasibility(*system, spec).values
        assert got.dtype == bool and np.array_equal(got, want)
        grids["non-empty" if want.any() else "empty"] += 1
        grids["proven empty"] += not built
    assert grids["non-empty"] > 0 and grids["empty"] > grids["proven empty"] > 0


def _band_fixture():
    """The band-row fixture of test_dominance_matrix_band_rows_match_grouped_reference."""
    (xb, yb), _ = _random_scan_pair(np.random.default_rng(5), 4, AXIS, [0.0, 0.0])
    return xb, yb - CURVE_TOL, xb, yb


def _nan_fixture():
    """The NaN pattern of test_dominance_matrix_nan_values_fail_like_grouped_reference,
    on one curve set compared with itself, so that true cells remain."""
    _, (xb, yb) = _random_scan_pair(np.random.default_rng(8), 3, AXIS)
    xa, ya, yb = xb, yb.copy(), yb.copy()
    ya[3] = np.nan
    ya[::7, 2] = np.nan
    yb[::5, 3] = np.nan
    return xa, ya, xb, yb


def _tiny_fixture():
    """The tiny Gibbs weight of test_tiny_gibbs_weight_scan_matches_exact_oracle."""
    return _scan_steps((TINY_X, TINY_Y, TINY_LEVELS_S, (0.0, 1.0), 1.0), AXIS)[3]


SQUARE_FIXTURES = {"band-rows": _band_fixture, "nan": _nan_fixture, "tiny-gibbs": _tiny_fixture}


@pytest.mark.parametrize("fixture", SQUARE_FIXTURES.values(), ids=SQUARE_FIXTURES.keys())
def test_mutual_dominance_fixtures_equal_step_matrix_and_transpose(fixture):
    assert _assert_mutual_dominance(fixture())


def test_mutual_dominance_unordered_rows_equal_step_matrix_and_transpose():
    """Rows permuted the same way on both sides take the kernel's column sort."""
    rng = np.random.default_rng(23)
    found = set()
    for _ in range(12):
        a, b = _random_scan_pair(rng, 3, np.linspace(0.0, 1.0, 301))
        perm = rng.permutation(301)
        curves = (*_shuffled(a, perm), *_shuffled(b, perm))
        distinct, group = _abscissa_groups(curves[2])
        assert (group[1:] != group[:-1]).sum() >= len(distinct)  # an abscissa row recurs
        found.add(_assert_mutual_dominance(curves))
        ordered = dominance_matrix(*a, *b)
        shuffled = dominance_matrix(*curves)
        assert np.array_equal(shuffled & shuffled.T, (ordered & ordered.T)[perm][:, perm])
    assert found == {True, False}


def _pruning_draw(rng):
    """A random system and axis from the cases the end-slope rules must survive."""
    d = int(rng.integers(2, 7))
    p, q = rng.exponential(1.0, (2, d))
    if rng.random() < 0.25:  # zero entries in p or q
        (p, q)[rng.integers(2)][rng.integers(d)] = 0.0
    top = 60.0 if rng.random() < 0.2 else 3.0  # up to 60 kT: Gibbs weights near e^-60
    levels_c = (0.0, 0.0) if rng.random() < 0.1 else (0.0, float(rng.uniform(0.2, top)))
    levels_s = tuple(rng.uniform(0.0, top, d))
    system = (tuple(p / p.sum()), tuple(q / q.sum()), levels_s, levels_c, 1.0)
    lo, hi = (0.0, 1.0) if rng.random() < 0.6 else (0.2, 0.9) if rng.random() < 0.5 else (0.0, 0.5)
    steps = int(rng.choice([2, 3, 11, 41]))
    return system, GridSpec(lo, hi, lo, hi, steps, steps)


def test_end_slope_pruning_is_sound():
    """Whenever the end-slope rules prove a grid empty, the full step matrix finds
    no feasible cell, and exact rational margins agree on sampled cells."""
    rng = np.random.default_rng(2024)
    seen = set()
    exact_checked = 0
    for _ in range(2000):
        system, spec = _pruning_draw(rng)
        cs = spec.axis1()
        pq, gamma_s, gamma_c, curves = _scan_steps(system, cs)
        if not search._provably_empty(pq, gamma_s, gamma_c, cs):
            continue
        step = dominance_matrix(*curves)
        assert not (step & step.T).any(), (system, spec)
        seen.add((
            pq.shape[1],
            pq.min() > 0.0,
            max(system[2]) > 3.0,
            system[3] == (0.0, 0.0),
            spec.lo1 > 0.0,
            spec.steps1 < 4,
        ))
        if exact_checked < 150:
            i, j = rng.integers(len(cs), size=2)
            states = [(cs[i], 1.0 - cs[i]), (cs[j], 1.0 - cs[j])]
            assert exact_thermo_cycle_margin(*pq, gamma_s, gamma_c, states) < 0
            exact_checked += 1
    assert {key[0] for key in seen} == {2, 3, 4, 5, 6}
    for field in range(1, 6):  # pruned with and without each case
        assert {key[field] for key in seen} == {True, False}


def test_end_slope_rules_prove_most_thermal_draws_empty():
    """At least 60% of random d = 3 systems drawn as the benchmark draws them
    are proven empty at 101²: 201 of these 300, while 210 are empty."""
    rng = np.random.default_rng(300)
    cs = np.linspace(0.0, 1.0, 101)
    proven = 0
    for _ in range(300):
        pq, gamma_s, gamma_c, _ = _scan_steps(_thermal_draw(rng), cs)
        proven += search._provably_empty(pq, gamma_s, gamma_c, cs)
    assert proven >= 180


def test_subnormal_composite_weight_proves_nothing():
    """A subnormal Gibbs weight rounds by more than the rules' allowance covers."""
    pq = np.array([(0.8, 0.1, 0.1), (0.1, 0.1, 0.8)])
    cs = np.linspace(0.0, 1.0, 11)
    for top, proven in ((2.0, True), (720.0, False)):
        gamma_s = gibbs_vector((0.0, 1.0, top), 1.0).values
        assert search._provably_empty(pq, gamma_s, (0.5, 0.5), cs) == proven


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
        assert _agrees_with_exact(got, exact_thermo_margin(pv, qv, gs.values)), (p, q, levels)
        verdicts.add(got)

        k = int(rng.integers(2, 4))
        gc = gibbs_vector(np.append(rng.uniform(0.0, 2.0, k - 1), rng.choice(NARROW_LEVELS)), 1.0)
        states = [_tied_state(rng, gc.as_array()) for _ in range(int(rng.integers(1, 4)))]
        cs = [make_prob_vec(c).values for c in states]
        got = thermo_flexible_ok(p, q, gs, Cycle(tuple(map(make_prob_vec, states))), gc)
        assert got == _ref_thermo_flexible_ok(pv, qv, gs.values, cs, gc.values), (p, q, states)
        margin = exact_thermo_cycle_margin(pv, qv, gs.values, gc.values, cs)
        assert _agrees_with_exact(got, margin), (p, q, states)
    assert verdicts == {True, False}
