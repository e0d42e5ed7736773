"""Gibbs vectors, Lorenz curves, and thermo-majorization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexcat import (
    BadRange,
    Cycle,
    DimensionMismatch,
    GibbsVec,
    NonFiniteEntry,
    LorenzCurve,
    ThermoContext,
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
from flexcat.errors import FlexcatError
from flexcat.search import _thermo_rows
from flexcat.thermo import CURVE_TOL, dominance_matrix, lorenz_breakpoints_batch
from helpers import (
    BETA,
    LEVELS_C,
    LEVELS_S,
    THERMO_C1,
    THERMO_C2,
    THERMO_P,
    THERMO_Q,
    random_prob,
    suite_uniform_gamma_thermo,
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
    with pytest.raises(NonFiniteEntry):
        ThermoContext((bad, 1.0), 0.5)


def test_gibbs_vec_requires_positive_entries():
    with pytest.raises(FlexcatError):
        GibbsVec((1.0, 0.0))


def test_thermo_context_derives_gibbs():
    ctx = ThermoContext((0.0, 1.0, 2.0), 1.0)
    assert ctx.gibbs.values == gibbs_vector([0, 1, 2], 1.0).values
    assert ctx.dim == 3
    with pytest.raises(BadRange):
        ThermoContext((0.0, 1.0), -0.5)


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
    assert curve.value_at(0.9) == pytest.approx(1.0, abs=1e-12)


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
        assert a.value_at(t) == pytest.approx(b.value_at(t), abs=1e-12)


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
        assert xb[i] == pytest.approx([pt[0] for pt in curve.breakpoints], abs=1e-12)
        assert yb[i] == pytest.approx([pt[1] for pt in curve.breakpoints], abs=1e-12)


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
            scalar = curve_geq(
                lorenz_curve(make_prob_vec(rows_a[i]), g),
                lorenz_curve(make_prob_vec(rows_b[j]), g),
            )
            assert m[i, j] == scalar
    # scan-shaped rows share abscissa rows, including the tie at c = 0.5
    gs = gibbs_vector(rng.normal(0, 1, 3), 0.7)
    gamma = gibbs_tensor(gs, gibbs_vector([0.0, 0.0], 0.7))
    p = random_prob(rng, 3).as_array()
    q = random_prob(rng, 3).as_array()
    xa, ya = _scan_curves(p, SCAN_CS, gamma.as_array())
    xb, yb = _scan_curves(q, SCAN_CS, gamma.as_array())
    assert len(np.unique(xb, axis=0)) < len(SCAN_CS)
    m = dominance_matrix(xa, ya, xb, yb)
    curves_a = [lorenz_curve(make_prob_vec(r), gamma) for r in _thermo_rows(p, SCAN_CS)]
    curves_b = [lorenz_curve(make_prob_vec(r), gamma) for r in _thermo_rows(q, SCAN_CS)]
    for i, curve_a in enumerate(curves_a):
        for j, curve_b in enumerate(curves_b):
            assert m[i, j] == curve_geq(curve_a, curve_b)


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
    assert np.array_equal(dominance_matrix(xa, ya, xb, yb), _dense_dominance(xa, ya, xb, yb))
