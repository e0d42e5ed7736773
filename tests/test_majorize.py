"""Majorization order, conversion probability, and catalysis checks."""

from __future__ import annotations

import numpy as np
import pytest

from flexcat import (
    Cycle,
    NegativeEntry,
    NonFiniteEntry,
    NotSorted,
    flexible_cycle_ok,
    incomparable,
    is_majorized_by,
    make_prob_vec,
    standard_catalysis_ok,
    uniform,
    vidal_probability,
    violation_indices,
)
from helpers import (
    C_ALT1,
    C_ALT2,
    X_ALT4,
    X_DEMO4,
    Y_ALT4,
    Y_DEMO4,
    mix_down,
    random_sorted,
    schmidt,
)


def test_uniform_is_minimal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        assert is_majorized_by(uniform(d), random_sorted(rng, d))


def test_majorization_reflexive():
    x = schmidt(X_DEMO4)
    assert is_majorized_by(x, x)


def test_demo_pair_incomparable():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    assert not is_majorized_by(x, y)
    assert not is_majorized_by(y, x)
    assert incomparable(x, y)


def test_zero_padding_mismatched_dims():
    x = schmidt([0.5, 0.5])
    y = schmidt([0.5, 0.3, 0.2])
    # padded x = (0.5, 0.5, 0); prefixes 0.5 <= 0.5, 1.0 > 0.8
    assert not is_majorized_by(x, y)
    assert is_majorized_by(y, x)


def test_vidal_demo_value():
    assert vidal_probability(schmidt(X_DEMO4), schmidt(Y_DEMO4)) == pytest.approx(
        0.5857, abs=1e-4
    )


def test_vidal_identity_is_one():
    x = schmidt(X_DEMO4)
    assert vidal_probability(x, x) == 1.0


def test_vidal_zero_when_target_needs_more_support():
    assert vidal_probability(schmidt([1.0, 0.0]), schmidt([0.5, 0.5])) == 0.0


def test_vidal_skips_empty_tails():
    # both tails empty beyond support: (1,0) -> (1,0) converts with certainty
    assert vidal_probability(schmidt([1.0, 0.0]), schmidt([1.0, 0.0])) == 1.0
    # empty target tail with mass left in the source imposes no constraint
    assert vidal_probability(schmidt([0.5, 0.5]), schmidt([1.0, 0.0])) == 1.0


def test_standard_catalysis_uniform_catalyst_preserves():
    rng = np.random.default_rng(13)
    for _ in range(50):
        y = random_sorted(rng, 4)
        x = mix_down(rng, y)
        assert standard_catalysis_ok(x, y, uniform(3))


def test_standard_catalysis_trivial_catalyst_changes_nothing():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    assert not is_majorized_by(x, y)
    assert not standard_catalysis_ok(x, y, make_prob_vec([1.0]))


@pytest.mark.parametrize(
    "x, c, y, error",
    [
        ([0.5, float("nan"), 0.5], [1.2, -0.2], [0.6, 0.4], NonFiniteEntry),
        ([0.6, 0.4], [1.2, -0.2], [0.5, float("nan"), 0.5], NegativeEntry),
    ],
    ids=["x-before-c", "c-before-y"],
)
def test_standard_catalysis_checks_x_then_c_then_y(x, c, y, error):
    with pytest.raises(error):
        standard_catalysis_ok(x, y, c)


def test_flexible_cycle_length_one_equals_standard():
    rng = np.random.default_rng(15)
    for _ in range(200):
        x = random_sorted(rng, 4)
        y = random_sorted(rng, 4)
        c = random_sorted(rng, 2)
        assert flexible_cycle_ok(x, y, Cycle((c,))) == standard_catalysis_ok(x, y, c)


def test_flexible_cycle_alt_counterexample_is_feasible():
    cycle = Cycle((schmidt(C_ALT1), schmidt(C_ALT2)))
    assert flexible_cycle_ok(schmidt(X_ALT4), schmidt(Y_ALT4), cycle)


def test_flexible_cycle_with_uniform_state_fails_when_incomparable():
    x = schmidt(X_DEMO4)
    y = schmidt(Y_DEMO4)
    rng = np.random.default_rng(16)
    for _ in range(25):
        other = random_sorted(rng, 3)
        assert not flexible_cycle_ok(x, y, Cycle((uniform(3), other)))
        assert not flexible_cycle_ok(x, y, Cycle((other, uniform(3))))


def test_flexible_cycle_constant_states_match_standard():
    rng = np.random.default_rng(17)
    for _ in range(200):
        x = random_sorted(rng, 4)
        y = random_sorted(rng, 4)
        c = random_sorted(rng, 2)
        assert flexible_cycle_ok(x, y, Cycle((c, c, c))) == standard_catalysis_ok(x, y, c)


def test_flexible_cycle_rejects_unsorted_states():
    x = schmidt(X_ALT4)
    y = schmidt(Y_ALT4)
    cycle = Cycle((make_prob_vec([0.3, 0.7]),))
    with pytest.raises(NotSorted):
        flexible_cycle_ok(x, y, cycle)


def test_violation_indices_alt_pair():
    report = violation_indices(schmidt(X_ALT4), schmidt(Y_ALT4))
    assert report.indices == frozenset({2})
    assert report.m == 2
    assert report.n_max == 2


def test_violation_indices_empty_when_majorized():
    rng = np.random.default_rng(18)
    y = random_sorted(rng, 5)
    x = mix_down(rng, y)
    report = violation_indices(x, y)
    assert report.empty
    assert report.m is None and report.n_max is None


def test_violation_indices_first_position():
    report = violation_indices(schmidt([1.0, 0.0]), schmidt([0.5, 0.5]))
    assert report.indices == frozenset({1})


def test_incomparable_cases():
    x = schmidt(X_DEMO4)
    assert not incomparable(x, x)
    rng = np.random.default_rng(19)
    v = random_sorted(rng, 4)
    assert not incomparable(uniform(4), v)


def test_two_dim_total_order():
    rng = np.random.default_rng(20)
    for _ in range(500):
        a = random_sorted(rng, 2)
        b = random_sorted(rng, 2)
        assert is_majorized_by(a, b) or is_majorized_by(b, a)


def test_antisymmetry():
    rng = np.random.default_rng(21)
    for _ in range(300):
        b = random_sorted(rng, int(rng.integers(2, 6)))
        a = mix_down(rng, b)
        if is_majorized_by(a, b) and is_majorized_by(b, a):
            assert a.as_array() == pytest.approx(b.as_array(), abs=1e-12)
    x = schmidt(X_DEMO4)
    assert is_majorized_by(x, x) and x.values == x.values
