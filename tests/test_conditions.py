"""Necessary conditions and structural theorems as predicates."""

from __future__ import annotations

import numpy as np
import pytest

from flexcat import (
    Cycle,
    EmptyViolationSet,
    NotFeasible,
    NotSorted,
    PreconditionUnmet,
    WrongDimension,
    ZeroTail,
    adjacent_ratio_bound_ok,
    boundary_ratios_ok,
    boundary_rigidity_holds,
    d3_no_go,
    endpoint_conditions_ok,
    flexible_cycle_ok,
    incomparable,
    k2_standard_witness,
    make_cycle,
    ratio_bound_holds,
    support_size_uniform,
    uniform,
    violation_indices,
)
from helpers import (
    C_ALT1,
    C_ALT2,
    X_ALT4,
    X_DEMO4,
    Y_ALT4,
    Y_DEMO4,
    discover_feasible_cycles,
    schmidt,
    suite_k2_witness,
)


def _alt_cycle() -> Cycle:
    return Cycle((schmidt(C_ALT1), schmidt(C_ALT2)))


def test_boundary_ratios_on_feasible_cycle():
    assert boundary_ratios_ok(schmidt(X_ALT4), schmidt(Y_ALT4), _alt_cycle())


def test_boundary_ratios_equality_case():
    x = schmidt([0.5, 0.3, 0.2])
    cycle = make_cycle([[0.7, 0.3], [0.7, 0.3]])
    assert boundary_ratios_ok(x, x, cycle)


def test_boundary_ratios_constructed_violation():
    x = schmidt([0.5, 0.3, 0.2])
    # with x == y the bound demands non-decreasing first components around
    # the cycle; 0.7 > 0.6 violates it in one step
    cycle = make_cycle([[0.7, 0.3], [0.6, 0.4]])
    assert not boundary_ratios_ok(x, x, cycle)


def test_boundary_ratios_zero_tail():
    x = schmidt([0.6, 0.4, 0.0])
    with pytest.raises(ZeroTail):
        boundary_ratios_ok(x, x, _alt_cycle())


def test_support_size_uniform_cases():
    assert support_size_uniform(make_cycle([[0.6, 0.4, 0.0], [0.7, 0.3, 0.0]]))
    assert not support_size_uniform(make_cycle([[0.6, 0.4, 0.0], [0.5, 0.3, 0.2]]))
    assert support_size_uniform(_alt_cycle())


def test_endpoint_conditions_demo_pair_fails():
    assert not endpoint_conditions_ok(schmidt(X_DEMO4), schmidt(Y_DEMO4))


def test_endpoint_conditions_alt_pair_holds():
    assert endpoint_conditions_ok(schmidt(X_ALT4), schmidt(Y_ALT4))


def test_endpoint_conditions_reflexive():
    x = schmidt(X_ALT4)
    assert endpoint_conditions_ok(x, x)


def test_endpoint_conditions_zero_tail():
    with pytest.raises(ZeroTail):
        endpoint_conditions_ok(schmidt([1.0, 0.0]), schmidt([0.5, 0.5]))


def test_boundary_rigidity_constant_cycle():
    x = schmidt([0.5, 0.3, 0.2])
    cycle = make_cycle([[0.8, 0.2], [0.8, 0.2]])
    assert boundary_rigidity_holds(x, x, cycle)


def test_boundary_rigidity_varying_components():
    x = schmidt([0.5, 0.3, 0.2])
    cycle = make_cycle([[0.8, 0.2], [0.7, 0.3]])
    assert not boundary_rigidity_holds(x, x, cycle)


def test_boundary_rigidity_precondition():
    with pytest.raises(PreconditionUnmet):
        boundary_rigidity_holds(schmidt(X_ALT4), schmidt(Y_ALT4), _alt_cycle())


def test_k3_cycles_degenerate_under_matched_endpoints():
    # x1 = y1 and x_d = y_d > 0: any accepted k=3 cycle must be constant
    x = schmidt([0.5, 0.25, 0.2, 0.05])
    y = schmidt([0.5, 0.3, 0.15, 0.05])
    assert not incomparable(x, y)
    rng = np.random.default_rng(41)
    accepted = 0
    for _ in range(500):
        n = int(rng.integers(2, 4))
        states = []
        for _ in range(n):
            draws = np.sort(rng.exponential(1.0, 3))[::-1]
            states.append(draws / draws.sum())
        cycle = make_cycle([np.sort(s)[::-1] for s in states])
        if flexible_cycle_ok(x, y, cycle):
            accepted += 1
            arrays = [s.as_array() for s in cycle.states]
            for arr in arrays[1:]:
                assert arr == pytest.approx(arrays[0], abs=1e-10)
    # constant cycles built from a working standard catalyst are accepted
    c = schmidt([0.5, 0.3, 0.2])
    assert flexible_cycle_ok(x, y, make_cycle([c.values, c.values]))
    assert boundary_rigidity_holds(x, y, make_cycle([c.values, c.values]))


def test_k2_witness_prefers_most_mixed_state():
    x = uniform(2)
    y = schmidt([0.9, 0.1])
    cycle = make_cycle([[0.9, 0.1], [0.7, 0.3]])
    assert flexible_cycle_ok(x, y, cycle)
    assert k2_standard_witness(cycle, x, y) == 2


def test_k2_witness_constant_cycle_returns_first():
    x = uniform(2)
    y = schmidt([0.9, 0.1])
    cycle = make_cycle([[0.8, 0.2], [0.8, 0.2]])
    assert k2_standard_witness(cycle, x, y) == 1


def test_k2_witness_requires_k2_and_feasibility():
    x = schmidt(X_ALT4)
    y = schmidt(Y_ALT4)
    with pytest.raises(NotFeasible):
        k2_standard_witness(_alt_cycle(), x, y)  # k = 3
    infeasible = make_cycle([[0.9, 0.1], [0.6, 0.4]])
    with pytest.raises(NotFeasible):
        k2_standard_witness(infeasible, schmidt(X_DEMO4), schmidt(Y_DEMO4))


def test_d3_no_go_incomparable_pair():
    x = schmidt([0.5, 0.4, 0.1])
    y = schmidt([0.6, 0.2, 0.2])
    assert incomparable(x, y)
    assert d3_no_go(x, y)
    assert not (endpoint_conditions_ok(x, y) and endpoint_conditions_ok(y, x))


def test_d3_no_go_comparable_pair():
    y = schmidt([0.6, 0.3, 0.1])
    x = schmidt([0.4, 0.35, 0.25])
    assert not d3_no_go(x, y)


def test_d3_no_go_wrong_dimension():
    with pytest.raises(WrongDimension):
        d3_no_go(schmidt(X_DEMO4), schmidt(Y_DEMO4))


def test_ratio_bound_alt_example():
    x = schmidt(X_ALT4)
    y = schmidt(Y_ALT4)
    report = violation_indices(x, y)
    threshold = y.values[1] / y.values[2]
    assert threshold == pytest.approx(1.0762, abs=1e-3)
    assert C_ALT1[0] / C_ALT1[2] == pytest.approx(6.333, abs=1e-3)
    assert C_ALT2[0] / C_ALT2[2] == pytest.approx(6.167, abs=1e-3)
    assert ratio_bound_holds(_alt_cycle(), y, report)


def test_ratio_bound_detects_flat_states():
    y = schmidt(Y_ALT4)
    report = violation_indices(schmidt(X_ALT4), y)
    flat_cycle = make_cycle([[0.5, 0.5]])  # ratio 1 is below the threshold
    assert not ratio_bound_holds(flat_cycle, y, report)


def test_ratio_bound_requires_violations():
    with pytest.raises(EmptyViolationSet):
        ratio_bound_holds(_alt_cycle(), schmidt(Y_ALT4), violation_indices(uniform(4), schmidt(Y_ALT4)))


ALT = (schmidt(X_ALT4), schmidt(Y_ALT4))
FLAT = schmidt([0.5, 0.3, 0.2])
UNSORTED_STATES = {  # each predicate on a cycle holding a state in ascending order
    # a passing cycle's states reversed, which passed too
    "boundary_ratios_ok": lambda: boundary_ratios_ok(
        *ALT, make_cycle([(0.1, 0.3, 0.6), (0.1, 0.4, 0.5)])
    ),
    # two states equal once sorted, which failed
    "boundary_rigidity_holds": lambda: boundary_rigidity_holds(
        FLAT, FLAT, make_cycle([(0.5, 0.3, 0.2), (0.5, 0.2, 0.3)])
    ),
    "flexible_cycle_ok": lambda: flexible_cycle_ok(
        *ALT, make_cycle([(0.6, 0.3, 0.1), (0.1, 0.4, 0.5)])
    ),
    # the first state fails the bound, which returned before the second was checked
    "ratio_bound_holds": lambda: ratio_bound_holds(
        make_cycle([(0.34, 0.33, 0.33), (0.1, 0.3, 0.6)]), ALT[1], violation_indices(*ALT)
    ),
}


@pytest.mark.parametrize("check", UNSORTED_STATES.values(), ids=UNSORTED_STATES.keys())
def test_cycle_predicates_reject_unsorted_states(check):
    with pytest.raises(NotSorted):
        check()


def test_adjacent_ratio_bound_alt_states():
    x = schmidt(X_ALT4)
    y = schmidt(Y_ALT4)
    report = violation_indices(x, y)
    threshold = min(y.values[0] / y.values[1], y.values[2] / y.values[3])
    assert threshold == pytest.approx(2.673, abs=1e-3)
    assert adjacent_ratio_bound_ok(schmidt(C_ALT1), y, report)  # 2.667 < 2.673
    assert not adjacent_ratio_bound_ok(schmidt(C_ALT2), y, report)  # 2.833 > 2.673


def test_adjacent_ratio_bound_uniform_state():
    report = violation_indices(schmidt(X_ALT4), schmidt(Y_ALT4))
    assert adjacent_ratio_bound_ok(uniform(3), schmidt(Y_ALT4), report)


def test_adjacent_ratio_bound_requires_violations():
    with pytest.raises(EmptyViolationSet):
        adjacent_ratio_bound_ok(uniform(3), schmidt(Y_ALT4), violation_indices(uniform(4), uniform(4)))


def test_adjacent_bound_counterexample_reproduction():
    """A feasible flexible cycle whose second state breaks the adjacent bound."""
    x = schmidt(X_ALT4)
    y = schmidt(Y_ALT4)
    cycle = _alt_cycle()
    report = violation_indices(x, y)
    assert flexible_cycle_ok(x, y, cycle)
    assert not adjacent_ratio_bound_ok(cycle.states[1], y, report)


def test_k2_witness_on_discovered_cycles():
    cycles = discover_feasible_cycles(seed=901, want=500)
    suite_k2_witness(cycles)
