"""Shared deterministic generators, cell pickers, and property suites.

Every function takes explicit seeds/counts so the topic test modules and the
acceptance gate can run the same suites at their pinned sizes.
"""

from __future__ import annotations

import numpy as np

from flexcat import (
    Cycle,
    SchmidtVec,
    boundary_ratios_ok,
    endpoint_conditions_ok,
    flexible_cycle_ok,
    incomparable,
    is_majorized_by,
    k2_standard_witness,
    make_prob_vec,
    ratio_bound_holds,
    sort_desc,
    standard_catalysis_ok,
    support_size_uniform,
    tensor,
    thermo_majorizes,
    uniform,
    vidal_probability,
    violation_indices,
)
from flexcat.search import _majorization_matrix, _sample_incomparable, _step_rows, _weight_axis

# frozen instance data used across the suite
X_DEMO4 = (0.5789, 0.2691, 0.0872, 0.0648)
Y_DEMO4 = (0.4937, 0.2468, 0.2043, 0.0552)
X_ALT4 = (0.5064, 0.2565, 0.1401, 0.0970)
Y_ALT4 = (0.5474, 0.2048, 0.1903, 0.0575)
C_ALT1 = (0.6333, 0.2667, 0.1000)
C_ALT2 = (0.6167, 0.2833, 0.1000)
THERMO_P = (0.09, 0.53, 0.38)
THERMO_Q = (0.11, 0.75, 0.14)
LEVELS_S = (0.0, 1.0, 2.0)
LEVELS_C = (0.0, 1.0)
BETA = 1.0
THERMO_C1 = (0.82, 0.18)
THERMO_C2 = (0.59, 0.41)


def schmidt(vals) -> SchmidtVec:
    return sort_desc(make_prob_vec(vals))


def random_sorted(rng: np.random.Generator, d: int) -> SchmidtVec:
    draws = rng.exponential(1.0, d)
    return schmidt(draws / draws.sum())


def random_prob(rng: np.random.Generator, d: int):
    draws = rng.exponential(1.0, d)
    return make_prob_vec(draws / draws.sum())


def mix_down(rng: np.random.Generator, v: SchmidtVec, parts: int = 3) -> SchmidtVec:
    """Random convex mix of permutations of v, sorted: the result is ≺ v."""
    weights = rng.dirichlet(np.ones(parts))
    arr = np.zeros(v.dim)
    for w in weights:
        arr += w * rng.permutation(v.as_array())
    return schmidt(arr)


# ---------------------------------------------------------------------------
# the cells the differential harnesses check
# ---------------------------------------------------------------------------


def boundary(m: np.ndarray) -> np.ndarray:
    """Cells of the bool matrix m that have a 4-neighbour of the other verdict."""
    edge = np.zeros_like(m)
    rows, cols = m[1:] != m[:-1], m[:, 1:] != m[:, :-1]
    edge[1:] |= rows
    edge[:-1] |= rows
    edge[:, 1:] |= cols
    edge[:, :-1] |= cols
    return edge


def checked_cells(rng: np.random.Generator, m: np.ndarray, full: int, sampled: int) -> np.ndarray:
    """The cells (i, j) of m that a harness compares: all of them up to `full` rows
    and columns, else up to `sampled` of m's boundary cells and as many seeded ones."""
    if max(m.shape) <= full:
        return np.argwhere(np.ones_like(m))
    edge = np.argwhere(boundary(m))
    return np.r_[edge[rng.permutation(len(edge))[:sampled]], rng.integers(m.shape, size=(sampled, 2))]


# ---------------------------------------------------------------------------
# grid discovery of feasible 2-dimensional cycles
# ---------------------------------------------------------------------------


def two_cycle_walk(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Stand-in for search._majorization_matrix whose only closed walk is the
    off-diagonal 2-cycle between weights 2 and 5, a branch that the k=2 witness
    theorem leaves unreachable."""
    m = np.zeros((len(px), len(py)), dtype=bool)
    m[2, 5] = m[5, 2] = True
    return m


def endpoint_kept_trials(trials: int, seed: int, d: int) -> list[int]:
    """The trials of conjecture_search(trials, seed, d) that pass its endpoint pre-filter."""
    return [
        trial
        for trial in range(trials)
        if endpoint_conditions_ok(*_sample_incomparable(np.random.default_rng((seed, trial)), d)[:2])
    ]


def grid_feasible_pairs(x: SchmidtVec, y: SchmidtVec, resolution: float = 0.005) -> np.ndarray:
    """Index pairs (a, b) with x⊗C_a ≺ y⊗C_b and x⊗C_b ≺ y⊗C_a on the weight grid."""
    cs = _weight_axis(resolution)
    m = _majorization_matrix(*np.cumsum(_step_rows(x, y, cs), axis=-1))
    return np.argwhere(m & m.T)


def weight_state(c: float) -> SchmidtVec:
    return SchmidtVec((1.0 - c, c))


def discover_feasible_cycles(
    seed: int,
    want: int,
    d: int = 4,
    resolution: float = 0.005,
    per_pair: int = 25,
    max_pairs: int = 20000,
):
    """Randomly found, verified feasible 2-cycles for incomparable pairs.

    Returns a list of (x, y, cycle) with flexible_cycle_ok(x, y, cycle) true.
    """
    cs = _weight_axis(resolution)
    found = []
    for i in range(max_pairs):
        rng = np.random.default_rng((seed, i))
        x, y, _ = _sample_incomparable(rng, d)
        if not endpoint_conditions_ok(x, y):  # necessary, so prune early
            continue
        hits = grid_feasible_pairs(x, y, resolution)
        if len(hits) == 0:
            continue
        stride = max(1, len(hits) // per_pair)
        for a, b in hits[::stride][:per_pair]:
            cycle = Cycle((weight_state(float(cs[a])), weight_state(float(cs[b]))))
            if flexible_cycle_ok(x, y, cycle):
                found.append((x, y, cycle))
            if len(found) >= want:
                return found
    raise AssertionError(f"discovered only {len(found)} of {want} cycles")


# ---------------------------------------------------------------------------
# property suites (shared between topic tests and the acceptance gate)
# ---------------------------------------------------------------------------


def suite_transitivity(trials: int, seed: int = 101) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = int(rng.integers(3, 7))
        c = random_sorted(rng, d)
        b = mix_down(rng, c)
        a = mix_down(rng, b)
        assert is_majorized_by(a, b)
        assert is_majorized_by(b, c)
        assert is_majorized_by(a, c)


def suite_tensor_preservation(trials: int, seed: int = 102) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d = int(rng.integers(3, 6))
        b = random_sorted(rng, d)
        a = mix_down(rng, b)
        z = random_sorted(rng, int(rng.integers(2, 4)))
        assert is_majorized_by(sort_desc(tensor(a, z)), sort_desc(tensor(b, z)))


def suite_vidal_iff_majorized(trials: int, seed: int = 103) -> None:
    rng = np.random.default_rng(seed)
    for t in range(trials):
        d = int(rng.integers(3, 7))
        y = random_sorted(rng, d)
        x = mix_down(rng, y) if t % 2 == 0 else random_sorted(rng, d)
        maj = is_majorized_by(x, y)
        prob = vidal_probability(x, y)
        assert maj == (prob >= 1.0 - 1e-9), (x.values, y.values, prob, maj)


def suite_uniform_gamma_thermo(trials: int, seed: int = 104) -> None:
    rng = np.random.default_rng(seed)
    for t in range(trials):
        d = int(rng.integers(2, 6))
        p = random_prob(rng, d)
        q = random_prob(rng, d) if t % 3 else p
        flat = uniform(d)
        lhs = thermo_majorizes(p, q, flat)
        rhs = is_majorized_by(sort_desc(q), sort_desc(p))
        assert lhs == rhs, (p.values, q.values, lhs, rhs)


def suite_k2_witness(cycles) -> None:
    for x, y, cycle in cycles:
        j = k2_standard_witness(cycle, x, y)
        assert standard_catalysis_ok(x, y, cycle.states[j - 1])


def suite_conditions_soundness(cycles) -> None:
    for x, y, cycle in cycles:
        assert flexible_cycle_ok(x, y, cycle)
        assert boundary_ratios_ok(x, y, cycle)
        assert support_size_uniform(cycle)
        assert endpoint_conditions_ok(x, y)
        if incomparable(x, y):
            assert ratio_bound_holds(cycle, y, violation_indices(x, y))


def suite_d3_no_go(trials: int, seed: int = 105, resolution: float = 0.005) -> None:
    for i in range(trials):
        rng = np.random.default_rng((seed, i))
        x, y, _ = _sample_incomparable(rng, 3)
        assert len(grid_feasible_pairs(x, y, resolution)) == 0
        forward = endpoint_conditions_ok(x, y)
        backward = endpoint_conditions_ok(y, x)
        assert not (forward and backward)
