"""Construction, sorting, tensor products, and tail sums."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flexcat import (
    BadNormalization,
    Cycle,
    DimensionMismatch,
    EmptyCycle,
    EmptyVector,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotSorted,
    ProbVec,
    SchmidtVec,
    make_cycle,
    make_prob_vec,
    sort_desc,
    tail_sum,
    tensor,
    uniform,
)


def test_make_prob_vec_symmetric():
    v = make_prob_vec([0.5, 0.5])
    assert v.values == (0.5, 0.5)
    assert v.dim == 2


def test_make_prob_vec_three_level_state():
    v = make_prob_vec([0.09, 0.53, 0.38])
    assert math.isclose(math.fsum(v.values), 1.0, abs_tol=1e-12)


def test_make_prob_vec_rejects_bad_sum():
    with pytest.raises(BadNormalization):
        make_prob_vec([0.5, 0.6])


def test_make_prob_vec_rejects_sum_beyond_float_range():
    with pytest.raises(BadNormalization, match="entries sum to inf"):
        make_prob_vec([1e308, 1e308])


def test_make_prob_vec_rejects_empty():
    with pytest.raises(EmptyVector):
        make_prob_vec([])


def test_make_prob_vec_rejects_negative():
    with pytest.raises(NegativeEntry):
        make_prob_vec([1.1, -0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_prob_vec_rejects_non_finite(bad):
    with pytest.raises(NonFiniteEntry):
        make_prob_vec([bad, 0.5, 0.5])


def test_make_prob_vec_renormalizes_within_tolerance():
    v = make_prob_vec([0.5 + 4e-10, 0.5])
    assert math.fsum(v.values) == pytest.approx(1.0, abs=1e-12)


def test_make_prob_vec_clamps_tiny_entries():
    v = make_prob_vec([1.0, 1e-16, -1e-16])
    assert v.values[1] == 0.0
    assert v.values[2] == 0.0
    assert v.support_size() == 1


def test_sort_desc_reorders():
    assert sort_desc(make_prob_vec([0.1, 0.6, 0.3])).values == (0.6, 0.3, 0.1)


def test_sort_desc_uniform_fixed_point():
    u = make_prob_vec([0.25] * 4)
    assert sort_desc(u).values == u.values


def test_sort_desc_two_level():
    assert sort_desc(make_prob_vec([0.18, 0.82])).values == (0.82, 0.18)


def test_sort_desc_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        draws = rng.exponential(1.0, int(rng.integers(1, 8)))
        p = make_prob_vec(draws / draws.sum())
        once = sort_desc(p)
        assert sort_desc(once).values == once.values


def test_schmidt_vec_rejects_unsorted():
    with pytest.raises(NotSorted):
        SchmidtVec((0.3, 0.7))


def test_tensor_identity():
    assert tensor(make_prob_vec([1.0]), make_prob_vec([0.7, 0.3])).values == (0.7, 0.3)


def test_tensor_pairwise_products():
    t = tensor(make_prob_vec([0.7, 0.3]), make_prob_vec([0.6, 0.4]))
    assert sorted(t.values) == pytest.approx(sorted([0.42, 0.28, 0.18, 0.12]), abs=1e-15)


def test_tensor_uniformity_closure():
    t = tensor(uniform(2), uniform(3))
    assert t.values == pytest.approx(uniform(6).values, abs=1e-15)


def test_tensor_commutes_as_multiset_and_sums_to_one():
    rng = np.random.default_rng(6)
    for _ in range(200):
        da, db = rng.integers(1, 6, size=2)
        a = make_prob_vec(rng.dirichlet(np.ones(da)))
        b = make_prob_vec(rng.dirichlet(np.ones(db)))
        ab = tensor(a, b)
        ba = tensor(b, a)
        assert sorted(ab.values) == pytest.approx(sorted(ba.values), abs=1e-15)
        assert math.fsum(ab.values) == pytest.approx(1.0, abs=1e-12)


def test_tail_sum_full_and_last():
    x = sort_desc(make_prob_vec([0.6, 0.3, 0.1]))
    assert tail_sum(x, 1) == pytest.approx(1.0, abs=1e-12)
    assert tail_sum(x, 3) == pytest.approx(0.1, abs=1e-12)


def test_tail_sum_demo_vector():
    x = sort_desc(make_prob_vec([0.5789, 0.2691, 0.0872, 0.0648]))
    assert tail_sum(x, 3) == pytest.approx(0.1520, abs=1e-12)


def test_tail_sum_out_of_range():
    x = sort_desc(make_prob_vec([0.6, 0.4]))
    with pytest.raises(IndexOutOfRange):
        tail_sum(x, 0)
    with pytest.raises(IndexOutOfRange):
        tail_sum(x, 3)


def test_tail_sum_telescopes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = sort_desc(make_prob_vec(rng.dirichlet(np.ones(d))))
        for l in range(1, d):
            assert tail_sum(x, l) - tail_sum(x, l + 1) == pytest.approx(
                x.values[l - 1], abs=1e-12
            )


def test_cycle_validation():
    with pytest.raises(EmptyCycle, match="cycle is empty"):
        Cycle(())
    with pytest.raises(DimensionMismatch):
        make_cycle([[0.5, 0.5], [0.2, 0.3, 0.5]])


def test_cycle_pairs_wrap():
    cycle = make_cycle([[0.8, 0.2], [0.6, 0.4], [0.5, 0.5]])
    pairs = cycle.pairs()
    assert len(pairs) == 3
    assert pairs[-1][1].values == (0.8, 0.2)
    assert cycle.n == 3
    assert cycle.k == 2


def test_prob_vec_is_immutable():
    v = make_prob_vec([0.5, 0.5])
    with pytest.raises(AttributeError):
        v.values = (1.0, 0.0)
    assert isinstance(v, ProbVec)
