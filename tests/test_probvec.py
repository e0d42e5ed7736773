"""Construction, sorting, tensor products, and tail sums."""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest

from flexcat import (
    BadNormalization,
    Cycle,
    DimensionMismatch,
    EmptyCycle,
    EmptyVector,
    FlexcatError,
    GibbsVec,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotSorted,
    ProbVec,
    SchmidtVec,
    ViolationReport,
    gibbs_vector,
    make_cycle,
    make_prob_vec,
    sort_desc,
    tail_sum,
    tensor,
    thermo_majorizes,
    uniform,
    vidal_probability,
)
from flexcat.probvec import CLAMP, SUM_TOL, _build, as_schmidt_vec
from flexcat.thermo import as_gibbs_vec


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


_HALF = SchmidtVec((0.5, 0.5))
_SKEW = SchmidtVec((0.75, 0.25))

# class, field values in order, and the exact repr of the value built from them
VALUE_CASES = [
    (ProbVec, ((0.25, 0.75),), "ProbVec(values=(0.25, 0.75))"),
    (SchmidtVec, ((0.75, 0.25),), "SchmidtVec(values=(0.75, 0.25))"),
    (GibbsVec, ((0.75, 0.25),), "GibbsVec(values=(0.75, 0.25))"),
    (
        Cycle,
        ((_HALF, _SKEW),),
        "Cycle(states=(SchmidtVec(values=(0.5, 0.5)), SchmidtVec(values=(0.75, 0.25))))",
    ),
    (
        ViolationReport,
        (frozenset({1, 2}), 1, 2),
        "ViolationReport(indices=frozenset({1, 2}), m=1, n_max=2)",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_CASES, ids=[c[0].__name__ for c in VALUE_CASES])
def test_value_classes_compare_hash_print_and_copy_by_fields(cls, fields, text):
    obj = cls(*fields)
    assert obj == cls(**dict(zip(cls.__match_args__, fields)))
    assert tuple(getattr(obj, name) for name in cls.__match_args__) == fields
    assert hash(obj) == hash(cls(*fields)) == hash(fields)
    assert repr(obj) == text
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text  # the failed writes changed nothing
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)


def test_value_classes_differ_across_classes():
    vals = (0.5, 0.5)
    vecs = [ProbVec(vals), SchmidtVec(vals), GibbsVec(vals)]
    for i, a in enumerate(vecs):
        for j, b in enumerate(vecs):
            assert (a == b) is (i == j) and (a != b) is (i != j)
        assert a != vals and a.values == vals
    assert ProbVec((0.25, 0.75)) != ProbVec((0.75, 0.25))
    assert Cycle((_HALF,)) != Cycle((ProbVec((0.5, 0.5)),))
    assert ViolationReport(frozenset(), None, None) != ViolationReport(frozenset({1}), 1, 1)


@pytest.mark.parametrize("cls", [ProbVec, SchmidtVec, GibbsVec])
def test_build_equals_public_constructor(cls):
    vals = (0.75, 0.25)
    built = _build(cls, vals)
    assert type(built) is cls and built == cls(vals) and repr(built) == repr(cls(vals))
    assert cls.__match_args__ == ("values",)


def test_public_constructors_reject_what_make_prob_vec_rejects():
    y = (0.4, 0.3, 0.2, 0.1)
    with pytest.raises(NonFiniteEntry, match="entry nan is not finite"):
        vidal_probability(ProbVec((0.5, math.nan, 0.5, 0.0)), y)
    with pytest.raises(BadNormalization, match="entries sum to 3.0"):
        vidal_probability(SchmidtVec((0.9, 0.8, 0.7, 0.6)), y)
    with pytest.raises(BadNormalization):
        thermo_majorizes(ProbVec((0.5, 0.5, 0.5)), (0.2, 0.3, 0.5), gibbs_vector((0, 1, 2), 1.0))
    with pytest.raises(NegativeEntry, match="entry -1.0 is negative"):
        make_cycle([ProbVec((2.0, -1.0))])
    with pytest.raises(EmptyVector):
        GibbsVec(())
    with pytest.raises(NonFiniteEntry):
        GibbsVec((math.inf, 0.5))


def test_public_constructors_keep_values_as_given():
    # checked, but neither clamped nor renormalized
    assert ProbVec((0.5 + 4e-10, 0.5, -1e-16)).values == (0.5 + 4e-10, 0.5, -1e-16)
    assert SchmidtVec((1, 0)).values == (1.0, 0.0)
    tiny = GibbsVec((1.0 - 1e-20, 1e-20))
    assert tiny.values == (1.0 - 1e-20, 1e-20)
    with pytest.raises(FlexcatError, match="reference distribution must be strictly positive"):
        GibbsVec((1.0, 1e-16, 0.0))


def test_package_built_vectors_stay_valid_types():
    g = gibbs_vector((0.0, 1.0, 2.0), 1.0)
    assert type(g) is GibbsVec and all(type(v) is float for v in g.values)
    assert type(uniform(3)) is SchmidtVec and uniform(3) == SchmidtVec((1 / 3,) * 3)
    with pytest.raises(FlexcatError, match="strictly positive"):
        gibbs_vector((0.0, 2000.0), 1.0)  # exp(-2000) underflows to 0
    with pytest.raises(FlexcatError, match=r"reference weight 2\.03\d*e-313 is subnormal"):
        gibbs_vector((0.0, 720.0), 1.0)  # exp(-720) is below the normal float range
    assert min(gibbs_vector((0.0, 700.0), 1.0).values) >= sys.float_info.min
    with pytest.raises(FlexcatError, match="is subnormal"):
        GibbsVec((1.0, 5e-324))


# The parent's make_prob_vec and constructor bodies, kept as the slow reference
# for the one-pass checks; each returns a class and a tuple of values.


def _ref_make_prob_vec(raw):
    vals = [float(v) for v in raw]
    if not vals:
        raise EmptyVector("probability vector needs at least one entry")
    for v in vals:
        if not math.isfinite(v):
            raise NonFiniteEntry(f"entry {v} is not finite")
        if v < -CLAMP:
            raise NegativeEntry(f"entry {v} is negative")
    vals = [0.0 if abs(v) <= CLAMP else v for v in vals]
    try:
        total = math.fsum(vals)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > SUM_TOL:
        raise BadNormalization(f"entries sum to {total}, expected 1 within {SUM_TOL}")
    return tuple(v / total for v in vals)


def _ref_sorted(vals):
    for i in range(len(vals) - 1):
        if vals[i] < vals[i + 1]:
            raise NotSorted(f"entries must be non-increasing, got {vals}")
    return vals


def _ref_positive(vals):
    if any(v <= 0.0 for v in vals):
        raise FlexcatError("reference distribution must be strictly positive")
    if any(v < sys.float_info.min for v in vals):
        raise FlexcatError(
            f"reference weight {min(vals)!r} is subnormal (below {sys.float_info.min!r}),"
            " too small for the thermo-majorization kernels"
        )
    return vals


def _ref_constructed(raw):
    """Checked by make_prob_vec's rules, then kept as given."""
    vals = tuple(float(v) for v in raw)
    _ref_make_prob_vec(vals)
    return vals


def _ref_as_gibbs_vec(raw):
    vals = [float(v) for v in raw]
    _ref_make_prob_vec(vals)
    total = math.fsum(vals)
    return _ref_positive(tuple(v / total for v in vals))


PAIRS = {
    "make_prob_vec": (make_prob_vec, lambda raw: (ProbVec, _ref_make_prob_vec(raw))),
    "as_schmidt_vec": (
        as_schmidt_vec,
        lambda raw: (SchmidtVec, _ref_sorted(_ref_make_prob_vec(raw))),
    ),
    "sort_desc": (
        sort_desc,
        lambda raw: (SchmidtVec, tuple(sorted(_ref_make_prob_vec(raw), reverse=True))),
    ),
    "ProbVec": (ProbVec, lambda raw: (ProbVec, _ref_constructed(raw))),
    "SchmidtVec": (SchmidtVec, lambda raw: (SchmidtVec, _ref_sorted(_ref_constructed(raw)))),
    "GibbsVec": (GibbsVec, lambda raw: (GibbsVec, _ref_positive(_ref_constructed(raw)))),
    "as_gibbs_vec": (as_gibbs_vec, lambda raw: (GibbsVec, _ref_as_gibbs_vec(raw))),
    "tensor": (
        lambda raw: tensor(raw, (0.25, 0.75)),
        lambda raw: (ProbVec, tuple(x * y for x in _ref_make_prob_vec(raw) for y in (0.25, 0.75))),
    ),
}

EDGE_ENTRIES = (0.0, -0.0, CLAMP, -CLAMP, 1e-16, -1e-16, 5e-324)
BAD_ENTRIES = (math.nan, math.inf, -math.inf, -2 * CLAMP, -0.1)


def _draw_entries(rng: random.Random) -> list[float]:
    d = rng.randint(1, 9)
    draws = [rng.expovariate(1.0) for _ in range(d)]
    if rng.random() < 0.3:  # ties
        draws = [rng.choice(draws[:2]) for _ in range(d)]
    total = math.fsum(draws)
    vals = [v / total for v in draws]
    roll = rng.random()
    if roll < 0.3:
        for _ in range(rng.randint(1, 3)):
            vals.insert(rng.randint(0, len(vals)), rng.choice(EDGE_ENTRIES))
    elif roll < 0.45:
        for _ in range(rng.randint(1, 2)):
            vals.insert(rng.randint(0, len(vals)), rng.choice(BAD_ENTRIES))
    elif roll < 0.65:
        scale = 1.0 + rng.choice((-2, -1, -0.5, 0.5, 1, 2)) * SUM_TOL
        vals = [v * scale for v in vals]
    elif roll < 0.7:  # sums that overflow fsum, or are finite but far from 1
        vals = [rng.choice((1e308, 1.7e308, 8e307)) for _ in range(d)]
        if rng.random() < 0.5:
            vals[-1] = 1.0
    elif roll < 0.75:
        vals = [0] * d
        vals[rng.randrange(d)] = 1
    elif roll < 0.78:
        vals = []
    if rng.random() < 0.5:
        vals.sort(reverse=True)
    return vals


def _dress(vals: list[float], form: str):
    """A fresh input of the given form; a generator can be read only once."""
    if form == "list":
        return list(vals)
    if form == "generator":
        return (v for v in vals)
    if form == "numpy-scalars":
        return tuple(np.float64(v) if isinstance(v, float) else np.int64(v) for v in vals)
    return tuple(vals)


def _made(fn, raw):
    vec = fn(raw)
    return type(vec), vec.values


def _outcome(fn, raw):
    try:
        cls, vals = fn(raw)
    except FlexcatError as exc:
        return type(exc), str(exc)
    return cls, [v.hex() if type(v) is float else repr(v) for v in vals]


def test_one_pass_checks_match_slow_reference():
    rng = random.Random(20261018)
    forms = ("tuple", "list", "generator", "numpy-scalars")
    seen = set()
    for _ in range(5000):
        vals = _draw_entries(rng)
        form = rng.choice(forms)
        for name, (fast, slow) in PAIRS.items():
            got = _outcome(lambda raw: _made(fast, raw), _dress(vals, form))
            want = _outcome(slow, _dress(vals, form))
            assert got == want, (name, form, vals)
            seen.add(got[0])
    assert {ProbVec, SchmidtVec, GibbsVec, EmptyVector, NonFiniteEntry, NegativeEntry} <= seen
    assert {BadNormalization, NotSorted, FlexcatError} <= seen
