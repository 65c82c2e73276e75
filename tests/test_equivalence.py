import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import (
    LaurentPoly,
    TorsionClass,
    apply_witness,
    compare_torsion,
    expected_torsion,
    newton_polytope,
    support,
)
from foxtorsion.equivalence import _match

from helpers import apply_affine, count_calls, random_laurent, random_unimodular


def classify(terms, rank=2):
    return TorsionClass(LaurentPoly(rank, terms))


# -- the family ---------------------------------------------------------------


def test_surfaces_at_zero_not_equivalent():
    verdict = compare_torsion(expected_torsion(0, "S"), expected_torsion(0, "Sprime"))
    assert verdict.kind == "NotEquivalent"
    assert verdict.reason


def test_surfaces_at_one_not_equivalent():
    verdict = compare_torsion(expected_torsion(1, "S"), expected_torsion(1, "Sprime"))
    assert verdict.kind == "NotEquivalent"


def test_family_sweep_not_equivalent():
    for n in range(-1, 6):
        verdict = compare_torsion(
            expected_torsion(n, "S"), expected_torsion(n, "Sprime")
        )
        assert verdict.kind == "NotEquivalent", n


def test_compare_builds_each_hull_once(monkeypatch):
    t1 = expected_torsion(4, "S")
    t2 = classify(apply_affine(t1.representative.terms, ((2, 1), (1, 1)), (3, -2), -1))
    other = expected_torsion(4, "Sprime")
    size = len(t1.representative.terms)
    sizes = count_calls(monkeypatch, newton_polytope, lambda support_set: len(support_set.points))
    assert compare_torsion(t1, t2).kind == "Equivalent"
    assert sizes == [size, size]
    sizes.clear()
    assert compare_torsion(t1, other).reason == "edge_length_multiset"
    assert sizes == [size, len(other.representative.terms)]


# -- unit and coordinate ambiguities -------------------------------------------


def test_unit_multiple_is_equivalent_with_identity_witness():
    p = LaurentPoly(2, {(1, 0): 2, (0, 3): -1, (2, 2): 1})
    unit = LaurentPoly.monomial((-2, 5), -1)
    verdict = compare_torsion(TorsionClass(p), TorsionClass(unit * p))
    assert verdict.kind == "Equivalent"
    assert verdict.witness.matrix == ((1, 0), (0, 1))
    assert verdict.witness.sign == 1


def test_variable_swap_is_equivalent():
    p = {(1, 0): 1, (0, 3): 2, (2, 1): 1}
    swapped = {(e1, e0): c for (e0, e1), c in p.items()}
    verdict = compare_torsion(classify(p), classify(swapped))
    assert verdict.kind == "Equivalent"
    assert verdict.witness.matrix in (((0, 1), (1, 0)), ((0, -1), (-1, 0)))


def test_rank_mismatch_is_not_equivalent():
    verdict = compare_torsion(
        TorsionClass(LaurentPoly.one(1)), TorsionClass(LaurentPoly.one(2))
    )
    assert verdict.kind == "NotEquivalent"
    assert verdict.reason == "rank"


def test_zero_classes():
    zero = TorsionClass(LaurentPoly.zero(2))
    one = TorsionClass(LaurentPoly.one(2))
    assert compare_torsion(zero, zero).kind == "Equivalent"
    assert compare_torsion(zero, one).kind == "NotEquivalent"


# -- soundness / completeness -------------------------------------------------


def test_witnesses_are_sound():
    rng = random.Random(89)
    checked = 0
    for _ in range(150):
        t1 = TorsionClass(random_laurent(rng, nonzero=True))
        U = random_unimodular(rng)
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        sign = rng.choice((1, -1))
        t2 = classify(apply_affine(t1.representative.terms, U, v, sign))
        verdict = compare_torsion(t1, t2)
        assert verdict.kind == "Equivalent"
        image = apply_witness(t1, verdict.witness)
        assert image.terms == t2.representative.terms
        checked += 1
    assert checked == 150


def test_completeness_on_degenerate_supports():
    rng = random.Random(97)
    for _ in range(100):
        shape = rng.random()
        if shape < 0.4:
            # collinear support along a random primitive direction
            d = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)])
            terms = {
                (t * d[0], t * d[1]): rng.choice((-2, -1, 1, 2))
                for t in range(rng.randint(1, 5))
            }
        else:
            terms = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.choice((-2, 1))}
        t1 = classify(terms)
        U = random_unimodular(rng)
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        sign = rng.choice((1, -1))
        t2 = classify(apply_affine(t1.representative.terms, U, v, sign))
        assert compare_torsion(t1, t2).kind == "Equivalent"


def test_rank_one_and_zero_paths():
    rng = random.Random(101)
    for _ in range(60):
        terms = {
            (rng.randint(-5, 5),): rng.choice((-3, -1, 1, 2))
            for _ in range(rng.randint(1, 5))
        }
        t1 = TorsionClass(LaurentPoly(1, terms))
        flip = rng.choice((1, -1))
        shift = rng.randint(-4, 4)
        sign = rng.choice((1, -1))
        t2 = TorsionClass(
            LaurentPoly(
                1,
                apply_affine(t1.representative.terms, ((flip,),), (shift,), sign),
            )
        )
        verdict = compare_torsion(t1, t2)
        assert verdict.kind == "Equivalent"
    c = TorsionClass(LaurentPoly(0, {(): 4}))
    assert compare_torsion(c, c).kind == "Equivalent"
    assert compare_torsion(c, TorsionClass(LaurentPoly(0, {(): 5}))).kind == (
        "NotEquivalent"
    )


LINE_3_M2 = {(0, 0): 1, (3, -2): 2, (9, -6): -1}  # parameters 0, 1, 3 on (3, -2)


@pytest.mark.parametrize(
    "rank, first, second, witness",
    [
        (0, {(): 4}, {(): 4}, ((), (), 1)),
        # rank 1, both orientations
        (1, {(0,): 1, (1,): 2, (3,): -3}, {(5,): 1, (6,): 2, (8,): -3},
         (((1,),), (0,), 1)),
        (1, {(0,): 1, (1,): 2, (3,): -3}, {(0,): -3, (2,): 2, (3,): 1},
         (((-1,),), (3,), -1)),
        # palindromes: both orientations match, the forward map comes first
        (1, {(0,): 1, (1,): 2, (2,): 1}, {(4,): 1, (5,): 2, (6,): 1},
         (((1,),), (0,), 1)),
        (2, {(0, 0): 1, (3, -2): -2, (6, -4): 1}, {(0, 0): 1, (1, 0): -2, (2, 0): 1},
         (((-1, -2), (2, 3)), (8, -12), 1)),
        # a point in rank 2
        (2, {(2, -1): 3}, {(-4, 7): -3}, (((1, 0), (0, 1)), (0, 0), 1)),
        # collinear along (3, -2): reversed on its own line, then onto (1, 0)
        # in both orientations
        (2, LINE_3_M2, {(0, 0): 1, (-3, 2): 2, (-9, 6): -1},
         (((-1, 0), (0, -1)), (9, 6), -1)),
        (2, LINE_3_M2, {(0, 0): 1, (1, 0): 2, (3, 0): -1},
         (((-1, -2), (2, 3)), (12, -18), 1)),
        (2, LINE_3_M2, {(3, 0): 1, (2, 0): 2, (0, 0): -1},
         (((1, 2), (-2, -3)), (-9, 18), -1)),
    ],
)
def test_low_dimensional_witnesses_are_pinned(rank, first, second, witness):
    t1, t2 = classify(first, rank), classify(second, rank)
    verdict = compare_torsion(t1, t2)
    assert verdict.kind == "Equivalent"
    w = verdict.witness
    assert (w.matrix, w.translation, w.sign) == witness
    assert apply_witness(t1, w).terms == t2.representative.terms


def test_symmetry_of_verdicts():
    rng = random.Random(103)
    for _ in range(80):
        t1 = TorsionClass(random_laurent(rng, nonzero=True))
        if rng.random() < 0.5:
            U = random_unimodular(rng)
            t2 = classify(apply_affine(t1.representative.terms, U, (0, 1), 1))
        else:
            t2 = TorsionClass(random_laurent(rng, nonzero=True))
        forward = compare_torsion(t1, t2)
        backward = compare_torsion(t2, t1)
        assert forward.kind == backward.kind


def test_never_inconclusive_in_low_rank():
    rng = random.Random(107)
    for _ in range(100):
        rank = rng.choice((1, 2))
        t1 = TorsionClass(random_laurent(rng, rank=rank, nonzero=True))
        t2 = TorsionClass(random_laurent(rng, rank=rank, nonzero=True))
        assert compare_torsion(t1, t2).kind != "Inconclusive"


def test_inconclusive_in_higher_rank_when_battery_passes():
    p = TorsionClass(LaurentPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1}))
    q = TorsionClass(LaurentPoly(3, {(0, 0, 0): 1, (0, 1, 0): 1}))
    assert compare_torsion(p, q).kind == "Inconclusive"
    r = TorsionClass(LaurentPoly(3, {(0, 0, 0): 2, (0, 1, 0): 1}))
    assert compare_torsion(p, r).kind == "NotEquivalent"


def _random_map(rng, rank):
    if rank == 2:
        return random_unimodular(rng)
    return ((rng.choice((1, -1)),),) if rank == 1 else ()


def _on_random_points(rng, rank, coeffs):
    """The coefficients on distinct random points in [-3, 3]^rank (at most
    7^rank of them, as for any class from ``random_laurent``)."""
    points = set()
    while len(points) < len(coeffs):
        points.add(tuple(rng.randint(-3, 3) for _ in range(rank)))
    return dict(zip(points, coeffs))


def _random_pair(rng):
    """Two classes of rank 0 to 2: an affine image of the first, its sign
    flip alone, its coefficients on other points, a zero class, a class of
    another rank, or an unrelated one."""
    rank = rng.randint(0, 2)
    t1 = TorsionClass(random_laurent(rng, rank=rank, nonzero=True, max_terms=8))
    terms = t1.representative.terms
    kind = rng.choice(("image", "sign", "moved", "zero", "rank", "random"))
    if kind == "image":
        v = tuple(rng.randint(-4, 4) for _ in range(rank))
        sign = rng.choice((1, -1))
        t2 = classify(apply_affine(terms, _random_map(rng, rank), v, sign), rank)
    elif kind == "sign":
        t2 = classify({e: -c for e, c in terms.items()}, rank)
    elif kind == "moved":
        t2 = classify(_on_random_points(rng, rank, list(terms.values())), rank)
    elif kind == "zero":
        t2 = classify({}, rank)
    elif kind == "rank":
        t2 = TorsionClass(random_laurent(rng, rank=(rank + 1) % 3, nonzero=True))
    else:
        t2 = TorsionClass(random_laurent(rng, rank=rank, nonzero=True, max_terms=8))
    return (t1, t2) if rng.random() < 0.5 else (t2, t1)


def test_passed_hulls_give_the_same_verdict():
    rng = random.Random(109)
    reasons = set()
    for _ in range(400):
        t1, t2 = _random_pair(rng)
        hulls = tuple(
            None if t.is_zero else newton_polytope(support(t)) for t in (t1, t2)
        )
        verdict = compare_torsion(t1, t2)
        assert compare_torsion(t1, t2, hulls) == verdict
        reasons.add(verdict.reason or verdict.kind)
    assert {
        "Equivalent",
        "rank",
        "support_size",
        "coefficient_multiset",
        "edge_length_multiset",
        "no hull-compatible map matches coefficients",
    } <= reasons


def test_rank_three_pairs_stop_at_the_dimension():
    """Pairs with one coefficient multiset: rank 3 compares only the affine
    dimensions, so the verdict is Inconclusive or hull_dimension."""
    rng = random.Random(113)
    seen = set()
    for _ in range(100):
        t1 = TorsionClass(random_laurent(rng, rank=3, nonzero=True, max_terms=6))
        sign = rng.choice((1, -1))
        coeffs = [sign * c for c in t1.representative.terms.values()]
        t2 = classify(_on_random_points(rng, 3, coeffs), 3)
        verdict = compare_torsion(t1, t2)
        assert verdict.kind == "Inconclusive" or verdict.reason == "hull_dimension"
        seen.add(verdict.kind)
    assert seen == {"Inconclusive", "NotEquivalent"}


def test_matching_battery_but_no_map():
    # same square hull and coefficient multiset, incompatible labelling
    p1 = classify({(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    p2 = classify({(0, 0): 1, (1, 0): 2, (0, 1): 4, (1, 1): 3})
    verdict = compare_torsion(p1, p2)
    assert verdict.kind == "NotEquivalent"
    assert verdict.reason == "no hull-compatible map matches coefficients"


# -- early-exit matching against the whole-dict comparison ---------------------


def _match_by_dicts(source, target, U, v):
    """The mapped source compared with the target as whole dicts, either sign."""
    image = {
        tuple(sum(U[i][j] * e[j] for j in range(len(e))) + v[i] for i in range(len(v))): c
        for e, c in source.items()
    }
    if image == target:
        return 1
    if {k: -c for k, c in image.items()} == target:
        return -1
    return None


@st.composite
def match_cases(draw):
    """A source, a unimodular map, and the source's image under the map times
    either sign, then perhaps altered: one coefficient changed, one point moved
    off the image, one term dropped or one added (unequal support sizes)."""
    rank = draw(st.integers(0, 2))
    point = st.tuples(*[st.integers(-4, 4)] * rank)
    coeff = st.integers(-3, 3).filter(bool)
    source = draw(st.dictionaries(point, coeff, min_size=1, max_size=10))
    if rank == 2:
        U = random_unimodular(random.Random(draw(st.integers(0, 10**6))))
    else:
        U = ((draw(st.sampled_from((1, -1))),),) if rank == 1 else ()
    v = tuple(draw(st.integers(-5, 5)) for _ in range(rank))
    sign = draw(st.sampled_from((1, -1)))
    target = apply_affine(source, U, v, sign)
    keys = sorted(target)
    change = draw(st.sampled_from(("none", "coefficient", "move", "drop", "add")))
    key = draw(st.sampled_from(keys))
    if change == "coefficient":
        target[key] += draw(st.sampled_from((-2, -1, 1, 2)))
        if not target[key]:
            del target[key]
    elif change == "move" and rank:
        target[tuple(x + 100 for x in key)] = target.pop(key)
    elif change == "drop":
        del target[key]
    elif change == "add" and rank:
        target[tuple(x + 100 for x in key)] = draw(coeff)
    return rank, source, target, U, v


def _holder(rank, terms):
    return SimpleNamespace(representative=LaurentPoly(rank, terms))


@settings(max_examples=500, deadline=None)
@given(match_cases())
def test_match_agrees_with_the_whole_dict_comparison(case):
    rank, source, target, U, v = case
    assert _match(_holder(rank, source), _holder(rank, target), U, v) == (
        _match_by_dicts(source, target, U, v)
    )


def test_match_reads_the_sign_from_the_first_term():
    source = {(0, 0): 1, (1, 0): -2, (0, 1): 3}
    U, v = ((0, 1), (1, 0)), (2, -1)
    image = apply_affine(source, U, v)
    negated = {e: -c for e, c in image.items()}
    assert _match(_holder(2, source), _holder(2, image), U, v) == 1
    assert _match(_holder(2, source), _holder(2, negated), U, v) == -1
    # the first term, (0, 0) -> (2, -1), says +1 and every other term -1
    mixed = dict(negated)
    mixed[(2, -1)] = 1
    assert _match(_holder(2, source), _holder(2, mixed), U, v) is None
