import random

from foxtorsion import (
    LaurentPoly,
    TorsionClass,
    apply_witness,
    compare_torsion,
    expected_torsion,
)

from helpers import apply_affine, count_hull_builds, random_laurent, random_unimodular


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
    sizes = count_hull_builds(monkeypatch)
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


def test_matching_battery_but_no_map():
    # same square hull and coefficient multiset, incompatible labelling
    p1 = classify({(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    p2 = classify({(0, 0): 1, (1, 0): 2, (0, 1): 4, (1, 1): 3})
    verdict = compare_torsion(p1, p2)
    assert verdict.kind == "NotEquivalent"
    assert verdict.reason == "no hull-compatible map matches coefficients"
