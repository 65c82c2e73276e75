"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is frozen from an exact source (a printed product,
a closed form evaluated by exact division, or an independent brute-force
recomputation); comparisons are exact integer equality after normalization.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb

from foxtorsion import (
    AbelianizationMap,
    LaurentPoly,
    TorsionClass,
    compare_torsion,
    newton_polytope,
    support,
    sutured_torsion,
)
from foxtorsion.equivalence import apply_witness
from foxtorsion.groupring import GroupRingElement, fox_derivative
from foxtorsion.lyon import LyonCase, lyon_input, lyon_surface_words, surface_block_poly
from foxtorsion.polytope import polygon_affine_equivalent
from foxtorsion.sfh import tensor_ranks, torus_sfh
from foxtorsion.torsion import (
    det_bareiss,
    det_cofactor,
    determinant,
    torsion_normal_form,
)
from foxtorsion.words import Word
from foxtorsion.cli import main

from helpers import apply_affine, random_laurent, random_unimodular, random_word


@contextmanager
def criterion(number, seconds, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= seconds:
        print(f"ACCEPTANCE {number}: FAIL  {description}  (over budget: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {seconds}s ({elapsed:.2f}s)")
    print(f"ACCEPTANCE {number}: PASS  {description}  ({elapsed:.3f}s < {seconds}s)")


def poly2(terms):
    return LaurentPoly(2, terms)


THREE_U = poly2({(0, 0): 1, (0, 2): 1, (0, 4): 1})  # 1 + u^2 + u^4
THREE_X = poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})  # 1 + x + x^2


def test_criterion_1_first_surface_regression(capsys):
    with criterion(1, 1.0, "family --n 0 --surface S reproduces (a+u^6)(1+u^2+u^4)"):
        code = main(["family", "--n", "0", "--surface", "S"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        expected = TorsionClass(poly2({(1, 0): 1, (0, 6): 1}) * THREE_U)
        got = {tuple(e): c for e, c in report["torsion"]["terms"]}
        assert got == dict(expected.representative.terms)
        assert report["oracle_match"] is True


def test_criterion_2_primed_surface_regression():
    with criterion(2, 1.0, "primed torsion at 0 is (b+x^3)(1+x+x^2), centrally symmetric"):
        computed = sutured_torsion(lyon_input(0, "Sprime"))
        assert computed == TorsionClass(poly2({(1, 0): 1, (0, 3): 1}) * THREE_X)
        assert computed.is_centrally_symmetric()


def test_criterion_3_six_by_three_products():
    with criterion(3, 2.0, "both torsions at parameter 1 match the printed products"):
        first = poly2(
            {(3, 0): 1, (1, 3): 1, (2, 3): 1, (1, 6): 1, (2, 6): 1, (0, 9): 1}
        )
        assert sutured_torsion(lyon_input(1, "S")) == TorsionClass(first * THREE_U)
        first_primed = poly2(
            {(5, 0): 1, (1, 3): 1, (2, 3): 1, (3, 3): 1, (4, 3): 1, (0, 6): 1}
        )
        assert sutured_torsion(lyon_input(1, "Sprime")) == TorsionClass(
            first_primed * THREE_X
        )


def test_criterion_4_minus_one_pair():
    with criterion(4, 1.0, "parameter -1: values, 1:4 vs 1:2 parallelograms, inequivalent"):
        t1 = sutured_torsion(lyon_input(-1, "S"))
        t2 = sutured_torsion(lyon_input(-1, "Sprime"))
        assert t1 == TorsionClass(poly2({(1, 0): 1, (0, 3): 1}) * THREE_U)
        assert t2 == TorsionClass(poly2({(0, 0): 1, (1, 0): 1}) * THREE_X)
        h1 = newton_polytope(support(t1))
        h2 = newton_polytope(support(t2))
        assert h1.edge_length_multiset() == (1, 1, 4, 4)
        assert h2.edge_length_multiset() == (1, 1, 2, 2)
        assert h1.vertex_count == h2.vertex_count == 4
        assert polygon_affine_equivalent(h1, h2) is False


def test_criterion_5_inequivalence_sweep():
    with criterion(5, 10.0, "NotEquivalent verdicts for parameters -1..5"):
        for n in range(-1, 6):
            verdict = compare_torsion(
                sutured_torsion(lyon_input(n, "S")),
                sutured_torsion(lyon_input(n, "Sprime")),
            )
            assert verdict.kind == "NotEquivalent", n


def test_criterion_6_coefficient_sum_law():
    with criterion(6, 5.0, "coefficient sums follow 6+12n (absolute value at -1)"):
        for surface in ("S", "Sprime"):
            assert sutured_torsion(lyon_input(-1, surface)).coefficient_sum() == 6
            for n in range(0, 7):
                total = sutured_torsion(lyon_input(n, surface)).coefficient_sum()
                assert total == 6 + 12 * n, (n, surface)


def test_criterion_7_recurrence_closed_form_and_primed_block():
    with criterion(7, 5.0, "block recurrence = closed form (-1..8); primed block agrees"):
        sa = poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 2): 1})
        sb = poly2({(0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1})
        a = LaurentPoly.monomial((1, 0))
        b = LaurentPoly.monomial((0, 1))
        free_ab = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1)}, ("a", "b"))
        recur = poly2({(0, 1): -1, (0, 2): -1})
        for n in range(-1, 9):
            # independent closed-form evaluation by exact division
            numerator = b * (
                LaurentPoly.monomial((n + 1, 0)) * sa
                - LaurentPoly.monomial((0, n + 1)) * sb
            )
            closed = numerator.exact_div(a - b)
            assert closed == recur, n
            assert torsion_normal_form(recur).representative == surface_block_poly(n)
            recur = a * recur + LaurentPoly.monomial((0, n + 2)) * sb
        for n in range(-1, 6):
            words = lyon_surface_words(LyonCase(n, "Sprime"))
            block = [
                [free_ab(fox_derivative(w, g)) for w in words] for g in ("a", "b")
            ]
            primed = torsion_normal_form(det_cofactor(block))
            assert primed.representative == surface_block_poly(n), n


def test_criterion_8_torus_rank_tables():
    with criterion(8, 1.0, "solid-torus ranks 2, 3, tensor 6; binomial pattern"):
        two = torus_sfh(2, 2)
        three = torus_sfh(3, 2)
        assert sum(two.values()) == 2
        assert sum(three.values()) == 3
        assert sum(tensor_ranks(two, three).values()) == 6
        for p in range(1, 5):
            for k in range(0, 6):
                table = torus_sfh(p, 2 * k + 2)
                direct = sum(comb(k, i // p) for i in range(p * (k + 1)))
                assert sum(table.values()) == direct == p * 2**k
                for i in range(p * (k + 1)):
                    assert table.get(i, 0) == comb(k, i // p)


def test_criterion_9_property_suites():
    with criterion(9, 60.0, "determinant oracle, unit invariance, Fox identity, completeness"):
        rng = random.Random(20260810)

        for _ in range(200):
            n = rng.randint(1, 5)
            matrix = [
                [random_laurent(rng, max_terms=3, exp_span=2, coeff_span=3) for _ in range(n)]
                for _ in range(n)
            ]
            assert det_cofactor(matrix) == det_bareiss(matrix)
            assert determinant(matrix) == det_cofactor(matrix)

        for _ in range(200):
            p = random_laurent(rng, nonzero=True)
            unit = LaurentPoly.monomial(
                (rng.randint(-4, 4), rng.randint(-4, 4)), rng.choice((1, -1))
            )
            assert torsion_normal_form(unit * p) == torsion_normal_form(p)

        names = ("a", "b", "c")
        one = GroupRingElement.one()
        for _ in range(500):
            w = random_word(rng, names)
            total = GroupRingElement.zero()
            for g in names:
                gminus1 = GroupRingElement.from_word(Word(((g, 1),))) - one
                total = total + fox_derivative(w, g) * gminus1
            assert total == GroupRingElement.from_word(w) - one

        for _ in range(100):
            t1 = TorsionClass(random_laurent(rng, nonzero=True))
            U = random_unimodular(rng)
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            sign = rng.choice((1, -1))
            t2 = TorsionClass(
                LaurentPoly(2, apply_affine(t1.representative.terms, U, v, sign))
            )
            verdict = compare_torsion(t1, t2)
            assert verdict.kind == "Equivalent"
            assert apply_witness(t1, verdict.witness).terms == t2.representative.terms


def test_criterion_10_hexagon_invariants():
    with criterion(10, 5.0, "hexagon edge multisets {n,1,4} and {n,1,2} for 1..5"):
        for n in range(1, 6):
            hull = newton_polytope(support(sutured_torsion(lyon_input(n, "S"))))
            assert hull.edge_length_multiset() == tuple(sorted((n, 1, 4, n, 1, 4)))
            primed = newton_polytope(
                support(sutured_torsion(lyon_input(n, "Sprime")))
            )
            assert primed.edge_length_multiset() == tuple(sorted((n, 1, 2, n, 1, 2)))
