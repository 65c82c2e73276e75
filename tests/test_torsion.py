import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import (
    AbelianizationMap,
    LaurentPoly,
    Presentation,
    TorsionClass,
    TorsionInput,
    Word,
    abelianize_presentation,
    apply_witness,
    compare_torsion,
    det_bareiss,
    det_cofactor,
    determinant,
    expected_torsion,
    fox_derivative,
    fox_matrix,
    lyon_input,
    parse_word,
    sutured_torsion,
    torsion_normal_form,
)
from foxtorsion.errors import NotBalanced, UnknownGenerator

from helpers import (
    count_determinant_calls,
    random_laurent,
    tietze_enlarge,
)


def poly2(terms):
    return LaurentPoly(2, terms)


ONE_PLUS_U2_U4 = poly2({(0, 0): 1, (0, 2): 1, (0, 4): 1})


# -- fox matrix ---------------------------------------------------------------


def test_fox_matrix_surface_zero_rows():
    matrix = fox_matrix(lyon_input(0, "S"))
    assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
    # generators are ordered (a, b, x): the x-row sees neither surface word
    assert matrix[2][0].is_zero
    assert matrix[2][1].is_zero
    assert matrix[2][2] == ONE_PLUS_U2_U4  # image of 1 + x + x^2 under x -> u^2


def test_fox_matrix_primed_surface_zero_rows():
    matrix = fox_matrix(lyon_input(0, "Sprime"))
    assert matrix[2][0].is_zero
    assert matrix[2][1].is_zero
    # in the (b, x) basis the relator column is literally 1 + x + x^2
    assert matrix[2][2] == poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})


def test_fox_matrix_single_generator_power():
    pres = Presentation(("g",))
    phi = abelianize_presentation(pres)
    inp = TorsionInput(pres, (parse_word("g^4", pres.generators),), phi)
    matrix = fox_matrix(inp)
    assert matrix == [[LaurentPoly(1, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})]]


def test_fox_matrix_not_balanced():
    pres = Presentation(("a", "b"))
    phi = abelianize_presentation(pres)
    inp = TorsionInput(pres, (parse_word("a", pres.generators),), phi)
    with pytest.raises(NotBalanced):
        fox_matrix(inp)


FOX_GENS = ("a", "b", "c")


@st.composite
def fox_inputs(draw):
    """A balanced input over a, b, c of random reduced words, with a map of
    rank 0-3.  Images are drawn from a pool of at most three small vectors
    and zero, so generators often share an image or map to 0; distinct
    prefixes then land on one exponent vector and their terms cancel."""
    letters = st.lists(
        st.tuples(st.sampled_from(FOX_GENS), st.sampled_from((1, -1))), max_size=16
    )
    words = [Word(draw(letters)) for _ in FOX_GENS]
    relators = draw(st.integers(0, len(FOX_GENS)))
    rank = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.integers(-1, 1)] * rank)
    pool = draw(st.lists(vectors, min_size=1, max_size=3)) + [(0,) * rank]
    images = {g: draw(st.sampled_from(pool)) for g in FOX_GENS}
    pres = Presentation(FOX_GENS, words[:relators])
    return TorsionInput(pres, words[relators:], AbelianizationMap(rank, images))


@settings(max_examples=200, deadline=None)
@given(fox_inputs())
def test_fox_matrix_maps_each_derivative(inp):
    phi = inp.abelianization
    words = inp.inclusion_words + inp.presentation.relators
    for g, row in zip(inp.presentation.generators, fox_matrix(inp)):
        for w, entry in zip(words, row):
            expected = phi(fox_derivative(w, g))
            assert entry == expected
            # the same terms in the same order, so reports stay byte-identical
            assert list(entry.terms.items()) == list(expected.terms.items())


def test_torsion_input_checks_inclusion_words():
    pres = Presentation(("a", "b"))
    phi = abelianize_presentation(pres)
    foreign = parse_word("z", ("z",))
    with pytest.raises(UnknownGenerator):
        TorsionInput(pres, (foreign, foreign), phi)


# -- determinants -------------------------------------------------------------


def test_determinant_identity():
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    matrix = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert determinant(matrix) == one


def test_determinant_of_surface_matrix():
    tclass = torsion_normal_form(determinant(fox_matrix(lyon_input(0, "S"))))
    expected = TorsionClass(poly2({(1, 0): 1, (0, 6): 1}) * ONE_PLUS_U2_U4)
    assert tclass == expected


def test_two_generator_block_determinant():
    # the 2x2 block of surface-word derivatives, abelianized in free (a, b)
    gens = ("a", "b", "x")
    alpha = parse_word("(a b^-1)^1 b^2", gens)
    beta = parse_word("b a (b a^-1)^1", gens)
    free_ab = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1)}, ("a", "b"))
    block = [
        [free_ab(fox_derivative(w, g)) for w in (alpha, beta)] for g in ("a", "b")
    ]
    tclass = torsion_normal_form(determinant(block))
    assert tclass == TorsionClass(poly2({(0, 0): 1, (1, 2): 1}))  # 1 + a b^2


def test_sutured_torsion_lyon_values():
    assert sutured_torsion(lyon_input(0, "S")) == TorsionClass(
        poly2({(1, 0): 1, (0, 6): 1}) * ONE_PLUS_U2_U4
    )
    assert sutured_torsion(lyon_input(-1, "S")) == TorsionClass(
        poly2({(1, 0): 1, (0, 3): 1}) * ONE_PLUS_U2_U4
    )
    assert sutured_torsion(lyon_input(-1, "Sprime")) == TorsionClass(
        poly2({(0, 0): 1, (1, 0): 1}) * poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    )


def test_cofactor_equals_bareiss_randomized():
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(1, 5)
        matrix = [
            [random_laurent(rng, max_terms=3, exp_span=2, coeff_span=3) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_cofactor(matrix) == det_bareiss(matrix)


def test_determinant_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        determinant([[LaurentPoly.one(1), LaurentPoly.one(2)]])


@pytest.mark.parametrize("det", [det_cofactor, det_bareiss, determinant])
def test_empty_matrix_has_no_ring_rank(det):
    with pytest.raises(ValueError, match="0x0 matrix has no ring rank"):
        det([])


@st.composite
def unit_rich_matrices(draw):
    """Square Laurent matrices of dimension 1-7 in rank 0-2, a third of whose
    entries are planted units +-(monomial), so that rows and columns often
    hold several; some get a zero row, or a row that is a unit multiple of
    another, which makes them singular."""
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    unit = st.builds(LaurentPoly.monomial, exps, st.sampled_from((1, -1)))
    poly = st.builds(
        LaurentPoly,
        st.just(rank),
        st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
    )
    entry = st.one_of(st.just(LaurentPoly.zero(rank)), unit, poly)
    matrix = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("general", "zero_row", "dependent_row")))
    if shape == "zero_row":
        matrix[draw(st.integers(0, n - 1))] = [LaurentPoly.zero(rank)] * n
    elif shape == "dependent_row" and n > 1:
        src, dst = draw(st.permutations(range(n)))[:2]
        u = draw(unit)
        matrix[dst] = [u * e for e in matrix[src]]
    return matrix


@settings(max_examples=150, deadline=None)
@given(unit_rich_matrices())
def test_determinant_paths_agree_exactly(matrix):
    expected = det_cofactor(matrix)
    assert det_bareiss(matrix) == expected
    assert determinant(matrix) == expected


def _nonunit_matrix(rng, n):
    """n x n entries 2 + x^e, or 3 where e = 0: none is a unit."""
    return [
        [poly2({(0, 0): 2, (rng.randint(-2, 2), rng.randint(-2, 2)): 1}) for _ in range(n)]
        for _ in range(n)
    ]


def test_four_by_four_unit_reduces_to_three_by_three(monkeypatch):
    matrix = _nonunit_matrix(random.Random(67), 4)
    # the one unit, -a^2 u^-1 at (2, 1): odd p + q and a negative coefficient
    matrix[2][1] = LaurentPoly.monomial((2, -1), -1)
    expected = det_cofactor(matrix)
    dims = count_determinant_calls(monkeypatch)
    assert determinant(matrix) == expected
    assert dims == {"det_cofactor": [3], "det_bareiss": []}


def test_matrix_without_units_reaches_bareiss_whole(monkeypatch):
    matrix = _nonunit_matrix(random.Random(71), 5)
    expected = det_cofactor(matrix)
    dims = count_determinant_calls(monkeypatch)
    assert determinant(matrix) == expected
    assert dims == {"det_cofactor": [], "det_bareiss": [5]}


# -- normal form and duality --------------------------------------------------


def test_normal_form_strips_units():
    # -a^-1 u^3 (1 + u^2) normalizes to 1 + u^2
    p = poly2({(-1, 3): -1, (-1, 5): -1})
    assert torsion_normal_form(p).representative == poly2({(0, 0): 1, (0, 2): 1})


def test_normal_form_zero():
    zero_class = torsion_normal_form(LaurentPoly.zero(2))
    assert zero_class.is_zero
    assert zero_class == TorsionClass(LaurentPoly.zero(2))


def test_normal_form_fixed_point():
    p = poly2({(1, 0): 1, (0, 6): 1}) * ONE_PLUS_U2_U4
    assert torsion_normal_form(p).representative == p


def test_unit_invariance_randomized():
    rng = random.Random(53)
    for _ in range(200):
        p = random_laurent(rng, nonzero=True)
        unit = LaurentPoly.monomial(
            (rng.randint(-4, 4), rng.randint(-4, 4)), rng.choice((1, -1))
        )
        assert torsion_normal_form(unit * p) == torsion_normal_form(p)


def test_column_permutation_leaves_class_unchanged():
    rng = random.Random(59)
    matrix = fox_matrix(lyon_input(1, "S"))
    base = torsion_normal_form(determinant(matrix))
    for _ in range(5):
        cols = list(range(3))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in matrix]
        assert torsion_normal_form(determinant(permuted)) == base


def test_reflect_examples():
    symmetric = TorsionClass(
        poly2({(1, 0): 1, (0, 3): 1}) * poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    )  # (b + x^3)(1 + x + x^2)
    assert symmetric.is_centrally_symmetric()
    assert TorsionClass(LaurentPoly.monomial((3, -2), 5)).is_centrally_symmetric()
    assert not TorsionClass(
        poly2({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    ).is_centrally_symmetric()


def test_reflect_is_involution():
    rng = random.Random(61)
    for _ in range(100):
        t = TorsionClass(random_laurent(rng))
        assert t.reflect().reflect() == t


def test_family_coefficient_sums():
    for n in range(-1, 7):
        total = sutured_torsion(lyon_input(n, "S")).coefficient_sum()
        assert total == abs(6 + 12 * n)


# -- Tietze invariance --------------------------------------------------------


@pytest.mark.parametrize("surface", ["S", "Sprime"])
@pytest.mark.parametrize("seed", range(9101, 9113))
def test_torsion_is_invariant_under_tietze_moves(seed, surface):
    rng = random.Random(seed)
    n, added = rng.randint(-1, 5), rng.randint(1, 4)
    enlarged = tietze_enlarge(rng, lyon_input(n, surface), added)
    assert len(enlarged.presentation.generators) == 3 + added
    got = sutured_torsion(enlarged)
    expected = expected_torsion(n, surface)
    verdict = compare_torsion(got, expected)
    assert verdict.kind == "Equivalent"
    assert apply_witness(got, verdict.witness) == expected.representative


def test_tietze_enlarged_matrix_skips_bareiss(monkeypatch):
    enlarged = tietze_enlarge(random.Random(9121), lyon_input(2, "Sprime"), 4)
    matrix = fox_matrix(enlarged)
    assert len(matrix) == 7
    dims = count_determinant_calls(monkeypatch)
    determinant(matrix)
    assert dims["det_bareiss"] == []
    assert len(dims["det_cofactor"]) == 1 and dims["det_cofactor"][0] <= 3


def test_family_matrix_reaches_cofactor_unreduced(monkeypatch):
    dims = count_determinant_calls(monkeypatch)
    sutured_torsion(lyon_input(4, "S"))
    assert dims == {"det_cofactor": [3], "det_bareiss": []}
