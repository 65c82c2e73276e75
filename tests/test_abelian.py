import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import (
    AbelianizationMap,
    GroupRingElement,
    LaurentPoly,
    Presentation,
    Word,
    abelianize_presentation,
    integer_determinant,
    integer_rank,
    parse_word,
    smith_normal_form,
)
from foxtorsion.errors import (
    InexactDivision,
    InvalidBasis,
    NontrivialTorsion,
    RankMismatch,
    UnknownGenerator,
)

from helpers import random_laurent, random_word


# -- Smith normal form --------------------------------------------------------


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_smith_normal_form_randomized():
    rng = random.Random(5)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert abs(integer_determinant(U)) == 1
        assert abs(integer_determinant(V)) == 1
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        for d1, d2 in zip(diag, diag[1:]):
            assert d1 >= 0
            if d1 == 0:
                assert d2 == 0
            else:
                assert d2 % d1 == 0


def snf_rank(matrix):
    """Reference rank: the number of nonzero Smith normal form diagonal entries."""
    D, _, _ = smith_normal_form(matrix)
    return sum(1 for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i])


@st.composite
def integer_matrices(draw):
    """Tall, wide and square matrices, some built as a product through a
    narrower middle so that their rank is deficient, with entries up to 10^30."""
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 10))
    bound = draw(st.sampled_from((2, 9, 10**6, 10**30)))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(n)] for _ in range(m)]
    k = draw(st.integers(0, min(m, n) - 1))
    B = [[draw(entry) for _ in range(k)] for _ in range(m)]
    C = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_rank_matches_smith_normal_form(matrix):
    assert integer_rank(matrix) == snf_rank(matrix)
    assert integer_rank(iter(matrix)) == snf_rank(matrix)


def test_integer_rank_edge_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[]]) == 0
    assert integer_rank([[2, 4], [3, 6], [10**40, 2 * 10**40]]) == 1
    # rows after full rank are not read
    assert integer_rank(iter([[1, 0], [0, 1], None])) == 2
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [3]])


# -- abelianization -----------------------------------------------------------

LYON_PRES = Presentation(("a", "b", "x"), ("x^3 b^-2 a^-2",))
LYON_BASIS = AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3), "x": (0, 2)}, ("a", "u"))


def test_user_basis_accepted_verbatim():
    result = abelianize_presentation(LYON_PRES, LYON_BASIS)
    assert result is LYON_BASIS
    assert result.rank == 2


def test_free_presentation_gets_standard_basis():
    pres = Presentation(("x", "b"))
    phi = abelianize_presentation(pres)
    assert phi.rank == 2
    assert phi.images == {"x": (1, 0), "b": (0, 1)}
    assert phi.basis_names == ("x", "b")


def test_torsion_homology_rejected():
    with pytest.raises(NontrivialTorsion):
        abelianize_presentation(Presentation(("a",), ("a^2",)))


def test_snf_basis_kills_relators():
    rng = random.Random(23)
    names = ("a", "b", "c")
    for _ in range(50):
        relators = [random_word(rng, names) for _ in range(rng.randint(0, 2))]
        pres = Presentation(names, relators)
        try:
            phi = abelianize_presentation(pres)
        except NontrivialTorsion:
            continue
        zero = (0,) * phi.rank
        for rel in pres.relators:
            assert phi.word_exponents(rel) == zero


def test_invalid_basis_violating_relator():
    bad = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1), "x": (0, 0)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_invalid_basis_not_generating():
    # images lie in 2Z x Z, relator condition holds but index is 2
    bad = AbelianizationMap(2, {"a": (2, 0), "b": (-2, 3), "x": (0, 2)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_invalid_basis_missing_generator():
    bad = AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_duplicate_basis_names_rejected():
    with pytest.raises(InvalidBasis):
        AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3), "x": (0, 2)}, ("a", "a"))


def test_apply_map_examples():
    gens = ("a", "b", "x")
    e = GroupRingElement(
        {
            Word(()): 1,
            parse_word("x", gens): 1,
            parse_word("x^2", gens): 1,
        }
    )
    assert LYON_BASIS(e) == LaurentPoly(2, {(0, 0): 1, (0, 2): 1, (0, 4): 1})
    assert LYON_BASIS(Word(())) == LaurentPoly.one(2)
    assert LYON_BASIS(parse_word("a b^2", gens)) == LaurentPoly.monomial((-1, 6))


def test_apply_map_unknown_generator():
    with pytest.raises(UnknownGenerator):
        LYON_BASIS(Word((("z", 1),)))


def test_prefix_exponents_map_every_prefix():
    rng = random.Random(47)
    phi = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1), "c": (2, -1)})
    for _ in range(100):
        w = random_word(rng)
        assert phi.prefix_exponents(w) == [
            tuple(
                sum(sign * phi.images[name][k] for name, sign in w.letters[:i])
                for k in range(2)
            )
            for i in range(len(w) + 1)
        ]
    assert AbelianizationMap(0, {"a": ()}).prefix_exponents(Word((("a", -1),))) == [(), ()]


def test_prefix_exponents_unknown_generator():
    with pytest.raises(UnknownGenerator, match="'z'"):
        LYON_BASIS.prefix_exponents(Word((("a", 1), ("z", 1))))


def test_apply_map_is_ring_homomorphism():
    rng = random.Random(31)
    phi = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1), "c": (2, -1)})
    for _ in range(100):
        e1 = GroupRingElement(
            {random_word(rng): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        e2 = GroupRingElement(
            {random_word(rng): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        assert phi(e1 * e2) == phi(e1) * phi(e2)
        assert phi(e1 + e2) == phi(e1) + phi(e2)


# -- Laurent arithmetic -------------------------------------------------------


def test_product_example():
    left = LaurentPoly(2, {(1, 0): 1, (0, 6): 1})  # a + u^6
    right = LaurentPoly(2, {(0, 0): 1, (0, 2): 1, (0, 4): 1})
    expected = LaurentPoly(
        2, {(1, 0): 1, (1, 2): 1, (1, 4): 1, (0, 6): 1, (0, 8): 1, (0, 10): 1}
    )
    assert left * right == expected


def test_exact_div_difference_of_squares():
    num = LaurentPoly(2, {(2, 0): 1, (0, 6): -1})  # a^2 - u^6
    den = LaurentPoly(2, {(1, 0): 1, (0, 3): -1})  # a - u^3
    assert num.exact_div(den) == LaurentPoly(2, {(1, 0): 1, (0, 3): 1})


def test_exact_div_rejects_non_multiple():
    num = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
    den = LaurentPoly(2, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(InexactDivision):
        num.exact_div(den)


def test_exact_div_integer_content():
    two = LaurentPoly(1, {(0,): 2})
    three = LaurentPoly(1, {(0,): 3})
    with pytest.raises(InexactDivision):
        two.exact_div(three)
    assert (two * three).exact_div(three) == two


def test_exact_div_by_zero():
    with pytest.raises(InexactDivision):
        LaurentPoly.one(1).exact_div(LaurentPoly.zero(1))


def test_rank_mismatch():
    with pytest.raises(RankMismatch):
        LaurentPoly.one(1) * LaurentPoly.one(2)
    with pytest.raises(RankMismatch):
        LaurentPoly.one(1).exact_div(LaurentPoly.one(2))


def test_exact_div_round_trip_randomized():
    rng = random.Random(37)
    for _ in range(200):
        p = random_laurent(rng)
        q = random_laurent(rng, nonzero=True)
        assert (p * q).exact_div(q) == p


@settings(max_examples=80, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_laurent_ring_laws(c1, c2, c3):
    rng = random.Random(c1 * 91 + c2 * 7 + c3)
    p = random_laurent(rng)
    q = random_laurent(rng)
    r = random_laurent(rng)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)


def test_substitute_monomial_map():
    # a -> a, b -> u^3 a^-1 sends a*b^2 to a^-1 u^6
    p = LaurentPoly(2, {(1, 2): 1})
    assert p.substitute([(1, 0), (-1, 3)]) == LaurentPoly.monomial((-1, 6))


def test_substitute_is_ring_homomorphism():
    rng = random.Random(41)
    images = [(1, 0, 2), (0, -1, 1)]
    for _ in range(50):
        p = random_laurent(rng)
        q = random_laurent(rng)
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
        assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


def test_substitute_rank_checks():
    with pytest.raises(RankMismatch):
        LaurentPoly.one(2).substitute([(1, 0)])
    with pytest.raises(RankMismatch):
        LaurentPoly.one(2).substitute([(1, 0), (1,)])


def test_render_is_graded_lex_sorted():
    p = LaurentPoly(2, {(0, 2): 3, (1, 0): -1, (0, 0): 2})
    assert p.render(("a", "u")) == "2 - a + 3*u^2"
    assert LaurentPoly.zero(2).render(("a", "u")) == "0"
