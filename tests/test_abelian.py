import itertools
import math
import os
import random

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from foxtorsion import (
    AbelianizationMap,
    LaurentPoly,
    Presentation,
    abelianize_presentation,
    parse_word,
)
from foxtorsion.abelian import integer_rank, render_terms, smith_normal_form
from foxtorsion.cli import parse_torsion_file
from foxtorsion.groupring import fox_derivative
from foxtorsion.errors import (
    InexactDivision,
    InvalidBasis,
    NontrivialTorsion,
    RankMismatch,
    UnknownGenerator,
)

from helpers import (
    GroupRingElement,
    Word,
    laurent_polys,
    monomial,
    random_laurent,
    random_word,
    reference_smith_normal_form,
    substitute,
)


# -- Smith normal form --------------------------------------------------------


def integer_determinant(matrix):
    """Exact determinant of a square integer matrix (fraction-free elimination)."""
    A = [list(row) for row in matrix]
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def minors_gcd(A, k):
    """gcd of the k x k minors of A."""
    return math.gcd(*(
        integer_determinant([[A[i][j] for j in cols] for i in rows])
        for rows in itertools.combinations(range(len(A)), k)
        for cols in itertools.combinations(range(len(A[0])), k)
    ))


def test_smith_normal_form_randomized():
    """Properties of every Smith normal form, read without V: U is
    unimodular; the factors are nonnegative, each dividing the next; their
    first k multiply to the gcd of A's k x k minors; and U * A = D * W with
    D = diag(factors), where W's top rows have minors of gcd 1, because W
    is V^-1."""
    rng = random.Random(5)
    for _ in range(150):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors, U = smith_normal_form(A)
        assert len(factors) == min(m, n)
        assert abs(integer_determinant(U)) == 1
        assert all(d >= 0 for d in factors)
        for d1, d2 in itertools.pairwise(factors):
            assert d2 == 0 if d1 == 0 else d2 % d1 == 0
        product = 1
        for k, d in enumerate(factors, 1):
            product *= d
            assert product == minors_gcd(A, k)
        rank = sum(map(bool, factors))
        UA = mat_mul(U, A)
        assert not any(any(row) for row in UA[rank:])
        W = []
        for d, row in zip(factors, UA[:rank]):
            assert all(x % d == 0 for x in row)
            W.append([x // d for x in row])
        if rank:
            assert minors_gcd(W, rank) == 1


@pytest.mark.parametrize("matrix, factors, U", [
    ([[-4, 6], [6, -9], [2, 3]], [1, 12], [[0, 0, 1], [-2, -1, 5], [-3, -2, 0]]),
    ([[0, -2, 3], [5, 0, -7]], [1, 1], [[-1, 0], [-7, 1]]),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12], [[1, 0, 0], [3, 1, 0], [1, 2, 1]]),
])
def test_smith_normal_form_row_transform_recorded(matrix, factors, U):
    # recorded at 1fc1839, when the function also formed V: the elimination
    # order, and so every printed basis, is unchanged
    assert smith_normal_form(matrix) == (factors, U)


@st.composite
def small_integer_matrices(draw):
    """Matrices up to 7 x 7 with entries in [-4, 4], many of them 0, so that
    non-unit pivots, remainders and the divisibility step all come up."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4))
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=600, deadline=None)
@given(small_integer_matrices())
def test_smith_normal_form_equals_the_all_rows_reference(matrix):
    assert smith_normal_form(matrix) == reference_smith_normal_form(matrix)


@settings(max_examples=300, deadline=None)
@given(small_integer_matrices())
def test_smith_normal_form_without_its_transform_has_the_same_factors(matrix):
    factors, _ = smith_normal_form(matrix)
    assert smith_normal_form(matrix, transform=False) == (factors, [[] for _ in matrix])


@pytest.mark.parametrize("name", ["generators-100.tor", "generators-100-basis.tor"])
def test_smith_normal_form_equals_the_reference_on_the_generator_files(name):
    path = os.path.join(os.path.dirname(__file__), "golden", name)
    with open(path, encoding="utf-8") as fh:
        tinput = parse_torsion_file(fh.read())
    pres = tinput.presentation
    index = {g: i for i, g in enumerate(pres.generators)}
    relator_matrix = [[0] * len(pres.relators) for _ in pres.generators]
    for j, rel in enumerate(pres.relators):
        for g, sign in rel.letters:
            relator_matrix[index[g]][j] += sign
    images = tinput.abelianization.images
    image_matrix = [
        [images[g][i] for g in pres.generators] for i in range(tinput.abelianization.rank)
    ]
    for matrix in (relator_matrix, image_matrix):
        assert smith_normal_form(matrix) == reference_smith_normal_form(matrix)


def snf_rank(matrix):
    """Reference rank: the number of nonzero Smith normal form factors."""
    factors, _ = smith_normal_form(matrix)
    return sum(1 for d in factors if d)


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
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


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


@pytest.mark.parametrize("generators, relators, images", [
    pytest.param(("a", "b", "x"), ("x^3 b^-2 a^-2",),
                 {"a": (-1, -3), "b": (1, 0), "x": (0, -2)}, id="lyon"),
    pytest.param(("a", "b"), ("b a^-1 b^-1 a^2",), {"a": (0,), "b": (1,)}, id="rank1"),
    pytest.param(("a", "b", "c"), ("a b a^-1 b^-1", "c a^-1 b"),
                 {"a": (1, 1), "b": (1, 0), "c": (0, 1)}, id="commutator"),
    pytest.param(("a", "b", "c"), (),
                 {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}, id="no-relators"),
    pytest.param(("a", "b", "c"), ("a b b^-1 a^-1", "c a^-1 b"),
                 {"a": (1, 1), "b": (1, 0), "c": (0, 1)}, id="zero-column"),
    pytest.param(("a", "b", "c"), ("a b^2 c", "b c^-1", "a^-1 b^-1 a b", "c"),
                 {"a": (), "b": (), "c": ()}, id="rank0"),
])
def test_snf_images_recorded(generators, relators, images):
    """Images of the Smith-normal-form basis, recorded at 1fc1839; the
    relator ``a b b^-1 a^-1`` reduces to the identity, a zero column."""
    phi = abelianize_presentation(Presentation(generators, relators))
    assert phi.images == images
    assert phi.rank == len(images["a"])


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
            assert phi.prefix_exponents(rel)[-1] == zero


def test_invalid_basis_violating_relator():
    bad = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1), "x": (0, 0)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_invalid_basis_not_generating():
    # images lie in 2Z x Z, relator condition holds but index is 2
    bad = AbelianizationMap(2, {"a": (2, 0), "b": (-2, 3), "x": (0, 2)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_invalid_basis_wider_than_the_generators():
    # three images cannot generate Z^4; refused before the relator check,
    # which this basis would fail too
    bad = AbelianizationMap(4, {"a": (1, 0, 0, 0), "b": (0, 1, 0, 0), "x": (0, 0, 1, 0)})
    with pytest.raises(InvalidBasis, match="do not generate"):
        abelianize_presentation(LYON_PRES, bad)


@pytest.mark.parametrize("basis", [
    pytest.param(AbelianizationMap(0, {"a": (), "b": (), "x": ()}, ()), id="rank0"),
    pytest.param(AbelianizationMap(1, {"a": (1,), "b": (2,), "x": (2,)}, ("t",)), id="rank1"),
])
def test_invalid_basis_below_the_free_rank(basis):
    # each kills x^3 b^-2 a^-2 and generates Z^r, yet H_1 has free rank 2: the
    # torsion would be a polynomial over a quotient of the free part
    with pytest.raises(
        InvalidBasis, match=f"rank {basis.rank}, but the free part of H_1 has rank 2"
    ):
        abelianize_presentation(LYON_PRES, basis)


@st.composite
def presentations(draw):
    names = ("a", "b", "c", "d")
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=8).map(Word), max_size=3))
    return Presentation(names, relators)


@settings(max_examples=200, deadline=None)
@given(presentations(), st.data())
def test_smith_basis_is_accepted_and_a_coordinate_fewer_refused(pres, data):
    try:
        phi = abelianize_presentation(pres)
    except NontrivialTorsion:
        assume(False)
    assert abelianize_presentation(pres, phi) is phi
    assume(phi.rank)
    # dropping coordinate i still kills every relator and generates Z^(r-1)
    i = data.draw(st.integers(0, phi.rank - 1))

    def drop(v):
        return v[:i] + v[i + 1:]

    fewer = AbelianizationMap(
        phi.rank - 1, {g: drop(v) for g, v in phi.images.items()}, drop(phi.basis_names)
    )
    with pytest.raises(
        InvalidBasis, match=f"rank {fewer.rank}, but the free part of H_1 has rank {phi.rank}"
    ):
        abelianize_presentation(pres, fewer)


@settings(max_examples=200, deadline=None)
@given(presentations())
@example(Presentation(("a", "b", "c", "d"), ("a^2",)))
@example(Presentation(("a", "b", "c", "d"), ("a^2 b^-4", "a^-2 b^-2 c^3")))
def test_both_paths_refuse_a_finite_factor_of_h1_alike(pres):
    """A [basis] of the free rows of the row transform kills every relator
    and generates Z^r, so it is refused with NontrivialTorsion exactly when
    the path without a [basis] refuses, and accepted otherwise."""
    index = {g: i for i, g in enumerate(pres.generators)}
    M = [[0] * len(pres.relators) for _ in pres.generators]
    for j, rel in enumerate(pres.relators):
        for g, sign in rel.letters:
            M[index[g]][j] += sign
    factors, U = smith_normal_form(M)
    free_rows = range(sum(map(bool, factors)), len(pres.generators))
    basis = AbelianizationMap(
        len(free_rows), {g: tuple(U[i][j] for i in free_rows) for g, j in index.items()}
    )
    outcomes = []
    for user in (None, basis):
        try:
            abelianize_presentation(pres, user)
            outcomes.append("free")
        except NontrivialTorsion:
            outcomes.append("torsion")
    event(outcomes[0])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("torsion" if any(d > 1 for d in factors) else "free")


def test_invalid_basis_missing_generator():
    bad = AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3)}, ("s", "t"))
    with pytest.raises(InvalidBasis):
        abelianize_presentation(LYON_PRES, bad)


def test_duplicate_basis_names_rejected():
    with pytest.raises(InvalidBasis):
        AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3), "x": (0, 2)}, ("a", "a"))
    with pytest.raises(RankMismatch, match="one basis name per coordinate"):
        AbelianizationMap(2, {"a": (1, 0)}, ("s",))


@pytest.mark.parametrize("name", ["1", "u^2", "_u", "u v", "", "\u00e9"])
def test_basis_names_follow_the_generator_name_grammar(name):
    with pytest.raises(InvalidBasis, match="invalid basis name"):
        AbelianizationMap(2, {"a": (1, 0)}, ("a", name))
    # the length and duplicate checks come first
    with pytest.raises(RankMismatch):
        AbelianizationMap(2, {"a": (1, 0)}, (name,))
    with pytest.raises(InvalidBasis, match="duplicate basis names"):
        AbelianizationMap(2, {"a": (1, 0)}, (name, name))


def test_image_of_the_wrong_length_rejected():
    with pytest.raises(RankMismatch, match="image of 'b' has length 3, expected 2"):
        AbelianizationMap(2, {"a": (1, 0), "b": (0, 1, 0)})


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
    assert LYON_BASIS(parse_word("a b^2", gens)) == monomial((-1, 6))


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
    with pytest.raises(UnknownGenerator, match="'z'"):
        LYON_BASIS(Word((("a", 1), ("z", 1), ("a", -1))))


@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("max_len", [0, 1, 12, 500])
def test_word_exponents_is_the_last_prefix(rank, max_len):
    # the word's exponent vector, the signed sum of its letters' images, is
    # the last prefix; the basis check and the ring map read it there
    rng = random.Random(101 * rank + max_len)
    images = {name: tuple(rng.randint(-3, 3) for _ in range(rank)) for name in "abc"}
    phi = AbelianizationMap(rank, images)
    for _ in range(20):
        w = random_word(rng, max_len=max_len)
        exponents = tuple(
            sum(sign * images[name][k] for name, sign in w.letters) for k in range(rank)
        )
        assert phi.prefix_exponents(w)[-1] == exponents
        assert phi(w) == monomial(exponents)


def test_the_ring_map_reads_the_last_prefix_of_each_word():
    # a Word maps as {word: 1}, to x^(its last prefix); an element, term by
    # term, to the sum of its coefficients times those monomials
    rng = random.Random(59)
    phi = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1), "c": (2, -1)})
    for _ in range(100):
        w = random_word(rng)
        assert phi(w) == monomial(phi.prefix_exponents(w)[-1])
        e = GroupRingElement(
            {random_word(rng): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        want = LaurentPoly.zero(2)
        for word, coeff in e.terms.items():
            want = want + monomial(phi.prefix_exponents(word)[-1], coeff)
        assert phi(e) == want
    # parsed words and Fox derivatives are the product's own classes
    w = parse_word("a b^2 c^-1 a", ("a", "b", "c"))
    assert phi(w) == monomial(phi.prefix_exponents(w)[-1])
    d = fox_derivative(w, "a")
    assert phi(d) == monomial((0, 0)) + monomial(phi.prefix_exponents(w)[-2])


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
    # exponent vectors, offsets and names of the wrong length
    with pytest.raises(RankMismatch, match="has length 1, expected 2"):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(RankMismatch, match="offset length 1"):
        LaurentPoly.one(2).shifted((1,))
    with pytest.raises(RankMismatch, match="1 names for rank 2"):
        LaurentPoly.one(2).render(("s",))


def test_exact_div_round_trip_randomized():
    rng = random.Random(37)
    for _ in range(200):
        p = random_laurent(rng)
        q = random_laurent(rng, nonzero=True)
        assert (p * q).exact_div(q) == p


@st.composite
def binomial_divisions(draw):
    """(f, divisor, monomial): a random f in rank 1-3, possibly zero; a
    divisor c * (x^A - x^B) with A != B, entries of either sign and |c| up to
    5; and a random monomial for perturbing a dividend."""
    rank = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * rank)
    f = LaurentPoly(
        rank, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=8))
    )
    top, bottom = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    c = draw(st.integers(-5, 5).filter(bool))
    divisor = LaurentPoly(rank, {top: c, bottom: -c})
    perturbation = monomial(draw(exps), draw(st.integers(-9, 9).filter(bool)))
    return f, divisor, perturbation


def _quotient_or_inexact(dividend, divide):
    try:
        return divide(dividend)
    except InexactDivision:
        return "inexact"


@settings(max_examples=300, deadline=None)
@given(binomial_divisions())
def test_binomial_division_matches_the_leading_term_loop(case):
    f, divisor, monomial = case
    product = f * divisor
    # exact_div takes the one-pass binomial path for this divisor
    assert product.exact_div(divisor) == f
    assert product._div_leading_terms(divisor) == f
    if not f.is_zero:
        assert product.exact_div(f) == divisor
    # a binomial divides no monomial, so one more term makes any multiple inexact
    with pytest.raises(InexactDivision):
        (product + monomial).exact_div(divisor)
    with pytest.raises(InexactDivision):
        (product + monomial)._div_leading_terms(divisor)
    c = next(iter(divisor.terms.values()))
    if abs(c) > 1:
        # f * divisor plus divisor / c: every line sums to 0, but c divides
        # not every coefficient
        (shift,) = monomial.terms
        off = LaurentPoly(divisor.rank, {e: v // c for e, v in divisor.terms.items()})
        with pytest.raises(InexactDivision):
            (product + off.shifted(shift)).exact_div(divisor)
    # an arbitrary dividend: both paths agree on the quotient or on inexactness
    for dividend in (f, f + monomial, f * monomial):
        assert _quotient_or_inexact(dividend, lambda d: d.exact_div(divisor)) == (
            _quotient_or_inexact(dividend, lambda d: d._div_leading_terms(divisor))
        )


@st.composite
def corner_binomial_divisions(draw):
    """(dividend, divisor) in rank 1-3 with exponents in [-M, M], M in 1-40,
    that often sit at +-M: a divisor c * (x^A - x^B), A != B, whose ends may
    be opposite corners, so that U = A - B reaches 2M, and a dividend
    f * divisor plus zero to two more terms, so that the division is exact
    or not."""
    rank = draw(st.integers(1, 3))
    big = draw(st.integers(1, 40))
    coordinate = st.one_of(st.sampled_from((big, -big)), st.integers(-big, big))
    exps = st.tuples(*[coordinate] * rank)
    f = LaurentPoly(rank, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6)))
    top, bottom = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    c = draw(st.integers(-4, 4).filter(bool))
    divisor = LaurentPoly(rank, {top: c, bottom: -c})
    extra = LaurentPoly(rank, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=2)))
    return f * divisor + extra, divisor


@settings(max_examples=300, deadline=None)
@given(corner_binomial_divisions())
def test_binomial_division_matches_the_leading_term_loop_at_the_corners(case):
    """The packed binomial path returns the leading-term quotient, and
    raises InexactDivision exactly when the leading-term loop does."""
    dividend, divisor = case
    assert _quotient_or_inexact(dividend, lambda d: d.exact_div(divisor)) == (
        _quotient_or_inexact(dividend, lambda d: d._div_leading_terms(divisor))
    )


def test_binomial_division_of_zero_and_by_a_non_binomial():
    divisor = LaurentPoly(2, {(1, -2): 3, (-1, 0): -3})
    assert LaurentPoly.zero(2).exact_div(divisor) == LaurentPoly.zero(2)
    # equal coefficients are not c * (x^A - x^B): the leading-term loop divides
    one_plus_a = LaurentPoly(2, {(0, 0): 1, (1, 0): 1})
    assert (one_plus_a * one_plus_a).exact_div(one_plus_a) == one_plus_a


def test_binomial_division_runs_along_lines():
    # (1 - t^2k) / (1 - t^2) = 1 + t^2 + ... + t^(2k-2), one line of step 2
    k = 500
    num = LaurentPoly(1, {(0,): 1, (2 * k,): -1})
    den = LaurentPoly(1, {(0,): 1, (2,): -1})
    assert num.exact_div(den) == LaurentPoly(1, {(2 * i,): 1 for i in range(k)})
    # the odd exponents form a second line, whose sum is 1, not 0
    with pytest.raises(InexactDivision):
        (num + monomial((1,))).exact_div(den)


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
    assert substitute(p, [(1, 0), (-1, 3)]) == monomial((-1, 6))


def test_substitute_is_ring_homomorphism():
    rng = random.Random(41)
    images = [(1, 0, 2), (0, -1, 1)]
    for _ in range(50):
        p = random_laurent(rng)
        q = random_laurent(rng)
        assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)
        assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)


def test_substitute_rank_checks():
    with pytest.raises(RankMismatch):
        substitute(LaurentPoly.one(2), [(1, 0)])
    with pytest.raises(RankMismatch):
        substitute(LaurentPoly.one(2), [(1, 0), (1,)])


def test_render_is_graded_lex_sorted():
    p = LaurentPoly(2, {(0, 2): 3, (1, 0): -1, (0, 0): 2})
    assert p.render(("a", "u")) == "2 - a + 3*u^2"
    assert LaurentPoly.zero(2).render(("a", "u")) == "0"


def sorted_terms_reference(poly):
    """Graded-lex order by a key function per term, as `sorted_terms` sorted
    before it decorated its tuples."""
    return sorted(poly.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def render_reference(poly, names):
    """The renderer that sorted on its own, before `render_terms` took an
    already sorted term list."""
    if not poly.terms:
        return "0"
    pieces = []
    for exps, coeff in sorted_terms_reference(poly):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(str(name))
            elif e:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


@settings(max_examples=400, deadline=None)
@given(laurent_polys())
@example(LaurentPoly.zero(0))
@example(LaurentPoly.zero(3))
@example(LaurentPoly(0, {(): -1}))
@example(monomial((0, -1, 1), -1))
@example(LaurentPoly(2, {(1, 0): 2, (0, 1): -1, (2, -1): 1, (-1, 2): -5}))
def test_one_sort_serves_terms_and_rendering(poly):
    names = ("a", "u", "x")[: poly.rank]
    ordered = poly.sorted_terms()
    assert ordered == sorted_terms_reference(poly)
    rendered = render_reference(poly, names)
    assert render_terms(ordered, names) == rendered
    assert poly.render(names) == rendered
