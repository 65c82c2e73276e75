import itertools
import json
import random
import sys
import tracemalloc
from operator import sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foxtorsion import (
    AbelianizationMap,
    LaurentPoly,
    Presentation,
    TorsionClass,
    TorsionInput,
    abelianize_presentation,
    compare_torsion,
    parse_word,
    sutured_torsion,
)
from foxtorsion.equivalence import apply_witness
from foxtorsion.groupring import fox_derivative
from foxtorsion.lyon import expected_torsion, lyon_input
from foxtorsion import cli, torsion
from foxtorsion._kernels import iadd_product, pack, unpack
from foxtorsion.abelian import smith_normal_form
from foxtorsion.errors import (
    InexactDivision,
    InputTooLarge,
    InternalInexactDivision,
    NontrivialTorsion,
    NotBalanced,
    UnknownGenerator,
)
from foxtorsion.torsion import (
    MAX_TERM_PRODUCTS,
    _cleared,
    _delete_relators,
    _normalize,
    _pack_column,
    _period_step,
    _tietze_reduce,
    det_bareiss,
    det_cofactor,
    fox_determinant,
    fox_matrix,
    torsion_normal_form,
)
from foxtorsion.words import MAX_WORD_LETTERS, _push_reduced

import helpers
from helpers import (
    count_calls,
    count_window_lookups,
    delete_relators_by_letters,
    det_cofactor_tuples,
    det_first_column,
    FOX_PRIME,
    fox_determinant_at,
    Word,
    laurent_polys,
    monomial,
    random_laurent,
    reflect,
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
    rank 0-3.  Each word reduces a letter list of up to 3 * FOX_BLOCK + 1
    letters, so it spans up to three of fox_matrix's blocks.  Images are drawn
    from a pool of at most three small vectors and zero, so generators often
    share an image or map to 0; distinct prefixes then land on one exponent
    vector and their terms cancel, within a block and across blocks."""
    letter = st.tuples(st.sampled_from(FOX_GENS), st.sampled_from((1, -1)))
    letters = st.integers(0, 3 * torsion.FOX_BLOCK + 1).flatmap(
        lambda n: st.lists(letter, min_size=n, max_size=n)
    )
    words = [Word(draw(letters)) for _ in FOX_GENS]
    relators = draw(st.integers(0, len(FOX_GENS)))
    rank = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.integers(-1, 1)] * rank)
    pool = draw(st.lists(vectors, min_size=1, max_size=3)) + [(0,) * rank]
    images = {g: draw(st.sampled_from(pool)) for g in FOX_GENS}
    pres = Presentation(FOX_GENS, words[:relators])
    return TorsionInput(pres, words[relators:], AbelianizationMap(rank, images))


def _assert_maps_each_derivative(inp):
    phi = inp.abelianization
    words = inp.inclusion_words + inp.presentation.relators
    for g, row in zip(inp.presentation.generators, fox_matrix(inp)):
        for w, entry in zip(words, row):
            expected = phi(fox_derivative(w, g))
            assert entry == expected
            # the same terms in the same order, so reports stay byte-identical
            assert list(entry.terms.items()) == list(expected.terms.items())


@settings(max_examples=200, deadline=None)
@given(fox_inputs())
def test_fox_matrix_maps_each_derivative(inp):
    _assert_maps_each_derivative(inp)


def _reduced_word(rng, length, generators=FOX_GENS):
    letters = []
    while len(letters) < length:
        letter = (rng.choice(generators), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return Word(letters)


@pytest.mark.parametrize(
    "length",
    [0, torsion.FOX_BLOCK - 1, torsion.FOX_BLOCK, torsion.FOX_BLOCK + 1, 2 * torsion.FOX_BLOCK],
)
def test_fox_matrix_at_block_boundaries(length):
    # one relator and two inclusion words of exactly `length` letters; a and b
    # share an image, so terms from different blocks cancel
    rng = random.Random(length)
    relator, *inclusion = (_reduced_word(rng, length) for _ in range(3))
    assert len(relator.letters) == length
    phi = AbelianizationMap(2, {"a": (1, 0), "b": (1, 0), "c": (0, 1)})
    _assert_maps_each_derivative(
        TorsionInput(Presentation(FOX_GENS, [relator]), inclusion, phi)
    )
    power = Word([("a", -1)] * (length - 1) + [("b", 1)]) if length else Word()
    _assert_maps_each_derivative(
        TorsionInput(Presentation(FOX_GENS, [power]), (relator, power), phi)
    )


# fox_matrix memory is linear in the word length: blocks keep at most
# FOX_BLOCK prefixes of at most FOX_BLOCK letters alive.  Measured peaks are
# 1.3 MB on a^8000 b and 3.3 MB on a random reduced 20,000-letter word;
# differentiating whole words took 246 MB on a^8000 b and would need about
# 1.5 GB on the 20,000-letter word.
FOX_PEAK_BYTES = 32 * 2**20


def _fox_matrix_peak(word):
    pres = Presentation(("a", "b", "x"), [parse_word("x^3 b^-2 a^-2", ("a", "b", "x"))])
    phi = AbelianizationMap(2, {"a": (1, 0), "b": (-1, 3), "x": (0, 2)})
    inp = TorsionInput(pres, (word, Word([("b", 1)])), phi)
    tracemalloc.start()
    try:
        fox_matrix(inp)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fox_matrix_memory_on_a_long_power():
    assert _fox_matrix_peak(Word([("a", 1)] * 8000 + [("b", 1)])) < FOX_PEAK_BYTES


def test_fox_matrix_memory_on_a_budget_word():
    word = _reduced_word(random.Random(20_000), MAX_WORD_LETTERS, "abx")
    assert _fox_matrix_peak(word) < FOX_PEAK_BYTES


@st.composite
def periodic_words(draw):
    """A reduced word over a, b, c made of one to three blocks: powers
    (atom)^k with k in -12..12, some of whose atoms are commutators (image 0
    under every map), and random short words."""
    letters = st.tuples(st.sampled_from(FOX_GENS), st.sampled_from((1, -1)))
    short = st.lists(letters, min_size=1, max_size=3).map(Word)
    commutator = st.permutations(FOX_GENS).map(
        lambda g: Word([(g[0], 1), (g[1], 1), (g[0], -1), (g[1], -1)])
    )
    power = st.builds(pow, st.one_of(short, commutator), st.integers(-12, 12))
    blocks = draw(st.lists(st.one_of(power, power, short), min_size=1, max_size=3))
    word = Word(())
    for block in blocks:
        word = word * block
    return word


@st.composite
def periodic_inputs(draw):
    """A balanced input over a, b, c whose words come from `periodic_words`,
    with a map of rank 1 or 2 drawn as in `fox_inputs`."""
    words = [draw(periodic_words()) for _ in FOX_GENS]
    relators = draw(st.integers(0, len(FOX_GENS)))
    rank = draw(st.integers(1, 2))
    vectors = st.tuples(*[st.integers(-1, 1)] * rank)
    pool = draw(st.lists(vectors, min_size=1, max_size=3)) + [(0,) * rank]
    images = {g: draw(st.sampled_from(pool)) for g in FOX_GENS}
    pres = Presentation(FOX_GENS, words[:relators])
    return TorsionInput(pres, words[relators:], AbelianizationMap(rank, images))


# packed columns in tests take fields of this many bits, far wider than any
# exponent below, so the steps found do not depend on `det_cofactor`'s width
TEST_WIDTH = 64


def _packed_columns(matrix):
    """The columns of a matrix packed as `det_cofactor` packs them, in fields
    of TEST_WIDTH bits, and the shifts of those fields."""
    rank = matrix[0][0].rank
    shifts = [TEST_WIDTH * (rank - 1 - i) for i in range(rank)]
    return [_pack_column(column, shifts) for column in zip(*matrix)], shifts


def _steps(matrix):
    """{column index: the step U, as an exponent tuple} for the columns that
    `_cleared` multiplies by x^U - 1."""
    columns, shifts = _packed_columns(matrix)
    steps = {}
    for j, column in enumerate(columns):
        _, step = _cleared(column)
        if step is not None:
            (steps[j],) = unpack({step: 1}, shifts, TEST_WIDTH)
    return steps


@settings(max_examples=200, deadline=None)
@given(periodic_inputs())
def test_cleared_determinant_equals_the_plain_one(inp):
    matrix = fox_matrix(inp)
    for column in _packed_columns(matrix)[0]:
        cleared, step = _cleared(column)
        if step is not None:
            assert sum(map(len, cleared)) < sum(map(len, column))
    assert fox_determinant(inp) == det_cofactor_tuples(matrix)


CLEARED_EXAMPLES = (
    # (first inclusion word, the step of its column's divisor x^U - 1 or
    # None); the rest is the Lyon input for surface S at n = 0, basis (a, u).
    # The step is read from the sorted terms of the column's largest entry.
    # 11 of the 11 steps between the 12 terms are (2, -3)
    ("(a b^-1)^12 b^2", (2, -3)),
    # the commutator's image is 0, so the largest entry has 3 terms, whose
    # 2 steps differ
    ("(a b a^-1 b^-1)^12 x a^-1 b x", None),
    # two geometric sums in one entry of 14 terms: the more frequent step,
    # 10 of 13, wins
    ("(a b^-1)^3 (a x)^11", (1, 2)),
    ("(a b^-1)^11 (a x)^3", (2, -3)),
    # 4 of the 6 steps of the 7-term entry are (2, -3), and clearing takes
    # the column from 15 to 14 terms
    ("(a b^-1)^5 b a b^-1 x a x^-1 b^-1", (2, -3)),
    # no entry has more than 2 terms, so no product could be shorter
    ("a b x^-1 a^-1 x b", None),
    # the largest entry has 5 terms; (1, -4) and (0, 2) take 2 of its 4
    # steps each, short of half the terms
    ("(a x^-1)^3 (a^-1 x)^2", None),
)


@pytest.mark.parametrize("text, step", CLEARED_EXAMPLES)
def test_cleared_determinant_examples(text, step):
    base = lyon_input(0, "S")
    pres = base.presentation
    inp = TorsionInput(
        pres,
        (parse_word(text, pres.generators), base.inclusion_words[1]),
        base.abelianization,
    )
    matrix = fox_matrix(inp)
    assert _steps(matrix).get(0) == step
    assert fox_determinant(inp) == det_cofactor_tuples(matrix)


def test_matrix_of_binomial_entries_is_left_alone():
    # no entry has more than 2 terms, so the size test skips every column
    x = (1, 0)
    matrix = [
        [poly2({(0, 0): 1, x: -1}), poly2({(0, 2): 1, (3, 1): 1})],
        [poly2({x: 1}), poly2({(0, 0): 1, x: 1})],
    ]
    for column in _packed_columns(matrix)[0]:
        assert _cleared(column) == (column, None)


def test_column_without_a_majority_step_has_no_period_step():
    base = lyon_input(0, "S")
    pres = base.presentation
    word = parse_word("(a x^-1)^3 (a^-1 x)^2", pres.generators)
    inp = TorsionInput(pres, (word, base.inclusion_words[1]), base.abelianization)
    column = [entry for entry in _packed_columns(fox_matrix(inp))[0][0] if entry]
    assert max(map(len, column)) == 5
    assert _period_step(column) is None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(
            st.tuples(*[st.integers(-3, 3)] * rank).filter(any),
            st.tuples(*[st.integers(-20, 20)] * rank),
        )
    ),
    st.integers(3, 30),
    st.integers(-5, 5).filter(bool),
)
def test_geometric_sum_is_cleared_to_a_binomial(step_and_base, k, c):
    step, base = step_and_base
    terms = {tuple(a + i * u for a, u in zip(base, step)): c for i in range(k)}
    (column,), shifts = _packed_columns([[LaurentPoly(len(step), terms)]])
    # of +-U, the step is the one that packs above 0
    found = _period_step(column)
    assert found > 0
    assert unpack({found: 1}, shifts, TEST_WIDTH) in ({step: 1}, {tuple(-u for u in step): 1})
    (cleared,), kept = _cleared(column)
    assert kept == found
    assert len(cleared) == 2


def test_column_that_would_not_shrink_is_left_alone():
    # both inclusion columns of n = 2 have a step, (2, -3), but
    # (x^U - 1) * column has as many terms as the column or more
    columns, _ = _packed_columns(fox_matrix(lyon_input(2, "S")))
    for column in columns[:2]:
        assert _period_step([entry for entry in column if entry]) is not None
        assert _cleared(column) == (column, None)


def test_unapplied_column_divisor_is_an_internal_error(monkeypatch, capsys):
    """A binomial that clearing reports but never applied leaves a
    remainder: `det_cofactor` raises InternalInexactDivision, and the
    `torsion` command prints it as one JSON error report and exits 1.  The
    patched `_cleared` leaves every column as it is but reports the step
    packed as 2, U = (0, 2) in fields of the example's width."""
    path = str(Path(__file__).parent / "golden" / "example.tor")
    inp = cli.load_torsion_file(path)
    divisor = poly2({(0, 2): 1, (0, 0): -1})
    with pytest.raises(InexactDivision):
        fox_determinant(inp).exact_div(divisor)
    monkeypatch.setattr(torsion, "_cleared", lambda column: (column, 2))
    with pytest.raises(InternalInexactDivision, match=r"binomial x\^\(0, 2\) - 1"):
        sutured_torsion(inp)
    assert cli.main(["torsion", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["type"] == "InternalInexactDivision"


@pytest.mark.parametrize("surface", ["S", "Sprime"])
def test_family_clears_both_inclusion_columns_not_the_relator(surface):
    inp = lyon_input(150, surface)
    matrix = fox_matrix(inp)
    longest = max(len(e.terms) for row in matrix for e in row)
    cleared = [_cleared(column) for column in _packed_columns(matrix)[0]]
    assert [step is not None for _, step in cleared] == [True, True, False]
    # the geometric sums of about n terms collapse to a few terms
    assert longest > 150
    assert max(len(entry) for column, _ in cleared for entry in column) <= 6
    assert sutured_torsion(inp) == expected_torsion(150, surface)


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
    assert det_cofactor(matrix) == one


def test_determinant_of_surface_matrix():
    tclass = torsion_normal_form(det_cofactor(fox_matrix(lyon_input(0, "S"))))
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
    tclass = torsion_normal_form(det_cofactor(block))
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


@st.composite
def wide_exponent_matrices(draw):
    """Square Laurent matrices of dimension 1-6 in rank 0-3 for the packed
    keys of `det_cofactor`.  Each coordinate is 0, +-1 or +-M, with M up to
    2^70, so keys collide and cancel; entries are often zero.  The
    "dependent_row" shape repeats a row up to sign, so the determinant is 0.
    In the "extreme" shape every entry is c x^(+-M e_axis), one sign for the
    whole matrix, so each full product reaches +-n*M, a third of the 3nM
    that sets the field width; `clearable_matrices` reaches further."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, 3))
    big = draw(st.sampled_from((2, 3, 7, 2**31 - 1, 2**64, 2**70)))
    coeffs = st.integers(-3, 3).filter(bool)
    shape = draw(st.sampled_from(("general", "dependent_row", "extreme")))
    if shape == "extreme" and rank:
        axis = draw(st.integers(0, rank - 1))
        e = tuple(draw(st.sampled_from((big, -big))) if i == axis else 0 for i in range(rank))
        return [[monomial(e, draw(coeffs)) for _ in range(n)] for _ in range(n)]
    exps = st.tuples(*[st.sampled_from((0, 1, -1, big, -big))] * rank)
    poly = st.dictionaries(exps, coeffs, min_size=1, max_size=3 if n <= 3 else 2)
    entry = st.one_of(st.just({}), poly)
    matrix = [[LaurentPoly(rank, draw(entry)) for _ in range(n)] for _ in range(n)]
    if shape == "dependent_row" and n > 1:
        src, dst = draw(st.permutations(range(n)))[:2]
        sign = draw(st.sampled_from((1, -1)))
        matrix[dst] = [e * sign for e in matrix[src]]
    return matrix


@settings(max_examples=300, deadline=None)
@given(wide_exponent_matrices())
def test_packed_cofactor_matches_the_tuple_key_expansion(matrix):
    expected = det_first_column(matrix)
    assert det_cofactor_tuples(matrix) == expected
    got = det_cofactor(matrix)
    assert got == expected
    assert all(got.terms.values())


@st.composite
def clearable_matrices(draw):
    """Square Laurent matrices of dimension 1-3 in rank 1-3 whose columns are
    often geometric sums, so that `det_cofactor` clears them, with M up to
    2^70.  In the "general" shape a column is plain, its entries drawn as in
    `wide_exponent_matrices`, or periodic: each entry is zero or
    c x^p (1 + x^U + ... + x^((k-1)U)), k in 3-5, sometimes plus one more
    term, for one step U per column, whose coordinates are 0, +-1, +-2, +-3
    or +-M, and p's 0, +-1 or +-M.  In the "extreme" shape every entry is
    c (x^(-M e) + 1 + x^(M e)) for one axis e: each column is cleared by
    x^(M e) - 1 to c (x^(2M e) - x^(-M e)), so the cleared determinant
    reaches 2nM e, two thirds of the 3nM that sets the field width."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    big = draw(st.sampled_from((2, 3, 7, 2**31 - 1, 2**64, 2**70)))
    coeffs = st.integers(-3, 3).filter(bool)
    if draw(st.sampled_from(("general", "extreme"))) == "extreme":
        axis = draw(st.integers(0, rank - 1))
        e = tuple(big if i == axis else 0 for i in range(rank))
        ends = (tuple(-x for x in e), (0,) * rank, e)
        return [
            [LaurentPoly(rank, dict.fromkeys(ends, draw(coeffs))) for _ in range(n)]
            for _ in range(n)
        ]
    exps = st.tuples(*[st.sampled_from((0, 1, -1, big, -big))] * rank)
    steps = st.tuples(*[st.sampled_from((0, 1, -1, 2, -2, 3, -3, big, -big))] * rank)
    plain = st.dictionaries(exps, coeffs, min_size=1, max_size=3)
    columns = []
    for _ in range(n):
        if draw(st.booleans()):
            step = draw(steps.filter(any))
            column = []
            for _ in range(n):
                if draw(st.integers(0, 3)) == 0:
                    column.append({})
                    continue
                p, k, c = draw(exps), draw(st.integers(3, 5)), draw(coeffs)
                terms = [(tuple(a + i * u for a, u in zip(p, step)), c) for i in range(k)]
                if draw(st.booleans()):
                    terms.append((draw(exps), draw(coeffs)))
                column.append(terms)
        else:
            column = [draw(st.one_of(st.just({}), plain)) for _ in range(n)]
        columns.append(column)
    return [[LaurentPoly(rank, columns[j][i]) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(clearable_matrices())
def test_cleared_cofactor_matches_the_references(matrix):
    """The packed stage (clearing, expansion, binomial division, one unpack)
    against the tuple-keyed expansion without clearing and against
    fraction-free elimination."""
    expected = det_cofactor_tuples(matrix)
    assert det_cofactor(matrix) == expected
    assert det_bareiss(matrix) == expected


def test_determinant_rejects_mixed_ranks():
    one, other = LaurentPoly.one(1), LaurentPoly.one(2)
    with pytest.raises(ValueError):
        det_cofactor([[one, other]])
    with pytest.raises(ValueError, match="different rings"):
        det_cofactor([[one, one], [one, other]])


@pytest.mark.parametrize("det", [det_cofactor, det_bareiss])
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
    unit = st.builds(monomial, exps, st.sampled_from((1, -1)))
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
    expected = det_first_column(matrix)
    assert det_cofactor(matrix) == expected
    if len(matrix) <= 6:  # the reference Bareiss is slow on 7x7 without units
        assert det_bareiss(matrix) == expected


def test_five_hundred_unit_generators_are_eliminated_quickly(monkeypatch):
    """The Lyon S n = 0 input with 500 generators y and relators y a^-1 b,
    each y the image of a b^-1, is reduced to a, b and x before the Fox
    matrix is built: each y occurs once, in its own relator, so its move
    costs 0 and changes no other word, while the Lyon relator has no
    generator that occurs once.  The Fox matrix then makes 3 x 3
    `fox_derivative` calls, one per generator and word, where the 503x503
    matrix made 253,009.  Calls are counted, not seconds, so a slow machine
    cannot fail it."""
    base = lyon_input(0, "S")
    ys = [f"y{i}" for i in range(1, 501)]
    presentation = Presentation(
        base.presentation.generators + tuple(ys),
        base.presentation.relators + tuple(f"{y} a^-1 b" for y in ys),
    )
    images = dict(base.abelianization.images, **{y: (2, -3) for y in ys})
    basis = AbelianizationMap(2, images, base.abelianization.basis_names)
    inp = TorsionInput(presentation, base.inclusion_words, basis)
    calls = count_calls(monkeypatch, fox_derivative, lambda word, g: 1)
    assert sutured_torsion(inp) == expected_torsion(0, "S")
    assert len(calls) == 9


def _nonunit_matrix(rng, n):
    """n x n entries 2 + x^e, or 3 where e = 0: none is a unit."""
    return [
        [poly2({(0, 0): 2}) + poly2({(rng.randint(-2, 2), rng.randint(-2, 2)): 1})
         for _ in range(n)]
        for _ in range(n)
    ]


def test_dense_matrix_beyond_the_term_budget_is_rejected_quickly(monkeypatch):
    # the 12x12 matrix without units needs 9.3 million term products, more
    # than MAX_TERM_PRODUCTS; the 11x11 one needs 3.83 million.  Quickly in
    # work, not seconds: 1,626,888 pairs are multiplied before the refusal.
    matrix = _nonunit_matrix(random.Random(73), 12)
    pairs = count_calls(monkeypatch, iadd_product, lambda acc, p, q, sign: len(p) * len(q))
    with pytest.raises(InputTooLarge, match=f"more than {MAX_TERM_PRODUCTS} term products"):
        det_cofactor(matrix)
    assert 0 < sum(pairs) <= MAX_TERM_PRODUCTS


def test_the_term_count_stops_at_the_first_minor_past_the_budget(monkeypatch):
    """A 60x60 matrix whose columns 0, 58 and 59 are x + 1 in every row and
    whose other entries are 0: column 58 meets 60 one-row minors, and with
    the budget at 0 the first already passes it.  Lines run in
    `det_cofactor` are counted, not seconds: a count that ran on to the end
    of the column would run two lines for each of the 60 minors."""
    n = 60
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    entry = monomial((1,)) + one
    matrix = [[entry if j in (0, n - 2, n - 1) else zero for j in range(n)] for _ in range(n)]
    monkeypatch.setattr(torsion, "MAX_TERM_PRODUCTS", 0)
    lines = []

    def trace(frame, event, arg):
        if frame.f_code is not det_cofactor.__code__:
            return None
        if event == "line":
            lines.append(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        with pytest.raises(InputTooLarge, match="more than 0 term products"):
            det_cofactor(matrix)
    finally:
        sys.settrace(None)
    assert 0 < len(lines) < n


def _dense_relators_input(m):
    """m generators and m - 2 relators whose exponents, drawn from [-200, 200],
    are the columns of the first random matrix with free cokernel; the
    inclusion words are g1 and g2.  A relator syllable g^k gives a Fox entry
    of |k| terms, so the rows that a unit pivot updates are dense."""
    seed = 0
    while True:
        rng = random.Random(seed)
        exponents = [[rng.randint(-200, 200) for _ in range(m - 2)] for _ in range(m)]
        if all(f <= 1 for f in smith_normal_form(exponents)[0]):
            break
        seed += 1
    gens = [f"g{i + 1}" for i in range(m)]
    relators = [
        " ".join(f"{g}^{row[j]}" for g, row in zip(gens, exponents) if row[j]) for j in range(m - 2)
    ]
    text = "\n".join(["[generators]", *gens, "[relators]", *relators, "[inclusion]", "g1", "g2"])
    return cli.parse_torsion_file(text)


def test_dense_relators_are_refused_before_the_elimination_fills(monkeypatch):
    # Every generator occurs in its relators as powers g^k, mostly with
    # |k| > 1, so the Tietze reduction keeps all 24, and the cofactor
    # expansion of the 24x24 matrix is refused by its count of term pairs
    # before it multiplies any, having packed only the last column.
    inp = _dense_relators_input(24)
    assert len(_tietze_reduce(inp).presentation.generators) == 24
    pairs = count_calls(monkeypatch, iadd_product, lambda acc, p, q, sign: len(p) * len(q))
    packed = count_calls(monkeypatch, _pack_column, lambda column, shifts: 1)
    with pytest.raises(InputTooLarge, match=f"more than {MAX_TERM_PRODUCTS} term products"):
        sutured_torsion(inp)
    assert sum(pairs) == 0
    assert 1 <= len(packed) <= 2


@pytest.mark.parametrize("n, surface, budget", [(7, "S", 96), (-1, "Sprime", 15)])
def test_cofactor_keeps_only_minors_that_hold_the_rows_zero_further_left(
    monkeypatch, n, surface, budget
):
    # The x row is zero in columns 0 and 1, and at n = -1 on S' the b row is
    # zero in column 0, so a 2x2 minor of columns 1 and 2 without them is not
    # kept: S keeps 2 of the 3 nonzero ones and S' keeps 1.  The budget is
    # the term products of the kept minors, on the columns as cleared (at
    # n = 7 on S both inclusion columns are); keeping the others as well
    # would take 112 and 20.
    matrix = fox_matrix(lyon_input(n, surface))
    monkeypatch.setattr(torsion, "MAX_TERM_PRODUCTS", budget)
    assert det_cofactor(matrix) == det_first_column(matrix)


def test_sparse_matrix_has_no_dimension_budget(monkeypatch):
    # tridiagonal without units: at most r + 1 nonzero minors of size r, so
    # the expansion multiplies term pairs quadratic in n (2,638 at n = 30,
    # 10,678 at 60 and 42,958 at 120), far below MAX_TERM_PRODUCTS
    n = 60
    x = monomial((1,))
    a, b, c = x + 2, x - 3, 2 * x
    matrix = [[LaurentPoly.zero(1)] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = a
        if i:
            matrix[i][i - 1], matrix[i - 1][i] = b, c
    expected, previous = a, LaurentPoly.one(1)
    for _ in range(n - 1):
        expected, previous = a * expected - b * c * previous, expected
    pairs = count_calls(monkeypatch, iadd_product, lambda acc, p, q, sign: len(p) * len(q))
    assert det_cofactor(matrix) == expected
    assert sum(pairs) == 10_678


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
        unit = monomial(
            (rng.randint(-4, 4), rng.randint(-4, 4)), rng.choice((1, -1))
        )
        assert torsion_normal_form(unit * p) == torsion_normal_form(p)


def test_column_permutation_leaves_class_unchanged():
    rng = random.Random(59)
    matrix = fox_matrix(lyon_input(1, "S"))
    base = torsion_normal_form(det_cofactor(matrix))
    for _ in range(5):
        cols = list(range(3))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in matrix]
        assert torsion_normal_form(det_cofactor(permuted)) == base


def test_reflect_examples():
    symmetric = TorsionClass(
        poly2({(1, 0): 1, (0, 3): 1}) * poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    )  # (b + x^3)(1 + x + x^2)
    assert symmetric.is_centrally_symmetric()
    assert TorsionClass(monomial((3, -2), 5)).is_centrally_symmetric()
    assert not TorsionClass(
        poly2({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    ).is_centrally_symmetric()


def test_reflect_is_involution():
    rng = random.Random(61)
    for _ in range(100):
        t = TorsionClass(random_laurent(rng))
        assert reflect(reflect(t)) == t


def normalize_reference(poly):
    """The normal form in two passes: shift to minimum exponent 0, then
    negate when the graded-lex smallest coefficient is negative."""
    if poly.is_zero:
        return poly
    shifted = poly.shifted(tuple(-e for e in poly.min_exponents()))
    smallest = min(shifted.terms, key=lambda e: (sum(e), e))
    return -shifted if shifted.terms[smallest] < 0 else shifted


@settings(max_examples=400, deadline=None)
@given(laurent_polys())
def test_one_pass_normal_form_matches_shift_then_negate(poly):
    assert _normalize(poly) == normalize_reference(poly)


@st.composite
def mirror_cases(draw):
    """(kind, change, class): a random class, or one built centrally
    symmetric with sign +1 (c(M - e) = c(e)) or -1 (c(M - e) = -c(e)); then
    maybe one coefficient changed or one term moved.  Each class is shifted
    and multiplied by +-1 before it is normalized."""
    rank = draw(st.integers(0, 3))
    box = st.tuples(*[st.integers(0, 4)] * rank)
    coeffs = st.integers(-9, 9).filter(bool)
    terms = draw(st.dictionaries(box, coeffs, max_size=10))
    kind = draw(st.sampled_from(("random", "plus", "minus")))
    if kind != "random":
        sign = 1 if kind == "plus" else -1
        top = draw(box)
        built = {}
        for e, c in terms.items():
            m = tuple(map(sub, top, e))
            # a term at the centre would need c = -c under sign -1
            if e not in built and (m != e or sign > 0):
                built[e], built[m] = c, sign * c
        terms = built
    change = draw(st.sampled_from((None, "coefficient", "move")))
    free = [e for e in itertools.product(range(-1, 6), repeat=rank) if e not in terms]
    if not terms or (change == "move" and not free):
        change = None
    if change is not None:
        e = draw(st.sampled_from(sorted(terms)))
        if change == "coefficient":
            other = coeffs.filter(lambda c: c != terms[e])
            terms[e] = draw(st.one_of(st.just(-terms[e]), other))
        else:
            terms[draw(st.sampled_from(free))] = terms.pop(e)
    offset = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    unit = draw(st.sampled_from((1, -1)))
    return kind, change, TorsionClass(LaurentPoly(rank, terms).shifted(offset) * unit)


@settings(max_examples=800, deadline=None)
@given(mirror_cases())
def test_mirror_lookup_agrees_with_reflection(case):
    kind, change, t = case
    assert t.is_centrally_symmetric() == (reflect(t) == t)
    if kind != "random" and change is None:
        assert t.is_centrally_symmetric()


def test_mirror_lookup_on_the_zero_class_and_in_rank_0():
    for rank in range(4):
        zero = TorsionClass(LaurentPoly.zero(rank))
        assert zero.is_centrally_symmetric() and reflect(zero) == zero
    for c in (1, -1, 7):
        t = TorsionClass(LaurentPoly.constant(0, c))
        assert t.is_centrally_symmetric() and reflect(t) == t


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


def test_tietze_enlarged_matrix_reduces_by_unit_pivots(monkeypatch):
    # Each Tietze move on the words removes a row and a column of the Fox
    # matrix that cross at a unit, so the 7x7 matrix reaches the
    # expansion at 3x3 or smaller.
    enlarged = tietze_enlarge(random.Random(9121), lyon_input(2, "Sprime"), 4)
    assert len(fox_matrix(enlarged)) == 7
    dims = count_calls(monkeypatch, det_cofactor, len)
    sutured_torsion(enlarged)
    assert len(dims) == 1 and dims[0] <= 3


def test_family_matrix_reaches_cofactor_unreduced(monkeypatch):
    dims = count_calls(monkeypatch, det_cofactor, len)
    sutured_torsion(lyon_input(4, "S"))
    assert dims == [3]


def _letters(inp):
    return sum(len(w.letters) for w in inp.inclusion_words + inp.presentation.relators)


@st.composite
def reducible_inputs(draw):
    """Balanced inputs with generators to eliminate: a Lyon input enlarged
    by `tietze_enlarge`, or four generators with up to three relators of at
    most six letters, which often hold a generator once (with either sign,
    and letters on both sides of it), abelianized by the Smith normal form
    or mapped by images drawn at random, which need not kill the relators."""
    if draw(st.booleans()):
        base = lyon_input(draw(st.integers(-1, 5)), draw(st.sampled_from(("S", "Sprime"))))
        return tietze_enlarge(random.Random(draw(st.integers(0, 2**32))), base, draw(st.integers(1, 6)))
    names = ("a", "b", "c", "d")
    letters = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, max_size=6).map(Word), min_size=4, max_size=4))
    relators = draw(st.integers(0, 3))
    pres = Presentation(names, words[:relators])
    if draw(st.booleans()):
        rank = draw(st.integers(1, 2))
        vectors = st.tuples(*[st.integers(-1, 1)] * rank)
        images = {g: draw(vectors) for g in names}
        return TorsionInput(pres, words[relators:], AbelianizationMap(rank, images))
    try:
        phi = abelianize_presentation(pres)
    except NontrivialTorsion:
        assume(False)
    return TorsionInput(pres, words[relators:], phi)


@settings(max_examples=200, deadline=None)
@given(reducible_inputs())
def test_reduced_words_give_the_class_of_the_unreduced_matrix(inp):
    reduced = _tietze_reduce(inp)
    assert reduced.presentation.generators
    assert reduced.abelianization is inp.abelianization
    assert sutured_torsion(inp) == torsion_normal_form(fox_determinant(inp))


@settings(max_examples=200, deadline=None)
@given(reducible_inputs())
def test_reduced_words_hold_no_more_letters_than_the_input(inp):
    assert _letters(_tietze_reduce(inp)) <= _letters(inp)


@pytest.mark.parametrize("n", [-1, 7, 150])
def test_family_inputs_are_not_reduced(n):
    # No generator occurs once in the relator of S, and replacing a, the
    # one that does on S', lengthens every inclusion word of S'.
    for surface in ("S", "Sprime"):
        inp = lyon_input(n, surface)
        assert _tietze_reduce(inp) is inp


def test_refused_moves_write_letters_linear_in_the_input(monkeypatch):
    """Every move is refused here: y_i := (a b)^-10 grows the first inclusion
    word, (y1 ... y10)^50, by 19 letters at each of its 50 occurrences,
    while its relator y_i (a b)^10 has 21.  A trial stops once the letters
    it has written pass the input's 712, so the reduction writes fewer
    letters than generators x input letters, the order of the per-generator
    Fox walk that it replaces; writing each trial's words out in full would
    take 14,500."""
    ys = [f"y{i}" for i in range(1, 11)]
    pres = Presentation(["a", "b", *ys], [f"{y} (a b)^10" for y in ys])
    inclusion = [parse_word(f"({' '.join(ys)})^50", pres.generators), parse_word("a b", "ab")]
    inp = TorsionInput(pres, inclusion, abelianize_presentation(pres))
    written = count_calls(monkeypatch, _push_reduced, lambda stack, atom: len(atom))
    assert _tietze_reduce(inp) is inp
    assert 0 < sum(written) <= len(pres.generators) * _letters(inp)


# -- relator rotations deleted from the inclusion words --------------------------


def _inverse(letters):
    return tuple((g, -e) for g, e in reversed(letters))


def _cyclic_core(letters):
    """The cyclically reduced c of a reduced word u c u^-1, peeled a letter
    pair at a time."""
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return letters


def _holds(word, part):
    m = len(part)
    return any(word[p : p + m] == part for p in range(len(word) - m + 1))


def _killed(inp):
    phi = inp.abelianization
    return [r.letters for r in inp.presentation.relators if not any(phi.prefix_exponents(r)[-1])]


@st.composite
def padded_inputs(draw, conjugators=(0, 3)):
    """Balanced inputs over a, b, c, d with one to three relators, whose
    inclusion words hold conjugates c r' c^-1, inserted at random points,
    of rotations r' of relators or of their inverses, with ``conjugators``
    bounding the letters drawn for c.  The map is the Smith normal form's,
    which kills every relator, or drawn images, which may kill some
    relators and not others."""
    names = ("a", "b", "c", "d")
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    relators = draw(
        st.lists(st.lists(letter, max_size=6).map(Word).filter(lambda w: w.letters),
                 min_size=1, max_size=3)
    )
    words = [list(w.letters) for w in draw(
        st.lists(st.lists(letter, max_size=6).map(Word),
                 min_size=4 - len(relators), max_size=4 - len(relators))
    )]
    for _ in range(draw(st.integers(1, 6))):
        r = draw(st.sampled_from(relators)).letters
        r = _inverse(r) if draw(st.booleans()) else r
        s = draw(st.integers(0, len(r) - 1))
        c = draw(st.lists(letter, min_size=conjugators[0], max_size=conjugators[1]))
        word = draw(st.sampled_from(words))
        p = draw(st.integers(0, len(word)))
        word[p:p] = c + list(r[s:] + r[:s]) + list(_inverse(c))
    pres = Presentation(names, relators)
    inclusion = [Word(w) for w in words]
    if draw(st.booleans()):
        rank = draw(st.integers(1, 2))
        vectors = st.tuples(*[st.integers(-1, 1)] * rank)
        images = {g: draw(vectors) for g in names}
        return TorsionInput(pres, inclusion, AbelianizationMap(rank, images))
    try:
        phi = abelianize_presentation(pres)
    except NontrivialTorsion:
        assume(False)
    return TorsionInput(pres, inclusion, phi)


@settings(max_examples=300, deadline=None)
@given(padded_inputs())
def test_deleting_relator_rotations_keeps_the_determinant(inp):
    """With no Tietze move taken, `_tietze_reduce` only deletes rotations of
    the killed relators' cores from the inclusion words: the Fox matrix's
    determinant is the same polynomial before and after, the relators stay,
    and no rotation of a killed core or of its inverse is left."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torsion, "_eliminate", lambda words, j, i, bound: None)
        deleted = _tietze_reduce(inp)
    assert deleted.presentation is inp.presentation
    before = det_cofactor(fox_matrix(inp))
    assert det_cofactor(fox_matrix(deleted)) == before
    assert sutured_torsion(inp) == torsion_normal_form(before)
    for core in map(_cyclic_core, _killed(inp)):
        for part in (core, _inverse(core)):
            rotations = {part[s:] + part[:s] for s in range(len(part))}
            for w in deleted.inclusion_words:
                assert not any(_holds(w.letters, q) for q in rotations)


@settings(max_examples=200, deadline=None)
@given(padded_inputs())
def test_a_hash_hit_deletes_only_letters_that_match(inp):
    """With every letter weighted 1, all windows of one length share a hash,
    so every window of a core's length is a hit, and only the letter check
    keeps the deletion exact."""
    letters = [(g, e) for g in inp.presentation.generators for e in (1, -1)]
    words = [w.letters for w in inp.inclusion_words]
    alike = _delete_relators(words, _killed(inp), dict.fromkeys(letters, 1))
    assert all(len(w) <= len(v) for w, v in zip(alike, words))
    deleted = TorsionInput(inp.presentation, [Word._from_reduced(w) for w in alike],
                           inp.abelianization)
    assert det_cofactor(fox_matrix(deleted)) == det_cofactor(fox_matrix(inp))


def test_a_conjugate_goes_and_its_conjugator_cancels():
    # b a^-1 is a rotation of the inverse of the relator a b^-1, so it goes
    # from x b a^-1 x^-1, and x x^-1 cancels; x^2 holds none and is returned
    # as given.
    pres = Presentation(["a", "b", "x"], ["a b^-1"])
    inclusion = [parse_word("a x b a^-1 x^-1 b", pres.generators),
                 parse_word("x^2", pres.generators)]
    weights = {(g, e): e * i for i, g in enumerate("abx", 1) for e in (1, -1)}
    deleted = _delete_relators([w.letters for w in inclusion], [pres.relators[0].letters], weights)
    assert deleted == [(("a", 1), ("b", 1)), inclusion[1].letters]
    assert deleted[1] is inclusion[1].letters


def test_a_deletion_that_exposes_another_core_is_scanned_again():
    # Deleting c d exposes a b b a, a rotation of the core a a b b, whose
    # halves a a and b b (and A A, B B of its inverse) the word a b c d b a
    # does not hold: only a second scan, with that core too, empties it.
    weights = {(g, e): e * i for i, g in enumerate("abcd", 1) for e in (1, -1)}
    relators = [parse_word(r, "abcd").letters for r in ("c d", "a^2 b^2")]
    word = parse_word("a b c d b a", "abcd").letters
    assert _delete_relators([word], relators, weights) == [()]


def test_deletion_alone_returns_a_new_input_and_nothing_deleted_the_input():
    pres = Presentation(["a", "b", "c"], ["a b a^-1 b^-1 c^2 a c^-2"])
    phi = AbelianizationMap(2, {"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    kept = TorsionInput(pres, [parse_word("b c", "abc"), parse_word("c^3 b", "abc")], phi)
    assert _tietze_reduce(kept) is kept
    padded_word = parse_word("b (a b a^-1 b^-1 c^2 a c^-2)^-3 c", "abc")
    padded = TorsionInput(pres, [padded_word, kept.inclusion_words[1]], phi)
    deleted = _tietze_reduce(padded)
    assert deleted.presentation is pres
    assert deleted.inclusion_words == kept.inclusion_words
    assert sutured_torsion(padded) == sutured_torsion(kept)


def _production_weights(generators):
    """The letter weights `_tietze_reduce` gives `_delete_relators`."""
    return {(g, e): e * i for i, g in enumerate(generators, 1) for e in (1, -1)}


def _assert_deletes_as_the_letter_scan(words, relators, weights):
    """`_delete_relators` returns the letter-by-letter reference's words,
    under the given weights and under all-ones weights, whose collisions
    leave only the first rotation hashed at each length in the tables."""
    for w in (weights, dict.fromkeys(weights, 1)):
        expected = delete_relators_by_letters(words, relators, w)
        assert _delete_relators(words, relators, w) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(padded_inputs(), padded_inputs(conjugators=(20, 60))))
def test_the_scan_deletes_what_the_letter_scan_deletes(inp):
    """Short conjugators, and 20- to 60-letter ones, the `long-words`
    shape, where the scan jumps between halves and the letters after a
    deletion cancel a long conjugator off the stack."""
    words = [w.letters for w in inp.inclusion_words]
    _assert_deletes_as_the_letter_scan(
        words, _killed(inp), _production_weights(inp.presentation.generators)
    )


def _random_padded_calls(rng, count):
    """(words, relators, weights) of ``count`` random calls: one to three
    relators of one to seven letters over one to four generators, and one
    to three words, each of up to six letters with up to eight conjugates
    c r' c^-1 of rotations r' of the relators or their inverses inserted,
    the conjugators of up to 3 or up to 60 random letters.  Half the time
    the weights list 18 unused generators first, which puts the letters'
    characters past ASCII."""
    for _ in range(count):
        names = "abcd"[: rng.randint(1, 4)]
        relators = [
            list(_random_reduced(rng, names, rng.randint(1, 7))) for _ in range(rng.randint(1, 3))
        ]
        words = [
            list(_random_reduced(rng, names, rng.randint(0, 6))) for _ in range(rng.randint(1, 3))
        ]
        longest = rng.choice((3, 60))
        for _ in range(rng.randint(1, 8)):
            r = rng.choice(relators)
            r = list(_inverse(r)) if rng.random() < 0.5 else r
            s = rng.randrange(len(r))
            c = list(_random_reduced(rng, names, rng.randint(0, longest)))
            word = rng.choice(words)
            p = rng.randint(0, len(word))
            word[p:p] = c + r[s:] + r[:s] + list(_inverse(c))
        unused = [f"y{i}" for i in range(18)] if rng.random() < 0.5 else []
        yield [tuple(w) for w in words], [tuple(r) for r in relators], _production_weights(
            unused + list(names)
        )


def test_random_long_padded_words_delete_what_the_letter_scan_deletes():
    """Words of up to some 500 letters, where deletions come close together
    and cut below the hashes the scan keeps."""
    for words, relators, weights in _random_padded_calls(random.Random(11), 1500):
        _assert_deletes_as_the_letter_scan(words, relators, weights)


def test_the_designs_delete_what_the_letter_scan_deletes(tmp_path, monkeypatch):
    """Every call that the seed-7 and seed-8 `tietze`, `long-words` and
    `family` designs and Lyon S and S' at three n make."""
    sys.path.insert(0, str(TESTS_DIR.parent / "perfbench"))
    import workloads

    calls = []

    def recorded(words, relators, weights):
        calls.append((words, relators, weights))
        return _delete_relators(words, relators, weights)

    monkeypatch.setattr(torsion, "_delete_relators", recorded)
    for name in ("tietze", "long-words", "family"):
        for seed in (7, 8):
            for op in workloads.WORKLOADS[name].design(seed, str(tmp_path)):
                op.run()
    for n in (-1, 7, 150):
        for surface in ("S", "Sprime"):
            _tietze_reduce(lyon_input(n, surface))
    monkeypatch.undo()
    assert len(calls) == 2 * (13 + 11 + 11) + 6
    for words, relators, weights in calls:
        _assert_deletes_as_the_letter_scan(words, relators, weights)


def _value_at(inp, inclusion, point):
    """`fox_determinant_at` of the input's Fox matrix, with ``inclusion`` as
    its inclusion words."""
    pres = inp.presentation
    columns = list(inclusion) + [r.letters for r in pres.relators]
    return fox_determinant_at(columns, pres.generators, inp.abelianization.images, point)


def _polynomial_at(poly, point):
    """The Laurent polynomial's value at the point, mod ``FOX_PRIME``."""
    total = 0
    for exponents, coeff in poly.terms.items():
        v = coeff
        for t, e in zip(point, exponents):
            v = v * pow(t, e, FOX_PRIME) % FOX_PRIME
        total += v
    return total % FOX_PRIME


def _assert_deletion_keeps_the_value(inp, point):
    """The deletion, under the production weights and under all-ones weights,
    keeps the determinant's value at the point; return whether it deleted
    anything."""
    words = [w.letters for w in inp.inclusion_words]
    before = _value_at(inp, words, point)
    weights = _production_weights(inp.presentation.generators)
    changed = False
    for w in (weights, dict.fromkeys(weights, 1)):
        deleted = _delete_relators(words, _killed(inp), w)
        assert _value_at(inp, deleted, point) == before
        changed |= deleted != words
    return changed


@settings(max_examples=300, deadline=None)
@given(st.one_of(padded_inputs(), padded_inputs(conjugators=(20, 60))), st.data())
def test_the_deletion_keeps_the_determinant_at_a_random_point(inp, data):
    """A certificate that shares no code with the scan: deleting a rotation
    of a killed relator subtracts a multiple of the relator's column, so the
    Fox matrix's determinant, evaluated at a point of (F_p^*)^r, is the same
    before and after `_delete_relators`."""
    rank = inp.abelianization.rank
    point = data.draw(st.tuples(*[st.integers(1, FOX_PRIME - 1)] * rank))
    _assert_deletion_keeps_the_value(inp, point)


def test_the_designs_deletion_keeps_the_determinant_at_a_random_point(tmp_path):
    """The same certificate on the seed-7 `tietze` and `long-words` inputs,
    each at a random point, where the value before the deletion is the
    product's determinant's."""
    sys.path.insert(0, str(TESTS_DIR.parent / "perfbench"))
    import workloads

    rng = random.Random(7)
    changed = 0
    for name in ("tietze", "long-words"):
        for op in workloads.WORKLOADS[name].design(7, str(tmp_path)):
            inp = cli.load_torsion_file(op.inputs[0])
            point = tuple(rng.randrange(1, FOX_PRIME) for _ in range(inp.abelianization.rank))
            words = [w.letters for w in inp.inclusion_words]
            assert _value_at(inp, words, point) == _polynomial_at(fox_determinant(inp), point)
            changed += _assert_deletion_keeps_the_value(inp, point)
    assert changed == 13 + 11


def _random_reduced(rng, names, length):
    letters = []
    while len(letters) < length:
        letter = (rng.choice(names), rng.choice((1, -1)))
        if not letters or letters[-1] != (letter[0], -letter[1]):
            letters.append(letter)
    return tuple(letters)


def _letter_scan_inputs():
    """(id, words, relators, weights) of inputs built to make a scan work
    hard: a word that holds a long half of a core everywhere, and many
    random cores against long random words."""
    ab = ["a", "b"]
    yield (
        "a^20000 against a^9999 b",
        [parse_word("a^20000", ab).letters],
        [parse_word("a^9999 b", ab).letters],
        _production_weights(ab),
    )
    yield (
        "(a b a^-1 b^-1)^5000 against a 10,000-letter core",
        [parse_word("(a b a^-1 b^-1)^5000", ab).letters],
        [parse_word("(a b a^-1 b^-1)^2499 a b^-1 a^-1 b", ab).letters],
        _production_weights(ab),
    )
    rng = random.Random(5)
    names = [f"g{i}" for i in range(6)]
    yield (
        "50 random cores against 10 random 20,000-letter words",
        [_random_reduced(rng, names, 20_000) for _ in range(10)],
        [_random_reduced(rng, names, rng.randint(3, 12)) for _ in range(50)],
        _production_weights(names),
    )


@pytest.mark.parametrize("case", list(_letter_scan_inputs()), ids=lambda case: case[0])
def test_relator_deletion_hashes_no_more_windows_than_the_letter_scan(monkeypatch, case):
    """Windows looked up are counted, not seconds: the scan looks up at most
    the windows the letter-by-letter scan does, which is at most the
    letters times the window lengths of each scan, and deletes the same."""
    _, words, relators, weights = case
    scanned = count_window_lookups(monkeypatch, torsion, "_delete_rotations")
    by_letters = count_window_lookups(monkeypatch, helpers, "_delete_rotations_by_letters")
    assert _delete_relators(words, relators, weights) == delete_relators_by_letters(
        words, relators, weights
    )
    assert scanned["scans"] == by_letters["scans"]
    assert scanned["windows"] <= by_letters["windows"] <= by_letters["bound"]
    assert scanned["windows"] <= 2 * scanned["bound"]


def test_relator_deletion_is_linear_in_the_letters(monkeypatch):
    """The inclusion word (a b a^-1 b^-1)^5000, 20,000 letters, against the
    killed relator (a b a^-1 b^-1)^9 a b^-1 a^-1 b of 40 letters, whose
    rotations it never holds but whose first half it holds everywhere.
    Every window of a length divisible by 4 has zero abelian image, so a
    filter on images would compare letters at every other position; the
    rolling hash compares none.  Windows looked up and hits are counted,
    not seconds: no hit, and windows within twice the letters times the one
    core length."""
    pres = Presentation(["a", "b"], ["(a b a^-1 b^-1)^9 a b^-1 a^-1 b"])
    word = parse_word("(a b a^-1 b^-1)^5000", "ab")
    inp = TorsionInput(pres, [word], AbelianizationMap(1, {"a": (1,), "b": (0,)}))
    counts = count_window_lookups(monkeypatch, torsion, "_delete_rotations")
    assert _tietze_reduce(inp) is inp
    assert counts["scans"] == 1
    assert counts["hits"] == 0
    assert counts["windows"] <= 2 * len(word.letters) * 1


# -- Fox's fundamental formula ---------------------------------------------------
#
# In the group ring w - 1 = sum_g (dw/dg)(g - 1) (Fox 1953, Free differential
# calculus I).  Abelianized, with d_i = x^phi(g_i) - 1, column j of the
# uncleared `fox_matrix` satisfies  sum_i M[i][j] d_i = x^phi(w_j) - 1,  which
# is 0 for a relator column.  Replacing row k by sum_i d_i row_i multiplies
# the determinant by d_k and leaves the row (x^phi(w_j) - 1 on the l
# inclusion columns, 0 on the relator columns), so expanding along it gives
#   det M * d_k = sum_{j<l} (-1)^(k+j) (x^phi(w_j) - 1) det M_kj
# with the minors M_kj taken by `det_cofactor_tuples` on the uncleared
# matrix.  The right side uses no clearing, unit elimination, key packing or
# binomial division, so it checks `fox_determinant` against minors that use
# none.

TESTS_DIR = Path(__file__).parent
# No determinant to check: fox_determinant takes over 0.1 s on the first two,
# and refuses the third with InputTooLarge.
NO_ROW_CHECK = {"random-words-2000.tor", "budget-power.tor", "rank11-commutators.tor"}
# No torsion at all: H_1 has a finite factor, and the golden reports pin the
# NontrivialTorsion refusal.
REFUSED = {"finite-h1.tor", "finite-h1-basis.tor"}


def _fundamental_inputs(workdir):
    """(name, TorsionInput): every golden and tests/inputs file outside
    ``REFUSED``, the seed-7 `tietze` and `long-words` design files, and Lyon
    S and S' at four n."""
    sys.path.insert(0, str(TESTS_DIR.parent / "perfbench"))
    import workloads

    found = []
    for path in sorted([*TESTS_DIR.glob("golden/*.tor"), *TESTS_DIR.glob("inputs/*.tor")]):
        if path.name not in REFUSED:
            found.append((path.name, cli.load_torsion_file(str(path))))
    for name in ("tietze", "long-words"):
        for i, op in enumerate(workloads.WORKLOADS[name].design(7, str(workdir))):
            found.append((f"{name}:{i}", cli.load_torsion_file(op.inputs[0])))
    for n in (-1, 0, 7, 150):
        for surface in ("S", "Sprime"):
            found.append((f"lyon {n} {surface}", lyon_input(n, surface)))
    return found


@pytest.fixture(scope="module")
def fundamental_inputs(tmp_path_factory):
    return _fundamental_inputs(tmp_path_factory.mktemp("designs"))


def _minus_one(exponents):
    """x^exponents - 1."""
    return monomial(exponents) - monomial((0,) * len(exponents))


def _word_minus_one(tinput, word):
    return _minus_one(tinput.abelianization.prefix_exponents(word)[-1])


def test_fox_columns_satisfy_the_fundamental_formula(fundamental_inputs):
    assert len(fundamental_inputs) == 16 + 13 + 11 + 8
    for name, tinput in fundamental_inputs:
        phi = tinput.abelianization
        matrix = fox_matrix(tinput)
        d = [_minus_one(phi.images[g]) for g in tinput.presentation.generators]
        zero = LaurentPoly.zero(phi.rank)
        l = len(tinput.inclusion_words)
        for j, w in enumerate(tinput.inclusion_words + tinput.presentation.relators):
            column = zero
            for row, d_i in zip(matrix, d):
                column = column + row[j] * d_i
            assert column == (_word_minus_one(tinput, w) if j < l else zero), (name, j)


def test_the_determinant_satisfies_the_row_replacement(fundamental_inputs):
    checked = 0
    for name, tinput in fundamental_inputs:
        phi = tinput.abelianization
        d = [_minus_one(phi.images[g]) for g in tinput.presentation.generators]
        k = next((i for i, d_i in enumerate(d) if not d_i.is_zero), None)
        if name in NO_ROW_CHECK or not phi.rank or not tinput.inclusion_words or k is None:
            continue
        matrix = fox_matrix(tinput)
        expansion = LaurentPoly.zero(phi.rank)
        for j, w in enumerate(tinput.inclusion_words):
            minor = [
                [e for c, e in enumerate(row) if c != j]
                for r, row in enumerate(matrix)
                if r != k
            ]
            term = _word_minus_one(tinput, w) * det_cofactor_tuples(minor)
            expansion = expansion + (-term if (k + j) % 2 else term)
        assert fox_determinant(tinput) * d[k] == expansion, name
        checked += 1
    # the 16 files less the two of rank 0 and the three above
    assert checked == 11 + 13 + 11 + 8
