import pytest

from foxtorsion import (
    AbelianizationMap,
    LaurentPoly,
    TorsionClass,
    parse_word,
    sutured_torsion,
)
from foxtorsion.groupring import fox_derivative
from foxtorsion.lyon import (
    LyonCase,
    expected_torsion,
    lyon_input,
    lyon_surface_words,
)
from foxtorsion.torsion import det_cofactor, torsion_normal_form
from foxtorsion.words import render_word
from foxtorsion.errors import UnsupportedN

from helpers import substitute, surface_block_poly


def poly2(terms):
    return LaurentPoly(2, terms)


def test_case_validation():
    with pytest.raises(UnsupportedN):
        LyonCase(-2, "S")
    with pytest.raises(ValueError):
        LyonCase(0, "T")


def test_input_at_zero():
    inp = lyon_input(0, "S")
    assert inp.presentation.generators == ("a", "b", "x")
    assert [render_word(r) for r in inp.presentation.relators] == ["x^3 b^-2 a^-2"]
    assert [render_word(w) for w in inp.inclusion_words] == ["a b", "b a b a^-1"]
    assert inp.abelianization.basis_names == ("a", "u")
    assert inp.abelianization.images == {"a": (1, 0), "b": (-1, 3), "x": (0, 2)}


def test_words_at_minus_one():
    alpha, beta = lyon_surface_words(LyonCase(-1, "S"))
    assert render_word(alpha) == "b^2"
    assert render_word(beta) == "b a"


def test_primed_input_at_zero():
    inp = lyon_input(0, "Sprime")
    assert [render_word(r) for r in inp.presentation.relators] == [
        "x^3 b^-2 a^-1 b^-1"
    ]
    assert [render_word(w) for w in inp.inclusion_words] == ["a b a^-1", "a b^-1 a b^2"]
    assert inp.abelianization.basis_names == ("b", "x")
    assert inp.abelianization.images["a"] == (-3, 3)


def test_expected_values_from_printed_products():
    three_u = poly2({(0, 0): 1, (0, 2): 1, (0, 4): 1})
    three_x = poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    assert expected_torsion(0, "S") == TorsionClass(
        poly2({(1, 0): 1, (0, 6): 1}) * three_u
    )
    assert expected_torsion(1, "Sprime") == TorsionClass(
        poly2({(5, 0): 1, (1, 3): 1, (2, 3): 1, (3, 3): 1, (4, 3): 1, (0, 6): 1})
        * three_x
    )
    assert expected_torsion(-1, "Sprime") == TorsionClass(
        poly2({(0, 0): 1, (1, 0): 1}) * three_x
    )


def test_block_poly_small_cases():
    assert surface_block_poly(-1) == poly2({(0, 0): 1, (0, 1): 1})  # 1 + b
    assert surface_block_poly(0) == poly2({(0, 0): 1, (1, 2): 1})  # 1 + a b^2
    # consistent with the closed form and with both Fox-matrix blocks; the
    # recurrence must be iterated on closed-form representatives to land here
    assert surface_block_poly(1) == poly2(
        {(1, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, (1, 3): 1}
    )


def test_block_poly_same_sign_coefficients():
    # normalization makes the shared sign positive
    for n in range(-1, 9):
        assert all(c > 0 for c in surface_block_poly(n).terms.values())


def test_block_poly_rejects_out_of_range():
    with pytest.raises(UnsupportedN):
        surface_block_poly(-2)


def test_huge_parameters_hit_the_word_size_limit():
    from foxtorsion.errors import WordSizeError

    with pytest.raises(WordSizeError):
        lyon_surface_words(LyonCase(50_000, "S"))


def _block_from_words(case):
    free_ab = AbelianizationMap(2, {"a": (1, 0), "b": (0, 1)}, ("a", "b"))
    words = lyon_surface_words(case)
    block = [[free_ab(fox_derivative(w, g)) for w in words] for g in ("a", "b")]
    return torsion_normal_form(det_cofactor(block))


def test_block_poly_matches_fox_block_for_both_surfaces():
    for n in range(-1, 6):
        expected = torsion_normal_form(surface_block_poly(n))
        assert _block_from_words(LyonCase(n, "S")) == expected
        assert _block_from_words(LyonCase(n, "Sprime")) == expected


def test_torsion_factors_through_block_poly():
    # abelianizing block * (1 + x + x^2) reproduces the closed-form torsion
    for n in range(-1, 5):
        block = surface_block_poly(n)
        shifted = substitute(block, [(1, 0), (-1, 3)])  # a -> a, b -> u^3 a^-1
        relator_factor = poly2({(0, 0): 1, (0, 2): 1, (0, 4): 1})  # image of 1+x+x^2
        assert TorsionClass(shifted * relator_factor) == expected_torsion(n, "S")
        shifted_primed = substitute(block, [(-3, 3), (1, 0)])  # a -> x^3 b^-3, b -> b
        relator_primed = poly2({(0, 0): 1, (0, 1): 1, (0, 2): 1})
        assert TorsionClass(shifted_primed * relator_primed) == expected_torsion(
            n, "Sprime"
        )


def test_pipeline_agrees_with_oracle():
    for n in range(-1, 7):
        for surface in ("S", "Sprime"):
            assert sutured_torsion(lyon_input(n, surface)) == expected_torsion(
                n, surface
            ), (n, surface)


def test_primed_torsion_centrally_symmetric_in_checked_range():
    # justifies reading the positive-side computation as the torsion itself
    for n in (-1, 0):
        assert sutured_torsion(lyon_input(n, "Sprime")).is_centrally_symmetric()


def test_coefficient_sums_both_surfaces():
    for n in range(-1, 7):
        for surface in ("S", "Sprime"):
            assert expected_torsion(n, surface).coefficient_sum() == abs(6 + 12 * n)


def alexander_coefficients(n):
    """(top, middle) coefficients of the family's symmetric degree-1 polynomial."""
    return (6 + 12 * n, -(11 + 24 * n))


def test_alexander_coefficients():
    assert alexander_coefficients(0) == (6, -11)
    assert alexander_coefficients(-1) == (-6, 13)
    assert alexander_coefficients(1) == (18, -35)


def test_parse_word_reproduces_family_words():
    gens = ("a", "b", "x")
    alpha, beta = lyon_surface_words(LyonCase(2, "S"))
    assert alpha == parse_word("(a b^-1)^3 b^2", gens)
    assert beta == parse_word("b a (b a^-1)^3", gens)
