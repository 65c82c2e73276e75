import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import Generator, Presentation, Word, parse_word, render_word
from foxtorsion.words import MAX_NESTING
from foxtorsion.errors import ParseError, UnknownGenerator, WordSizeError

from helpers import random_word

GENS = (Generator("a"), Generator("b"), Generator("x"))


def lets(text):
    """Compact letter notation: 'a A b' -> ((a,+1),(a,-1),(b,+1))."""
    out = []
    for tok in text.split():
        if tok.isupper():
            out.append((tok.lower(), -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def test_parse_relator_word():
    w = parse_word("x^3 b^-2 a^-2", GENS)
    assert w.letters == lets("x x x B B A A")


def test_parse_empty_is_identity():
    assert parse_word("", GENS) == Word.identity()
    assert parse_word("   ", GENS).is_identity


def test_parse_reduces_across_atoms():
    # the n=0 surface word: (a b^-1)^1 b^2 = a b
    w = parse_word("(a b^-1)^1 b^2", GENS)
    assert w.letters == lets("a b")


def test_parse_nested_and_negative_powers():
    assert parse_word("((a b)^2)^-1", GENS) == parse_word("b^-1 a^-1 b^-1 a^-1", GENS)
    assert parse_word("x^0", GENS).is_identity


def test_parse_unknown_generator_reports_position():
    with pytest.raises(ParseError) as info:
        parse_word("a qq", GENS)
    assert info.value.position == 2
    assert "qq" in str(info.value)


def test_parse_malformed_exponent():
    with pytest.raises(ParseError) as info:
        parse_word("a^", GENS)
    assert info.value.position == 2
    with pytest.raises(ParseError):
        parse_word("a^+", GENS)


def test_parse_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_word("(a b", GENS)
    with pytest.raises(ParseError):
        parse_word("a ) b", GENS)


def test_parse_nesting_depth_limit():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_word(deepest, GENS) == parse_word("a", GENS)
    too_deep = "(" * 3000 + "a" + ")" * 3000
    with pytest.raises(ParseError) as info:
        parse_word(too_deep, GENS)
    assert info.value.position == MAX_NESTING
    assert str(MAX_NESTING) in str(info.value)


def test_parse_rejects_stray_characters():
    with pytest.raises(ParseError):
        parse_word("a * b", GENS)


def test_exponent_magnitude_limit():
    with pytest.raises(WordSizeError):
        parse_word(f"a^{2**31 + 1}", GENS)


def test_word_size_limit():
    with pytest.raises(WordSizeError):
        parse_word("(a b)^100000", GENS)
    with pytest.raises(WordSizeError):
        parse_word("a b", GENS) ** 100000


def test_invert_example():
    w = parse_word("a b^-1", GENS)
    assert w.inverse().letters == lets("b A")
    assert ~w == w.inverse()


def test_power_example():
    w = parse_word("b a^-1", GENS)
    assert (w ** 3).letters == lets("b A b A b A")
    assert w ** -2 == (w.inverse()) ** 2


def test_multiply_cancellation_example():
    left = parse_word("a b", GENS)
    right = parse_word("b^-1 a", GENS)
    assert (left * right).letters == lets("a a")


# -- properties --------------------------------------------------------------

letters_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "x"]), st.sampled_from([1, -1])),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(letters_strategy)
def test_render_parse_round_trip(raw):
    w = Word(raw)
    assert parse_word(render_word(w), GENS) == w


@settings(max_examples=100, deadline=None)
@given(letters_strategy, letters_strategy, letters_strategy)
def test_multiplication_is_associative(r1, r2, r3):
    u, v, w = Word(r1), Word(r2), Word(r3)
    assert (u * v) * w == u * (v * w)


@settings(max_examples=100, deadline=None)
@given(letters_strategy)
def test_inverse_laws(raw):
    w = Word(raw)
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


def test_reduction_is_confluent():
    # Inserting cancelling pairs anywhere must reduce back to the original.
    rng = random.Random(2024)
    for _ in range(200):
        w = random_word(rng)
        padded = list(w.letters)
        for _ in range(rng.randint(1, 6)):
            spot = rng.randint(0, len(padded))
            name = rng.choice(("a", "b", "x"))
            sign = rng.choice((1, -1))
            padded[spot:spot] = [(name, sign), (name, -sign)]
        assert Word(padded) == w


def test_generator_name_validation():
    with pytest.raises(ValueError):
        Generator("")
    with pytest.raises(ValueError):
        Generator("1bad")
    Generator("A_ok2")


def test_presentation_checks_relator_generators():
    with pytest.raises(ParseError):
        Presentation(("a", "b"), ("a c",))
    with pytest.raises(UnknownGenerator):
        Presentation(("a", "b"), (Word((("c", 1),)),))
    with pytest.raises(ValueError):
        Presentation(("a", "a"))


def test_presentation_deficiency():
    pres = Presentation(("a", "b", "x"), ("x^3 b^-2 a^-2",))
    assert pres.deficiency == 2
    assert pres.generator_names == ("a", "b", "x")
