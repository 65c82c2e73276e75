import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import Generator, Presentation, Word, parse_word, render_word
from foxtorsion.words import MAX_NESTING, MAX_WORD_LETTERS
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


def test_exponent_digit_run_limit():
    # Rejected on length alone, before int() meets the integer-string limit.
    for text in ("a^" + "9" * 5000, "a^-" + "1" * 5000, "a^" + "0" * 11 + "1"):
        with pytest.raises(WordSizeError, match="digits"):
            parse_word(text, GENS)
    assert parse_word("a^" + "0" * 9 + "3", GENS) == parse_word("a^3", GENS)


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


# -- parser against a syntax-tree fold ------------------------------------------
#
# A syntax tree is a term list of (atom, exponent) pairs: the atom is a
# generator name or a nested term list, the exponent an int or None.  The
# reference folds it through Word.__mul__ and Word.__pow__, atom by atom,
# which re-reduces the whole accumulated word each time; parse_word must give
# the same word, or the same error, in one linear pass.


def fold(tree):
    acc = Word.identity()
    for atom, k in tree:
        w = Word.generator(atom) if isinstance(atom, str) else fold(atom)
        if k is not None:
            w = w ** k
        acc = acc * w
    return acc


def render_tree(tree):
    parts = []
    for atom, k in tree:
        text = atom if isinstance(atom, str) else f"({render_tree(atom)})"
        parts.append(text if k is None else f"{text}^{k}")
    return " ".join(parts)


_TOKEN_RE = re.compile(r"\(|\)|\^[+-]?\d+|[A-Za-z][A-Za-z0-9_]*")


def syntax_tree(text):
    """The syntax tree of a well-formed word text."""
    stack = [[]]
    for tok in _TOKEN_RE.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            inner = stack.pop()
            stack[-1].append((inner, None))
        elif tok[0] == "^":
            atom, _ = stack[-1][-1]
            stack[-1][-1] = (atom, int(tok[1:]))
        else:
            stack[-1].append((tok, None))
    (tree,) = stack
    return tree


def outcome(compute):
    try:
        return ("word", compute().letters)
    except (ParseError, WordSizeError) as exc:
        return (type(exc).__name__, str(exc))


def trees(depth):
    atoms = st.sampled_from(["a", "b", "x"])
    if depth:
        atoms = atoms | trees(depth - 1)
    return st.lists(st.tuples(atoms, st.none() | st.integers(-3, 3)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(trees(4))
def test_parse_matches_the_tree_fold(tree):
    text = render_tree(tree)
    assert syntax_tree(text) == tree
    assert outcome(lambda: parse_word(text, GENS)) == outcome(lambda: fold(tree))


@pytest.mark.parametrize(
    "text, kind",
    [
        ("(a b a^-1)^3", "word"),
        ("(a a^-1)^5", "word"),
        ("a (a^-1 b)^2", "word"),
        ("(a b a^-1)^-3 a b^3", "word"),
        ("b (a b)^2 (b^-1 a^-1)^2 b^-1", "word"),
        ("((a x^-1)^2 (x a^-1)^2)^3 x", "word"),
        ("(x^0 a)^-1 (a^-1)^-1", "word"),
        # within the size limit only because the power reduces to 2,002 letters
        ("b^15000 (a b a^-1)^2000", "word"),
        ("(a b)^10001", "WordSizeError"),
        ("a^20000 b", "WordSizeError"),
        ("a^-20001", "WordSizeError"),
        ("a^20000 a^-20000 b^20001", "WordSizeError"),
        ("(a b^-1)^5000 (a b)^5000 a", "WordSizeError"),
        ("a^10000 (b^10000 x)", "WordSizeError"),
        ("((a b)^5000 a)^2", "WordSizeError"),
        ("(a^20000 b)^1", "WordSizeError"),
    ],
)
def test_cancelling_and_oversized_texts_match_the_tree_fold(text, kind):
    expected = outcome(lambda: fold(syntax_tree(text)))
    assert expected[0] == kind
    assert outcome(lambda: parse_word(text, GENS)) == expected


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a qq", "unknown generator 'qq'", 2),
        ("a1", "unknown generator 'a1'", 0),
        ("(a b)^2 c", "unknown generator 'c'", 8),
        ("a^", "malformed exponent", 2),
        ("a^-", "malformed exponent", 2),
        ("(a)^", "malformed exponent", 4),
        ("a^x", "malformed exponent", 2),
        ("a^2^3", "unexpected character '^'", 3),
        ("^2", "unexpected character '^'", 0),
        ("a * b", "unexpected character '*'", 2),
        ("((a)^2 b", "unbalanced parentheses: missing ')'", 0),
        ("a  b^1 (x", "unbalanced parentheses: missing ')'", 7),
        ("a (", "unbalanced parentheses: missing ')'", 2),
        ("a b)", "unbalanced parentheses: unexpected ')'", 3),
        ("x^3 b^-2 a^-2 )", "unbalanced parentheses: unexpected ')'", 14),
    ],
)
def test_parse_errors_keep_their_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_word(text, GENS)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_a_size_error_comes_before_a_later_parse_error():
    # Errors are raised left to right: the oversized product is met first.
    for text in ("a^20000 b^20000 )", "a^20000 b^20000 qq"):
        with pytest.raises(WordSizeError, match="product exceeds"):
            parse_word(text, GENS)


def _timed_parse(text):
    start = time.perf_counter()
    word = parse_word(text, GENS)
    return word, time.perf_counter() - start


def test_parsing_a_full_budget_of_tokens_is_linear():
    # One token per letter of the budget.  Re-reducing the accumulated word
    # on every atom, as a fold through Word.__mul__ does, takes tens of
    # seconds here; one pass takes milliseconds.
    tokens = ["a", "b^-1", "x"] * (MAX_WORD_LETTERS // 3) + ["a"] * (MAX_WORD_LETTERS % 3)
    word, seconds = _timed_parse(" ".join(tokens))
    assert len(word) == MAX_WORD_LETTERS
    assert seconds < 1.0
    # The second half inverts the first, so the reduced word stays long until
    # the inverse letters cancel it down to the identity, pair by pair.
    half = tokens[: MAX_WORD_LETTERS // 2]
    inverse = {"a": "a^-1", "b^-1": "b", "x": "x^-1"}
    word, seconds = _timed_parse(" ".join(half + [inverse[t] for t in reversed(half)]))
    assert word.is_identity
    assert seconds < 1.0
