import json
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import Presentation, parse_word, words
from foxtorsion.cli import main
from foxtorsion.lyon import SURFACES, LyonCase, lyon_presentation, lyon_surface_words
from foxtorsion.words import (
    MAX_EXPANDED_LETTERS,
    MAX_NESTING,
    MAX_WORD_LETTERS,
    render_word,
)
from foxtorsion.errors import (
    InvalidGeneratorName,
    ParseError,
    UnknownGenerator,
    WordSizeError,
)

from helpers import (
    Word,
    count_calls,
    random_word,
    reduce_letters,
    reference_parse_word,
    reference_render_word,
)

GENS = ("a", "b", "x")


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
    assert parse_word("   ", GENS) == Word()


def test_parse_reduces_across_atoms():
    # the n=0 surface word: (a b^-1)^1 b^2 = a b
    w = parse_word("(a b^-1)^1 b^2", GENS)
    assert w.letters == lets("a b")


def test_parse_nested_and_negative_powers():
    assert parse_word("((a b)^2)^-1", GENS) == parse_word("b^-1 a^-1 b^-1 a^-1", GENS)
    assert parse_word("x^0", GENS) == Word()


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
    # a one-letter word, so only the exponent check can refuse the power
    with pytest.raises(WordSizeError, match="exponent magnitude"):
        Word.generator("a") ** (2**31 + 1)


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
        Word(lets("a b")) ** 100000
    with pytest.raises(WordSizeError, match="letters exceeds the limit"):
        Word([("a", 1)] * (MAX_WORD_LETTERS + 1))


def test_word_letters_need_a_unit_sign():
    with pytest.raises(ValueError, match="sign must be"):
        Word([("a", 2)])


def test_invert_example():
    w = Word(lets("a B"))
    assert w.inverse().letters == lets("b A")
    assert ~w == w.inverse()


def test_power_example():
    w = Word(lets("b A"))
    assert (w ** 3).letters == lets("b A b A b A")
    assert w ** -2 == (w.inverse()) ** 2


def test_multiply_cancellation_example():
    left = Word(lets("a b"))
    right = Word(lets("B a"))
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


# runs of one signed letter, up to 60 long, over names that are prefixes of
# one another, so that equal names with opposite signs meet at a run's end
syllables_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "ab", "a1", "ab_2", "b"]),
        st.sampled_from([1, -1]),
        st.one_of(st.integers(1, 3), st.integers(4, 60)),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(syllables_strategy)
def test_render_word_matches_the_groupby_reference(syllables):
    letters = [(name, sign) for name, sign, k in syllables for _ in range(k)]
    # unreduced, so that runs of a and a^-1 touch; then reduced, as parsed
    for w in (Word._from_reduced(letters), Word(letters)):
        assert render_word(w) == reference_render_word(w)


def test_render_word_on_edge_words():
    cases = {
        (): "",
        (("a", 1),): "a",
        (("a", -1),): "a^-1",
        (("ab", 1),) * 500: "ab^500",
        (("a", 1), ("a", 1), ("a", -1), ("ab", 1), ("a1", -1), ("a1", -1)): "a^2 a^-1 ab a1^-2",
    }
    for letters, text in cases.items():
        w = Word._from_reduced(letters)
        assert render_word(w) == reference_render_word(w) == text


@pytest.mark.parametrize("kind", [set, frozenset])
def test_parse_word_uses_a_given_set_uncopied(kind):
    """A set or frozenset of names is looked up as given: a copy would
    answer the lookups itself, and the watched set would see none."""
    seen = []

    class Watched(kind):
        def __contains__(self, name):
            seen.append(name)
            return kind.__contains__(self, name)

    text = "a b^-1 (x a)^3"
    assert parse_word(text, Watched(GENS)) == parse_word(text, GENS)
    assert set(seen) == set(GENS)


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
    for generators in [("",), ("1bad",), ("\u00e9",), (1,)]:
        with pytest.raises(InvalidGeneratorName):
            Presentation(generators)
    assert Presentation(("A_ok2",)).generators == ("A_ok2",)


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
    assert pres.generators == ("a", "b", "x")


def test_a_presentation_parsed_from_text_equals_one_built_from_words():
    """Relators given as text are parsed and freely reduced, so the
    presentation equals one given the reduced `Word`s; other relators, or
    the generators in another order, make it unequal."""
    parsed = Presentation(("a", "b", "x"), ("x^3 b^-2 a^-2", "a b b^-1 x"))
    built = Presentation(("a", "b", "x"), (Word(lets("x x x B B A A")), Word(lets("a x"))))
    assert parsed == built
    assert parsed != Presentation(("a", "b", "x"), (Word(lets("x x x B B A A")),))
    assert parsed != Presentation(("b", "a", "x"), built.relators)
    assert parsed != built.relators


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
        return (type(exc).__name__, str(exc), getattr(exc, "position", None))


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
        ("()^-1", "word"),
        ("a^1b", "word"),
        ("a\xa0b", "word"),
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
        ("a ^2", "unexpected character '^'", 2),
        ("a^ 2", "malformed exponent", 2),
        ("(^2)", "unexpected character '^'", 1),
        # superscript digits are digits to str.isdigit but not decimal digits
        ("a^\u00b2", "malformed exponent", 2),
        ("a^3\u00b2", "unexpected character '\u00b2'", 3),
    ],
)
def test_parse_errors_keep_their_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_word(text, GENS)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_exponents_take_decimal_digits_of_any_script():
    assert parse_word("a^\u0663", GENS) == parse_word("a^3", GENS)


def test_parse_outcomes_match_the_recorded_ones():
    # Seeded random texts with their outcomes under the recursive-descent
    # parser that the token loop replaced; see the file's "note".
    path = os.path.join(os.path.dirname(__file__), "inputs", "parse-outcomes.json")
    with open(path, encoding="ascii") as fh:
        recorded = json.load(fh)
    names = tuple(recorded["names"])
    for text, expected in recorded["cases"]:
        try:
            got = ["word", render_word(parse_word(text, names))]
        except (ParseError, WordSizeError) as exc:
            got = [type(exc).__name__, str(exc)]
        assert got == expected, text


def test_a_size_error_comes_before_a_later_parse_error():
    # Errors are raised left to right: the oversized product is met first.
    for text in ("a^20000 b^20000 )", "a^20000 b^20000 qq"):
        with pytest.raises(WordSizeError, match="product exceeds"):
            parse_word(text, GENS)


def test_parsing_a_full_budget_of_tokens_is_linear(monkeypatch):
    # One token per letter of the budget, so linear work pushes at most that
    # many letters through _push_reduced: the memo pushes only the first of
    # each distinct token, 3 and then 6.  Re-reducing the accumulated word on
    # every atom, as a fold through Word.__mul__ does, pushes about 200 million.
    tokens = ["a", "b^-1", "x"] * (MAX_WORD_LETTERS // 3) + ["a"] * (MAX_WORD_LETTERS % 3)
    pushed = count_calls(monkeypatch, words._push_reduced, lambda stack, letters: len(letters))
    assert len(parse_word(" ".join(tokens), GENS).letters) == MAX_WORD_LETTERS
    assert sum(pushed) <= len(tokens)
    # The second half inverts the first, so the reduced word stays long until
    # the inverse letters cancel it down to the identity, pair by pair.
    half = tokens[: MAX_WORD_LETTERS // 2]
    inverse = {"a": "a^-1", "b^-1": "b", "x": "x^-1"}
    pushed.clear()
    assert parse_word(" ".join(half + [inverse[t] for t in reversed(half)]), GENS) == Word()
    assert sum(pushed) <= len(tokens)


# -- the token loop against the reference parser ---------------------------------
#
# Texts are joined from fragments weighted toward what the memo and the
# inline cancel see: repeated tokens, the exponents ^0, ^+1 and ^-1, powers
# of groups, unknown names after known ones, stray characters, nesting at
# MAX_NESTING and sizes at MAX_WORD_LETTERS +- 1.  At most three size
# fragments and no group around them keep the expansion under
# MAX_EXPANDED_LETTERS, which the reference does not have.

EXPONENTS = ("", "^0", "^+1", "^-1", "^1", "^-0", "^01", "^2", "^-3", "^", "^+")
tokens = st.builds(
    lambda name, exponent: name + exponent,
    st.sampled_from(GENS),
    st.sampled_from(EXPONENTS),
)
small_fragments = st.one_of(
    tokens,
    st.builds(lambda t, n, sep: sep.join([t] * n), tokens, st.integers(2, 6),
              st.sampled_from([" ", ""])),
    st.builds(
        lambda inner, exponent: f"({' '.join(inner)}){exponent}",
        st.lists(tokens, max_size=3),
        st.sampled_from(EXPONENTS),
    ),
    st.builds(lambda known, unknown: f"{known} {unknown}",
              st.sampled_from(GENS), st.sampled_from(["c", "qq", "ab", "a1"])),
    st.sampled_from(["*", "^", "a ^2", "a^2^3", "(^2)", "a^\u00b2", "\xa0", "\x1c"]),
    st.builds(
        lambda depth, inner: "(" * depth + inner + ")" * depth,
        st.sampled_from([MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]),
        st.sampled_from(["a", "a b^-1", "x^-1"]),
    ),
)
size_fragments = st.builds(
    lambda template, size: template.format(size=size, half=size // 2),
    st.sampled_from(["a^{size}", "b^-{size}", "(a b^-1)^{half}", "x^{size} a^-1",
                     "a^-1 x^{size}"]),
    st.sampled_from([MAX_WORD_LETTERS - 1, MAX_WORD_LETTERS, MAX_WORD_LETTERS + 1]),
)
# left open at the end, so nothing after it is pushed again
unbalanced_suffixes = st.sampled_from(["", ")", " )", "(", "((a", "(" * MAX_NESTING + "a"])


@st.composite
def weighted_texts(draw):
    fragments = draw(st.lists(small_fragments, max_size=8))
    fragments += draw(st.lists(size_fragments, max_size=3))
    fragments = draw(st.permutations(fragments))
    separator = draw(st.sampled_from([" ", "", "\t", "  "]))
    return separator.join(fragments) + draw(unbalanced_suffixes)


@settings(max_examples=300, deadline=None)
@given(weighted_texts())
def test_parse_matches_the_reference_token_loop(text):
    assert outcome(lambda: parse_word(text, GENS)) == outcome(
        lambda: reference_parse_word(text, GENS)
    )


def test_the_memo_keeps_no_expanded_power():
    # 200 distinct powers expanding to 79,800 letters in all: kept, their
    # letter tuples alone would hold over 600 KB.
    text = " ".join(f"a^{k} a^-{k}" for k in range(100, 300))
    tracemalloc.start()
    try:
        word = parse_word(text, GENS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word == Word()
    assert peak < 64_000


def test_cancelling_powers_are_refused_within_the_expansion_budget(
    tmp_path, capsys, monkeypatch
):
    # Every pair cancels, so the word stays short; without the budget this
    # 3,399-character line would push 4,000,000 letters.  Eight powers push
    # MAX_EXPANDED_LETTERS, and the ninth is refused before it is pushed.
    line = " ".join(["a^10000 a^-10000"] * 200)
    pushed = count_calls(monkeypatch, words._push_reduced, lambda stack, letters: len(letters))
    with pytest.raises(WordSizeError, match=f"expand to more than {MAX_EXPANDED_LETTERS}"):
        parse_word(line, GENS)
    assert pushed == [10_000] * 8
    # the same line as an inclusion word of the Lyon S file, through the CLI
    path = tmp_path / "cancelling.tor"
    path.write_text(
        f"[generators]\na b x\n[relators]\nx^3 b^-2 a^-2\n[inclusion]\n{line}\nb\n"
    )
    code = main(["torsion", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == "WordSizeError"


@pytest.mark.parametrize(
    "text, accepted",
    [
        # four pairs expand exactly MAX_EXPANDED_LETTERS letters
        (" ".join(["a^10000 a^-10000"] * 4), True),
        (" ".join(["a^10000 a^-10000"] * 4) + " b^2", False),
        # atoms of one letter cost a token of text and are not counted
        (" ".join(["a^10000 a^-10000"] * 4) + " b a^1 (x) x^-1", True),
        # a group's letters count again each time its ')' pushes them
        ("(" * 3 + "a^20000" + ")" * 3, True),
        ("(" * 4 + "a^20000" + ")" * 4, False),
    ],
)
def test_the_expansion_budget_boundary(text, accepted):
    if accepted:
        assert parse_word(text, GENS) == reference_parse_word(text, GENS)
    else:
        with pytest.raises(WordSizeError, match="expand to more than"):
            parse_word(text, GENS)


# -- the chunked tokenizer against the reference parser ---------------------------
#
# parse_word reads the text by text.split() chunks, serves the chunks it has
# seen from its memo, and runs the token pattern only over the others, each on
# its own text; an error's position adds the chunk's start, found by its
# ordinal.  These texts cut terms, exponents and groups across
# chunks with Unicode whitespace, and repeat fragments so that the memo serves
# some chunks and others with the same text inside them do not.

CHUNK_NAMES = ("a", "b", "x", "ab")
SEPARATORS = ("", " ", "\t", "\n", "\x1c", "\x1f", "\xa0", "\u2003", "\u3000", " \u3000\t")
UNICODE_EXPONENTS = ("^\u0663", "^-\u0661", "^+\uff12", "^\u0660", "^-\u09e7\u09e6")
chunk_fragments = st.one_of(
    st.builds(
        lambda name, exponent: name + exponent,
        st.sampled_from(CHUNK_NAMES),
        st.sampled_from(EXPONENTS + UNICODE_EXPONENTS),
    ),
    # touching names, a '^' at either edge of a chunk, groups cut across
    # chunks, stray characters
    st.sampled_from([
        "abx", "a1", "ba^2", "a^2b", "a^-1b^2x", "x^-1ab", "a^", "^2", "^", "^-1",
        "(", ")", ")(", "()", ")^2", ")^-1", "(a", "b)", "b)^-2", "(ab", "a)^\u0662",
        "*", "\xb2", "\xe9", "a^\xb2",
    ]),
)
chunk_size_fragments = st.builds(
    lambda template, size: template.format(size=size, half=size // 2),
    st.sampled_from(["a^{size}", "b^-{size}", "(a b^-1)^{half}", "(ab x a^-1)^{half}"]),
    st.sampled_from([MAX_WORD_LETTERS // 2, MAX_WORD_LETTERS, MAX_WORD_LETTERS + 1]),
)


@st.composite
def chunked_texts(draw):
    fragments = draw(st.lists(chunk_fragments, max_size=10))
    fragments = fragments * draw(st.integers(1, 3))
    fragments += draw(st.lists(chunk_size_fragments, max_size=2))
    fragments = draw(st.permutations(fragments))
    separators = draw(st.lists(
        st.sampled_from(SEPARATORS), min_size=len(fragments) + 1, max_size=len(fragments) + 1
    ))
    return separators[0] + "".join(f + s for f, s in zip(fragments, separators[1:]))


@settings(max_examples=400, deadline=None)
@given(chunked_texts())
def test_chunked_parse_matches_the_reference(text):
    # The reference has no expansion budget, so the budget is lifted here;
    # the boundary tests above check it.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "MAX_EXPANDED_LETTERS", 10 * MAX_EXPANDED_LETTERS)
        got = outcome(lambda: parse_word(text, CHUNK_NAMES))
    assert got == outcome(lambda: reference_parse_word(text, CHUNK_NAMES))


@pytest.mark.parametrize(
    "text",
    [
        # a chunk the memo misses, whose text also sits inside chunks it served
        "ab ab ab b", "b^-1 ab^-1 ab^-1 (b^-1)", "a^2b a^2 ab a^2b qq",
        "ab^2 ab^2 b^2 )", "a a\u3000a\xa0(a\x1c)^2 ) ", "x ab x b^-1 b^-1) x",
        "(a ) )", "a^\u0663\u2003b^-\u0661 a^\u0663 ^2", "a^2 ab^2 ^2",
        "ab^2 ab^2\tb^", "a^2 a^", "b a a^-1 b^- ",
        # a chunk the memo missed whose text sits inside chunks that the memo
        # (a^-1) and the one-term path (b^2, x^-3) served
        "a^-1 b^2 a^-1 b^2 ^-1", "b^2 x^-3 a^-1 a^-1 x^-3 ^2", "a^-1 b^2 (a^-1 b^2)^-1 ^-1",
        # the chunk the memo misses is the first one, or the last
        "^2 a b", "(a b) a a", "q", "a b a^-1 )", "b^2 b^2 a a (",
        # an error in the last of more than 1,000 chunks the memo served
        pytest.param(" ".join(["a", "b^-1", "x"] * 400) + " a^", id="1200 memo chunks, a^"),
        pytest.param("\t".join(["b", "a^-1"] * 600) + "\u3000(b", id="1200 memo chunks, (b"),
        # the separators \x1c, \xa0 and \u3000 around chunks the memo missed
        "a\x1c(b\xa0a)^2\u3000^2", "\x1ca^\xa0b\u3000", "\u3000ab\u3000a\x1cab\xa0b)",
        # a missing ')' whose '(' sits more than 1,000 memo-served chunks
        # before the end, or inside a chunk with text before it
        pytest.param("b (a " + "b a^-1 x " * 400 + "b", id="missing ) before 1200 memo chunks"),
        pytest.param("a ab(b " + "x\t" * 1100 + "a^-1", id="missing ) inside a chunk"),
        pytest.param("(a (b) " + "a\xa0" * 1000 + "(x", id="missing ), the last of two"),
        # parentheses nested too deep, the '('s spread over chunks
        pytest.param("a " + "( (( a(" * 26 + " b", id="nesting over chunks"),
        pytest.param("x(( " * 50 + "a^2 ( b", id="nesting, the last '(' alone"),
        # an unknown name after a chunk that closed a group
        "(a b)^2 q", "(a b) yb", "(a (b x)^-1)a q", "a (b)^2\u3000y^2 x",
    ],
)
def test_chunk_positions_match_the_reference(text):
    assert outcome(lambda: parse_word(text, CHUNK_NAMES)) == outcome(
        lambda: reference_parse_word(text, CHUNK_NAMES)
    )


def test_split_and_the_token_pattern_agree_on_whitespace():
    # parse_word splits with str.split() and locates chunks by their ordinal
    # among the runs of r"\S", while the reference skips r"\s": every code
    # point is whitespace to all three or to none.
    chars = "".join(map(chr, range(0x110000)))
    by_pattern = set(re.findall(r"\s", chars))
    assert {c for c in chars if not c.split()} == by_pattern
    assert {c for c in chars if c.isspace()} == by_pattern


class CountingPattern:
    """A compiled pattern that counts the matches it makes."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matches = 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)

    def finditer(self, *args):
        for token in self.pattern.finditer(*args):
            self.matches += 1
            yield token


class CountingChunks:
    """The chunk pattern, counting the times the chunk starts are listed."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.listings = 0

    def finditer(self, *args):
        self.listings += 1
        return self.pattern.finditer(*args)


def test_chunk_starts_are_listed_only_when_a_parse_fails(monkeypatch):
    rng = random.Random(29)
    chunks = CountingChunks(words._CHUNK_RE)
    monkeypatch.setattr(words, "_CHUNK_RE", chunks)
    # one token per letter, and syllables with exponents: the line shapes of
    # inclusion words and relators; then groups and touching terms
    texts = []
    for _ in range(20):
        word = random_word(rng, GENS, 1000)
        texts.append(" ".join(name if sign == 1 else f"{name}^-1" for name, sign in word.letters))
        texts.append(render_word(word))
    texts += ["(a b)^2", "a^2b", "(a b)^2 " * 50 + "b a b^2", " ".join(["(a", "b)"] * 200)]
    for text in texts:
        assert parse_word(text, GENS) == reference_parse_word(text, GENS)
    for surface in SURFACES:
        lyon_presentation(surface)
        for n in (-1, 0, 1, 7, 40, 150):
            lyon_surface_words(LyonCase(n, surface))
    assert chunks.listings == 0
    # a failing parse lists them once, wherever its error is
    failing = (
        "q", "a^2b q", "(a b)^2 " * 50 + "(b", " ".join(["(a", "b)"] * 200) + " )",
        "a " * 300 + "a^", "(" * (MAX_NESTING + 1), "b a*b",
    )
    for text in failing:
        chunks.listings = 0
        assert outcome(lambda: parse_word(text, GENS))[0] == "ParseError"
        assert chunks.listings == 1


def test_the_token_pattern_runs_once_per_distinct_term(monkeypatch):
    rng = random.Random(27)
    terms = ("a", "a^-1", "b", "b^-1", "x", "x^+1", "x^-1", "a^1", "b^0")
    text = " ".join(rng.choice(terms) for _ in range(5000))
    pattern = CountingPattern(words._TOKEN_RE)
    monkeypatch.setattr(words, "_TOKEN_RE", pattern)
    assert parse_word(text, GENS) == reference_parse_word(text, GENS)
    assert 0 < pattern.matches <= len(set(text.split()))


def test_a_group_power_is_not_reduced_letter_by_letter(monkeypatch):
    # u c u^-1 with c cyclically reduced has the power u c^k u^-1, so the
    # letters come from one repetition of c, with no free reduction: each
    # power is one `_power` call on the group's reduced letters, and src/
    # holds no letter-by-letter reducer (test_reach keeps it out)
    texts = ("(a b)^10000", "(a b a^-1)^6666", "(b a x^-1 a^-1 b^-1)^-4000")
    expected = [reference_parse_word(text, GENS) for text in texts]
    powers = count_calls(monkeypatch, words._power, lambda atom, k: (len(atom), k))
    assert [parse_word(text, GENS) for text in texts] == expected
    assert powers == [(2, 10000), (3, 6666), (5, 4000)]


@settings(max_examples=300, deadline=None)
@given(letters_strategy, st.integers(0, 6))
def test_power_of_a_reduced_atom_equals_its_reduced_repetition(raw, k):
    atom = Word(raw).letters
    assert tuple(words._power(atom, k)) == reduce_letters(atom * k)
    assert tuple(words._power(list(atom), k)) == reduce_letters(atom * k)
