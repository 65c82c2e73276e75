import io
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from foxtorsion import (
    Presentation,
    TorsionInput,
    abelianize_presentation,
    cli,
    parse_word,
    sutured_torsion,
)
from foxtorsion.lyon import expected_torsion, lyon_input
from foxtorsion._kernels import iadd_product
from foxtorsion.abelian import smith_normal_form
from foxtorsion.cli import (
    MAX_BASIS_DIGITS,
    MAX_FAMILY_N,
    MAX_GENERATORS,
    cmd_family,
    main,
    parse_torsion_file,
)
from foxtorsion.errors import InputFileError, NotBalanced, ParseError
from foxtorsion.groupring import fox_derivative
from foxtorsion.polytope import iter_affine_maps, newton_polytope
from foxtorsion.sfh import MAX_BINOMIAL_ROW, MAX_TABLE_LENGTH
from foxtorsion.torsion import FOX_BLOCK, MAX_TERM_PRODUCTS
from foxtorsion.words import MAX_WORD_LETTERS, render_word

from helpers import count_calls

LYON_S0 = """\
# complement of the first surface, twist parameter 0
[generators]
a b x

[relators]
x^3 b^-2 a^-2

[inclusion]
(a b^-1)^1 b^2
b a (b a^-1)^1

[basis]
names = a u
a = 1 0
b = -1 3
x = 0 2
"""

LYON_SPRIME0 = """\
[generators]
a b x

[relators]
x^3 b^-2 a^-1 b^-1

[inclusion]
a (b a^-1)^1
(a b^-1)^1 a b^2

[basis]
names = b x
a = -3 3
b = 1 0
x = 0 1
"""

FREE_FILE = """\
[generators]
x b
[relators]
[inclusion]
x
b
"""

UNBALANCED_FILE = """\
[generators]
a b
[relators]
[inclusion]
a
"""


INPUTS = Path(__file__).parent / "inputs"
NONUNIT_FILE = INPUTS / "nonunit-11x11.tor"
RANK11_FILE = INPUTS / "rank11-commutators.tor"
RANDOM_WORDS_FILE = INPUTS / "random-words-2000.tor"
BUDGET_POWER_FILE = INPUTS / "budget-power.tor"
SRC = Path(__file__).resolve().parent.parent / "src"


def _generators_file(k):
    """The Lyon file with k extra generators y, each with the relator y a^-1 b
    and so the basis image of a b^-1."""
    ys = [f"y{i}" for i in range(1, k + 1)]
    relators = "".join(f"{y} a^-1 b\n" for y in ys)
    images = "".join(f"{y} = 2 -3\n" for y in ys)
    return (
        LYON_S0.replace("a b x\n", " ".join(["a b x", *ys]) + "\n")
        .replace("x^3 b^-2 a^-2\n", "x^3 b^-2 a^-2\n" + relators)
        .replace("x = 0 2\n", "x = 0 2\n" + images)
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_parse_torsion_file_sections():
    tinput = parse_torsion_file(LYON_S0)
    assert tinput.presentation.generators == ("a", "b", "x")
    assert [render_word(r) for r in tinput.presentation.relators] == ["x^3 b^-2 a^-2"]
    assert len(tinput.inclusion_words) == 2
    assert tinput.abelianization.basis_names == ("a", "u")
    assert tinput.abelianization.images["b"] == (-1, 3)


def test_parse_torsion_file_rejects_bad_sections():
    with pytest.raises(InputFileError):
        parse_torsion_file("[inclusion]\na\n[generators]\na\n[relators]\n")
    with pytest.raises(InputFileError):
        parse_torsion_file("[generators]\na\n[relators]\n[mystery]\n")
    with pytest.raises(InputFileError):
        parse_torsion_file("[generators]\na\n[relators]\n")
    with pytest.raises(InputFileError):
        parse_torsion_file("a b\n[generators]\na\n")


def test_torsion_command_on_lyon_file(tmp_path, capsys):
    path = tmp_path / "s0.tor"
    path.write_text(LYON_S0)
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 0
    assert report["torsion"]["rendered"] == "a + a*u^2 + a*u^4 + u^6 + u^8 + u^10"
    assert report["torsion"]["coefficient_sum"] == 6
    assert report["torsion"]["polygon"]["edge_length_multiset"] == [1, 1, 4, 4]
    assert report["input"]["generators"] == ["a", "b", "x"]


def _random_reduced_word(rng, names, letters):
    """A reduced word of the given length, one token per letter: each letter
    uniform among the names and their inverses, and drawn again when it
    would cancel the letter before it."""
    alphabet = [(g, s) for g in names for s in (1, -1)]
    word = []
    while len(word) < letters:
        name, sign = rng.choice(alphabet)
        if not word or word[-1] != (name, -sign):
            word.append((name, sign))
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in word)


def _random_words_file(seed, letters):
    """The Lyon S file with two random reduced inclusion words of the given
    length over a, b and x, drawn with ``random.Random(seed)``, the first
    word and then the second."""
    rng = random.Random(seed)
    words = [_random_reduced_word(rng, "abx", letters) for _ in range(2)]
    return LYON_S0.replace("(a b^-1)^1 b^2\nb a (b a^-1)^1\n", "\n".join(words) + "\n")


def _augmentation_det(tinput):
    """The integer determinant of the Fox matrix at augmentation (every
    variable 1), where the derivative of w by g is the exponent sum of g in w."""
    words = tinput.inclusion_words + tinput.presentation.relators
    rows = [
        [Fraction(sum(s for name, s in w.letters if name == g)) for w in words]
        for g in tinput.presentation.generators
    ]
    det = Fraction(1)
    for k in range(len(rows)):
        i = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if i is None:
            return 0
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            det = -det
        pivot = rows[k]
        det *= pivot[k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / pivot[k]
            rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
    return int(det)


@pytest.mark.parametrize("text, fox_calls", [
    # 11 generators by 11 words of at most FOX_BLOCK letters
    pytest.param(RANK11_FILE.read_text(), 11 * 11, id="terms"),
    # 3 generators by the blocks of two 20,000-letter words and one relator
    pytest.param(
        _random_words_file(20000, 20000), 3 * (2 * -(-20000 // FOX_BLOCK) + 1), id="words"
    ),
    pytest.param(_generators_file(MAX_GENERATORS - 2), 0, id="generators"),
])
def test_torsion_rejects_files_beyond_the_budget_quickly(
    tmp_path, capsys, monkeypatch, text, fox_calls
):
    """Quickly in work, not seconds: each block of each word is differentiated
    once, and the determinant multiplies at most MAX_TERM_PRODUCTS term pairs
    before its refusal (419,876 for the rank-11 file, 72,842 for the words)."""
    path = tmp_path / "big.tor"
    path.write_text(text)
    fox = count_calls(monkeypatch, fox_derivative, lambda word, name: name)
    pairs = count_calls(monkeypatch, iadd_product, lambda acc, p, q, sign: len(p) * len(q))
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"
    assert len(fox) == fox_calls
    assert sum(pairs) <= MAX_TERM_PRODUCTS


def test_torsion_of_two_random_2000_letter_words(capsys):
    """``tests/inputs/random-words-2000.tor`` is
    ``_random_words_file(2000, 2000)``, written one letter per token.  The
    determinant of its 3x3 Fox matrix has 5,231 terms.

    At augmentation (every variable 1) a Fox derivative of w by g is the
    exponent sum of g in w, so the torsion's coefficient sum is, up to
    sign, the integer determinant of those sums.
    """
    tinput = parse_torsion_file(RANDOM_WORDS_FILE.read_text())
    drawn = parse_torsion_file(_random_words_file(2000, 2000))
    assert drawn.inclusion_words == tinput.inclusion_words
    code, report, _ = run(capsys, "torsion", str(RANDOM_WORDS_FILE))
    assert code == 0
    assert len(report["torsion"]["terms"]) == 5231
    assert abs(report["torsion"]["coefficient_sum"]) == abs(_augmentation_det(tinput))


def test_torsion_of_a_full_budget_word_in_linear_memory():
    """``tests/inputs/budget-power.tor``, whose first inclusion word has
    MAX_WORD_LETTERS letters, through ``python -m foxtorsion`` in a child
    process limited to 1 GB of address space.  Fox derivatives of blocks
    keep the whole command near a 90 MB peak RSS (about 2 s on a 2-vCPU
    VM); whole-word derivatives would need about 1.5 GB and fail with a
    MemoryError.  The 60 s timeout only stops a hang."""
    tinput = parse_torsion_file(BUDGET_POWER_FILE.read_text())
    assert len(tinput.inclusion_words[0].letters) == MAX_WORD_LETTERS

    def limit_address_space():
        limit = 1_000_000 * 1024  # ulimit -v 1000000, in KiB
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "foxtorsion", "torsion", str(BUDGET_POWER_FILE)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        preexec_fn=limit_address_space,
        timeout=60,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "error" not in json.loads(done.stdout)


def test_torsion_of_the_11x11_matrix_without_units(capsys):
    """``tests/inputs/nonunit-11x11.tor`` needs 198,823 term products, well
    within the budget; its coefficient sum is checked at augmentation."""
    code, report, _ = run(capsys, "torsion", str(NONUNIT_FILE))
    assert code == 0
    det = _augmentation_det(parse_torsion_file(NONUNIT_FILE.read_text()))
    assert det
    assert abs(report["torsion"]["coefficient_sum"]) == abs(det)


def test_torsion_accepts_the_most_generators(tmp_path, capsys):
    path = tmp_path / "many.tor"
    path.write_text(_generators_file(MAX_GENERATORS - 3))
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 0
    assert len(report["input"]["generators"]) == MAX_GENERATORS
    assert report["torsion"]["rendered"] == "a + a*u^2 + a*u^4 + u^6 + u^8 + u^10"


def test_torsion_command_free_group(tmp_path, capsys):
    path = tmp_path / "free.tor"
    path.write_text(FREE_FILE)
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 0
    assert report["torsion"]["terms"] == [[[0, 0], 1]]


def test_torsion_command_not_balanced(tmp_path, capsys):
    path = tmp_path / "bad.tor"
    path.write_text(UNBALANCED_FILE)
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 1
    assert report["error"]["type"] == "NotBalanced"


def test_an_unbalanced_file_gets_the_library_message():
    presentation = Presentation(("a", "b"))
    words = [parse_word("a", presentation.generators)]
    tinput = TorsionInput(presentation, words, abelianize_presentation(presentation))
    with pytest.raises(NotBalanced) as library:
        sutured_torsion(tinput)
    with pytest.raises(NotBalanced) as from_file:
        parse_torsion_file(UNBALANCED_FILE)
    assert str(from_file.value) == str(library.value) == "deficiency 2 != 1 inclusion words"


def _many_relators_file():
    """100 generators and 5,000 six-letter relators: 160 KB, unbalanced."""
    rng = random.Random(5000)
    names = [f"g{i}" for i in range(100)]
    relators = "".join(
        " ".join(f"{rng.choice(names)}^{rng.choice((1, -1))}" for _ in range(6)) + "\n"
        for _ in range(5000)
    )
    return f"[generators]\n{' '.join(names)}\n[relators]\n{relators}[inclusion]\ng0\n"


@pytest.mark.parametrize("text", [
    pytest.param(_many_relators_file(), id="relators"),
    pytest.param(
        "[generators]\na b x\n[relators]\n" + "a^20000\n" * 400 + "[inclusion]\na\n",
        id="powers",
    ),
])
def test_an_unbalanced_file_is_refused_before_any_word_is_parsed(
    tmp_path, capsys, monkeypatch, text
):
    path = tmp_path / "unbalanced.tor"
    path.write_text(text)
    parsed = count_calls(monkeypatch, parse_word, lambda text, names: len(text))
    snf = count_calls(monkeypatch, smith_normal_form, lambda matrix: len(matrix))
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 1
    assert report["error"]["type"] == "NotBalanced"
    assert parsed == [] and snf == []


def test_a_basis_of_more_names_than_generators_is_refused_before_the_snf(
    tmp_path, capsys, monkeypatch
):
    # 3,200 names over 3 generators: the images kill the relator
    # x^3 b^-2 a^-2 in every coordinate, but cannot generate Z^3200
    r = 3200
    names = " ".join(f"t{i}" for i in range(r))
    images = "".join(f"{g} = {' '.join([e] * r)}\n" for g, e in zip("abx", "1 -1 0".split()))
    text = LYON_S0.split("[basis]")[0] + f"[basis]\nnames = {names}\n{images}"
    path = tmp_path / "wide.tor"
    path.write_text(text)
    snf = count_calls(monkeypatch, smith_normal_form, lambda matrix: len(matrix))
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 1
    assert report["error"] == {
        "type": "InvalidBasis",
        "message": "user basis images do not generate Z^r",
    }
    assert snf == []


def test_torsion_command_missing_file(capsys):
    code, report, _ = run(capsys, "torsion", "/nonexistent/nope.tor")
    assert code == 1
    assert report["error"]["type"] == "IOError"


def test_compare_identical_files(tmp_path, capsys):
    path = tmp_path / "s0.tor"
    path.write_text(LYON_S0)
    code, report, _ = run(capsys, "compare", str(path), str(path))
    assert code == 0
    assert report["torsion_verdict"]["kind"] == "Equivalent"
    assert report["torsion_verdict"]["witness"]["matrix"] == [[1, 0], [0, 1]]
    assert report["polytopes_affine_equivalent"] is True


def test_compare_lyon_pair(tmp_path, capsys):
    p1 = tmp_path / "s0.tor"
    p1.write_text(LYON_S0)
    p2 = tmp_path / "sp0.tor"
    p2.write_text(LYON_SPRIME0)
    code, report, _ = run(capsys, "compare", str(p1), str(p2))
    assert code == 0
    assert report["torsion_verdict"]["kind"] == "NotEquivalent"
    assert report["polytopes_affine_equivalent"] is False


def test_compare_command_builds_each_hull_once(tmp_path, capsys, monkeypatch):
    p1 = tmp_path / "s0.tor"
    p1.write_text(LYON_S0)
    p2 = tmp_path / "sp0.tor"
    p2.write_text(LYON_SPRIME0)
    sizes = count_calls(monkeypatch, newton_polytope, lambda support_set: len(support_set.points))
    code, report, _ = run(capsys, "compare", str(p1), str(p2))
    assert code == 0
    assert report["torsion_verdict"]["reason"] == "edge_length_multiset"
    # one hull per file: the SFH polytope scales it, and compare_torsion
    # reuses both
    assert sizes == [6, 6]


def test_compare_command_enumerates_affine_maps_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s0.tor"
    path.write_text(LYON_S0)
    calls = count_calls(monkeypatch, iter_affine_maps, lambda p1, p2: (p1, p2))
    code, report, _ = run(capsys, "compare", str(path), str(path))
    assert code == 0
    assert report["polytopes_affine_equivalent"] is True
    # the Equivalent verdict's witness maps hull onto hull, so the polygon
    # check does not enumerate the maps again
    assert len(calls) == 1


LYON_S_MINUS1 = """\
[generators]
a b x
[relators]
x^3 b^-2 a^-2
[inclusion]
b^2
b a
[basis]
names = a u
a = 1 0
b = -1 3
x = 0 2
"""

LYON_SPRIME_MINUS1 = """\
[generators]
a b x
[relators]
x^3 b^-2 a^-1 b^-1
[inclusion]
a
a b^2
[basis]
names = b x
a = -3 3
b = 1 0
x = 0 1
"""


def test_compare_minus_one_pair(tmp_path, capsys):
    p1 = tmp_path / "sm1.tor"
    p1.write_text(LYON_S_MINUS1)
    p2 = tmp_path / "spm1.tor"
    p2.write_text(LYON_SPRIME_MINUS1)
    code, report, _ = run(capsys, "compare", str(p1), str(p2))
    assert code == 0
    assert report["torsion_verdict"]["kind"] == "NotEquivalent"
    assert report["polytopes_affine_equivalent"] is False
    assert report["first"]["torsion"]["polygon"]["edge_length_multiset"] == [1, 1, 4, 4]
    assert report["second"]["torsion"]["polygon"]["edge_length_multiset"] == [1, 1, 2, 2]


SEGMENT_RANK1 = """\
[generators]
a b
[relators]
b
[inclusion]
a^2
"""

SEGMENT_RANK2 = """\
[generators]
a b
[relators]
[inclusion]
a^2
b
"""


def test_compare_segments_in_different_ranks_are_not_affine_equivalent(tmp_path, capsys):
    # both torsions are 1 + a, a unit segment, but in Z^1 and in Z^2
    p1 = tmp_path / "rank1.tor"
    p1.write_text(SEGMENT_RANK1)
    p2 = tmp_path / "rank2.tor"
    p2.write_text(SEGMENT_RANK2)
    for first, second in ((p1, p2), (p2, p1)):
        code, report, _ = run(capsys, "compare", str(first), str(second))
        assert code == 0
        assert report["first"]["torsion"]["polygon"]["edge_length_multiset"] == [1, 1]
        assert report["second"]["torsion"]["polygon"]["edge_length_multiset"] == [1, 1]
        assert report["torsion_verdict"]["kind"] == "NotEquivalent"
        assert report["torsion_verdict"]["reason"] == "rank"
        assert report["polytopes_affine_equivalent"] is False


def test_family_command_matches_oracle(capsys):
    code, report, _ = run(capsys, "family", "--n", "-1", "--surface", "S")
    assert code == 0
    assert report["oracle_match"] is True
    assert report["torsion"]["rendered"] == "a + u^3 + a*u^2 + u^5 + a*u^4 + u^7"
    assert report["torsion"]["polygon"]["edge_length_multiset"] == [1, 1, 4, 4]


def test_family_command_primed_flags(capsys):
    code, report, _ = run(capsys, "family", "--n", "0", "--surface", "Sprime")
    assert code == 0
    assert report["uses_positive_side_words"] is True
    assert report["torsion"]["centrally_symmetric"] is True
    assert report["oracle_match"] is True


def test_family_expected_section_is_the_torsion_section_when_they_match():
    report, _ = cmd_family(7, "Sprime")
    assert report["oracle_match"] is True
    body = report["torsion"]
    assert report["expected"] == {"rendered": body["rendered"], "terms": body["terms"]}


def test_family_reports_a_mismatching_oracle_with_its_own_terms(capsys, monkeypatch):
    computed, _ = cmd_family(7, "S")
    other = expected_torsion(8, "S")
    monkeypatch.setattr(cli, "expected_torsion", lambda case: other)
    code, report, _ = run(capsys, "family", "--n", "7", "--surface", "S")
    assert code == 0
    assert report["oracle_match"] is False
    assert report["torsion"] == computed["torsion"]
    names = report["torsion"]["variables"]
    terms = sorted(other.representative.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    assert report["expected"] == {
        "rendered": other.render(names),
        "terms": [[list(e), c] for e, c in terms],
    }
    assert report["expected"]["terms"] != report["torsion"]["terms"]


def test_family_command_rejects_small_n(capsys):
    code, report, _ = run(capsys, "family", "--n", "-3", "--surface", "S")
    assert code == 1
    assert report["error"]["type"] == "UnsupportedN"


@pytest.mark.parametrize("n", [MAX_FAMILY_N + 1, 10**30])
@pytest.mark.parametrize("surface", ["S", "Sprime"])
def test_family_rejects_n_beyond_the_budget_quickly(capsys, monkeypatch, n, surface):
    # quickly in work: the refusal comes before the member's presentation
    inputs = count_calls(monkeypatch, lyon_input, lambda case: case)
    code, report, _ = run(capsys, "family", "--n", str(n), "--surface", surface)
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"
    assert inputs == []


# the term pairs the determinant multiplies in `iadd_product` for every n,
# from n = 10 to MAX_FAMILY_N: cleared columns leave a 3x3 matrix of entries
# whose size does not grow with n
FAMILY_TERM_PAIRS = {"S": 96, "Sprime": 108}


@pytest.mark.parametrize("surface", ["S", "Sprime"])
def test_family_cost_is_linear_in_n(monkeypatch, surface):
    """Linear in work: at n = 1000 the Fox matrix differentiates each
    FOX_BLOCK-letter block of the words once per generator (381 calls, 9 at
    n = 10), and the determinant multiplies as many term pairs as at n = 10.
    Multiplying the expanded geometric sums, without cleared columns, the
    determinant alone took about 7 s on a 2-vCPU VM."""
    fox = count_calls(monkeypatch, fox_derivative, lambda word, name: name)
    pairs = count_calls(monkeypatch, iadd_product, lambda acc, p, q, sign: len(p) * len(q))
    report, _ = cmd_family(1000, surface)
    assert len(fox) == 3 * 127
    assert sum(pairs) == FAMILY_TERM_PAIRS[surface]
    assert report["oracle_match"] is True
    assert len(report["torsion"]["support"]) == 12 * 1000 + 6


def test_family_at_the_budget(capsys):
    """The largest accepted member, n = MAX_FAMILY_N: 36,006 support points
    (1.2-1.6 s and 81 MB on a 2-vCPU VM).  Without its cleared columns the
    determinant would need more than MAX_TERM_PRODUCTS term products."""
    code, report, _ = run(capsys, "family", "--n", str(MAX_FAMILY_N), "--surface", "S")
    assert code == 0
    assert report["oracle_match"] is True
    assert len(report["torsion"]["support"]) == 12 * MAX_FAMILY_N + 6


def test_sfh_torus_command(capsys):
    code, report, _ = run(capsys, "sfh-torus", "3", "4", "2")
    assert code == 0
    assert report["ranks"] == [[0, 1], [1, 1], [2, 1]]
    assert report["total_rank"] == 3


def test_sfh_torus_odd_count(capsys):
    code, report, _ = run(capsys, "sfh-torus", "2", "1", "3")
    assert code == 1
    assert report["error"]["type"] == "OddSutureCount"


@pytest.mark.parametrize("argv", [("1", "1", "40000"), ("3", "1", "20000")])
def test_sfh_torus_rejects_oversized_tables_quickly(capsys, argv):
    """Quickly in work: the refusal comes before the binomial row.  The whole
    command peaks at 33-37 KB of traced memory, where the row alone would
    take 10 MB (k = 9,999) to 39 MB (k = 19,999)."""
    tracemalloc.start()
    try:
        code, report, _ = run(capsys, "sfh-torus", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"
    assert peak < 2**20


def test_sfh_torus_at_the_budget(capsys):
    """The largest accepted table, the whole binomial row k = MAX_BINOMIAL_ROW
    at p = 1: 10,001 gradings in a 22 MB report (about 1.3 s on a 2-vCPU VM,
    nearly all of it JSON)."""
    k = MAX_BINOMIAL_ROW
    code, report, _ = run(capsys, "sfh-torus", "1", "0", str(2 * k + 2))
    assert code == 0
    ranks = report["ranks"]
    assert len(ranks) == MAX_TABLE_LENGTH
    assert [ranks[0], ranks[k // 2], ranks[k]] == [[0, 1], [k // 2, comb(k, k // 2)], [k, 1]]
    assert report["total_rank"] == 2**k


def test_reports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "s0.tor"
    path.write_text(LYON_S0)
    _, _, first = run(capsys, "torsion", str(path))
    _, _, second = run(capsys, "torsion", str(path))
    assert first == second


def test_json_and_plot_data_files(tmp_path, capsys):
    path = tmp_path / "s0.tor"
    path.write_text(LYON_S0)
    json_path = tmp_path / "report.json"
    plot_path = tmp_path / "plot.json"
    code, report, out = run(
        capsys,
        "torsion",
        str(path),
        "--json",
        str(json_path),
        "--plot-data",
        str(plot_path),
    )
    assert code == 0
    assert json_path.read_text() == out
    plot = json.loads(plot_path.read_text())
    assert sorted(map(tuple, plot["support"])) == [
        (0, 6), (0, 8), (0, 10), (1, 0), (1, 2), (1, 4),
    ]
    assert plot["hull_vertices"]
    assert plot["sfh_polytope_vertices"]


def _assert_json_error(capsys, path, error_type):
    code = main(["torsion", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["type"] == error_type
    return report


def test_torsion_command_duplicate_generators(tmp_path, capsys):
    path = tmp_path / "dup.tor"
    # balanced, since the balance check comes before the presentation's
    path.write_text("[generators]\na a x\n[relators]\nx\n[inclusion]\na\na\n")
    _assert_json_error(capsys, path, "DuplicateGenerator")


def test_torsion_command_invalid_generator_name(tmp_path, capsys):
    path = tmp_path / "name.tor"
    path.write_text("[generators]\n1a b\n[relators]\n[inclusion]\nb\nb\n")
    _assert_json_error(capsys, path, "InvalidGeneratorName")


def test_torsion_command_non_ascii_file(tmp_path, capsys):
    path = tmp_path / "utf8.tor"
    path.write_bytes("[generators]\na b\n[relators]\n[inclusion]\nα\nb\n".encode("utf-8"))
    report = _assert_json_error(capsys, path, "InputEncodingError")
    assert report["error"]["message"].startswith("line 5:")


def test_torsion_command_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.tor"
    deep = "(" * 3000 + "a" + ")" * 3000
    path.write_text(f"[generators]\na b\n[relators]\n[inclusion]\n{deep}\nb\n")
    report = _assert_json_error(capsys, path, "ParseError")
    assert "nested deeper" in report["error"]["message"]


def test_unwritable_json_path_gives_one_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, report, _ = run(
        capsys, "family", "--n", "2", "--surface", "S", "--json", str(target)
    )
    assert code == 1
    assert report == {
        "command": "family",
        "error": {"type": "IOError", "message": report["error"]["message"]},
    }
    assert not target.exists()


def test_unwritable_plot_data_path_gives_one_io_error(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    target = tmp_path / "missing" / "plot.json"
    code, report, _ = run(
        capsys,
        "family", "--n", "2", "--surface", "S",
        "--json", str(json_path),
        "--plot-data", str(target),
    )
    assert code == 1
    assert report["error"]["type"] == "IOError"
    assert "torsion" not in report
    assert not json_path.exists()


def test_usage_errors_give_a_json_report(capsys):
    code, report, _ = run(capsys, "family", "--n", "abc", "--surface", "S")
    assert code == 1
    assert report["command"] == "family"
    assert report["error"]["type"] == "UsageError"
    assert "--n" in report["error"]["message"]
    code, report, _ = run(capsys)
    assert code == 1
    assert report["command"] is None
    assert report["error"]["type"] == "UsageError"
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: foxtorsion")


def test_torsion_command_rejects_a_5000_digit_exponent(tmp_path, capsys):
    path = tmp_path / "digits.tor"
    path.write_text(f"[generators]\na b\n[relators]\n[inclusion]\na^{'7' * 5000}\nb\n")
    report = _assert_json_error(capsys, path, "WordSizeError")
    assert "5000 digits" in report["error"]["message"]


@pytest.mark.parametrize("digits", [MAX_BASIS_DIGITS + 1, 4300])
def test_torsion_command_rejects_basis_images_beyond_the_digit_budget(
    tmp_path, capsys, digits
):
    # int() reads 4,300 digits, but the exponents of a^10 would then exceed
    # what str() prints, and the report could not be written
    path = tmp_path / "digits.tor"
    path.write_text(
        "[generators]\na b\n[relators]\n[inclusion]\na^10\nb\n"
        f"[basis]\nnames = s t\na = {'9' * digits} 1\nb = 1 0\n"
    )
    report = _assert_json_error(capsys, path, "InputTooLarge")
    assert f"more than {MAX_BASIS_DIGITS} digits" in report["error"]["message"]


def test_torsion_command_prints_basis_images_at_the_digit_budget(tmp_path, capsys):
    # H_1 of the free group on a, b is Z^2, and the images A = (N, N - 1) and
    # B = (1, 1) have determinant 1, so they are a basis of it.  The torsion
    # d(a b a b^-1 a)/da = 1 + AB + A^2 is a triangle of doubled area 2 in
    # every basis, with vertices 0, (N + 1, N) and (2N, 2N - 2) in this one
    big = "9" * MAX_BASIS_DIGITS
    n = int(big)
    path = tmp_path / "digits.tor"
    path.write_text(
        "[generators]\na b\n[relators]\n[inclusion]\na b a b^-1 a\nb\n"
        f"[basis]\nnames = s t\na = {big} {n - 1}\nb = 1 1\n"
    )
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 0
    polygon = report["torsion"]["polygon"]
    assert polygon["dimension"] == 2
    assert sorted(polygon["vertices"]) == [[0, 0], [n + 1, n], [2 * n, 2 * n - 2]]
    assert polygon["doubled_area"] == 2


def test_torsion_command_rejects_duplicate_basis_names(tmp_path, capsys):
    path = tmp_path / "dupbasis.tor"
    path.write_text(LYON_S0.replace("names = a u", "names = a a"))
    report = _assert_json_error(capsys, path, "InvalidBasis")
    assert "duplicate basis names" in report["error"]["message"]


@pytest.mark.parametrize(
    "basis, rank",
    [("names =\na =\nb =\nx =\n", 0), ("names = t\na = 1\nb = 2\nx = 2\n", 1)],
    ids=["rank0", "rank1"],
)
def test_torsion_command_rejects_a_basis_below_the_free_rank(tmp_path, capsys, basis, rank):
    # either basis kills the relator and generates Z^r; both used to be
    # accepted, and printed the torsion 6 and a polynomial in one variable
    path = tmp_path / "narrow.tor"
    path.write_text(LYON_S0.split("[basis]")[0] + "[basis]\n" + basis)
    report = _assert_json_error(capsys, path, "InvalidBasis")
    assert report["error"]["message"] == (
        f"user basis has rank {rank}, but the free part of H_1 has rank 2"
    )


def test_torsion_command_rejects_a_basis_without_names(tmp_path, capsys):
    path = tmp_path / "nonames.tor"
    path.write_text(LYON_S0.replace("names = a u\n", ""))
    report = _assert_json_error(capsys, path, "InputFileError")
    assert "needs a 'names = ...' line" in report["error"]["message"]


def test_torsion_command_rejects_a_basis_line_without_equals(tmp_path, capsys):
    path = tmp_path / "noequals.tor"
    text = LYON_S_MINUS1.split("[basis]")[0] + "[basis]\nnames = a u\na 1 0\n"
    assert text.splitlines()[9] == "a 1 0"
    path.write_text(text)
    report = _assert_json_error(capsys, path, "InputFileError")
    assert report["error"]["message"] == (
        "line 10: basis lines must look like 'key = values'"
    )


@pytest.mark.parametrize(
    "extra, message",
    [
        ("a = 5 7", "line 17: duplicate basis image for 'a'"),
        ("names = p q", "line 17: duplicate basis line 'names'"),
    ],
)
def test_torsion_command_rejects_a_repeated_basis_line(tmp_path, capsys, extra, message):
    # the last line used to win: a repeated image was then blamed on the
    # relator, and a repeated names line renamed the report's variables
    path = tmp_path / "repeated.tor"
    path.write_text(LYON_S0 + extra + "\n")
    report = _assert_json_error(capsys, path, "InputFileError")
    assert report["error"]["message"] == message


@pytest.mark.parametrize("field", ["1_0", "0x1", "1.0", "+-1", "1e1", "٣"])
def test_basis_image_fields_are_ascii_decimal_integers(field):
    # int() reads each of the first and last, as 10 and 3
    text = LYON_S0.replace("x = 0 2", f"x = 0 {field}")
    with pytest.raises(InputFileError, match="line 16: non-integer exponent in basis image for 'x'"):
        parse_torsion_file(text)


def test_basis_image_fields_may_carry_a_sign(tmp_path, capsys):
    path = tmp_path / "signs.tor"
    path.write_text(LYON_S0.replace("a = 1 0", "a = +1 -0").replace("x = 0 2", "x = -0 +2"))
    code, report, _ = run(capsys, "torsion", str(path))
    assert code == 0
    assert report["input"]["basis"]["images"] == {"a": [1, 0], "b": [-1, 3], "x": [0, 2]}


@pytest.mark.parametrize("names", ["1 u^2", "a u^2", "a _u", "a (u)"])
def test_torsion_command_rejects_basis_names_outside_the_name_grammar(
    tmp_path, capsys, names
):
    # '1 u^2' used to be accepted, and printed u^2^2 in its polynomial
    path = tmp_path / "badnames.tor"
    path.write_text(LYON_S0.replace("names = a u", f"names = {names}"))
    report = _assert_json_error(capsys, path, "InvalidBasis")
    assert report["error"]["message"].startswith("invalid basis name ")


def test_a_generator_named_names_clashes_with_a_basis(tmp_path, capsys):
    # its image line would be read as the basis names
    path = tmp_path / "names.tor"
    path.write_text(LYON_S0.replace("x", "names"))
    report = _assert_json_error(capsys, path, "InputFileError")
    assert "generator 'names' clashes" in report["error"]["message"]
    # without a [basis], the name is an ordinary generator
    path.write_text(LYON_S0.replace("x", "names").split("[basis]")[0])
    code, renamed, _ = run(capsys, "torsion", str(path))
    path.write_text(LYON_S0.split("[basis]")[0])
    assert code == 0
    assert renamed["torsion"] == run(capsys, "torsion", str(path))[1]["torsion"]


def test_basis_refusals_keep_the_stated_error_order():
    # [basis] lines come before balance, and the basis map after the words
    unbalanced = LYON_S0.replace("b a (b a^-1)^1\n", "") + "a = 5 7\n"
    with pytest.raises(InputFileError, match="duplicate basis image"):
        parse_torsion_file(unbalanced)
    unknown = LYON_S0.replace("names = a u", "names = a u^2").replace("b a (b", "q a (b")
    with pytest.raises(ParseError, match="unknown generator 'q'"):
        parse_torsion_file(unknown)


# -- the contract on mutated files ---------------------------------------------

NAMES = ("a", "b", "x", "y1")
BAD_NAMES = ("1a", "a^", "(", "a-b", "_", "a#b", "\u00e9")
# Small exponents keep each example fast.  In words the large ones are
# rejected by the word budgets before any work (test_words.py tests the
# budgets themselves); in a [basis] image MAX_BASIS_DIGITS digits are read
# and one more is refused.
EXPONENTS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(
        ("-0", "+2", "--1", "", "20001", "2147483648", "9" * 40, "1.5",
         "7" * MAX_BASIS_DIGITS, "7" * (MAX_BASIS_DIGITS + 1))
    ),
)
JUNK_LINES = (
    "", "   ", "# a comment", "[unknown]", "[generators", "generators]", "[]",
    "[basis]", "[relators]", "names = a", "a = 1 x", "a =", "=", "\t[inclusion]\t",
    "a b ) (", "^2", "a^", "()", "][", "\u00e9",
)
SPLICE_CHARS = tuple("()^-+#=[] \t0a9\r") + ("\u00e9",)
# Random reduced words of these lengths over three generators without
# relators need more than MAX_TERM_PRODUCTS term products, and the refusal
# costs about 0.05 s and 0.1 s; at 2,000 letters some are accepted near the
# budget, which can cost up to 1 s.
LONG_WORD_LETTERS = (4000, 8000)


@st.composite
def word_texts(draw, names, depth=0):
    atoms = []
    for _ in range(draw(st.integers(0 if depth else 1, 3))):
        if depth < 2 and draw(st.integers(0, 3)) == 0:
            atom = "(" + draw(word_texts(names, depth + 1)) + ")"
        else:
            atom = draw(st.sampled_from(names))
        if draw(st.booleans()):
            atom += "^" + draw(EXPONENTS)
        atoms.append(atom)
    return " ".join(atoms)


@st.composite
def sectioned_files(draw):
    """File bytes from the sectioned grammar: as many relators plus inclusion
    words as generators and an optional basis, then mutated by dropping,
    repeating, swapping or inserting lines, renaming a generator, or splicing
    in a character.  Some files get random reduced inclusion words of
    thousands of letters and no basis, so that their determinants often need
    more than MAX_TERM_PRODUCTS term products."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    relators = draw(st.integers(0, len(names)))
    words = [draw(word_texts(names)) for _ in names]
    long_words = draw(st.booleans())
    if long_words:
        rng = random.Random(draw(st.integers(0, 2**32)))
        letters = draw(st.sampled_from(LONG_WORD_LETTERS))
        words[relators:] = [_random_reduced_word(rng, names, letters) for _ in words[relators:]]
    lines = ["[generators]", " ".join(names), "[relators]", *words[:relators]]
    lines += ["[inclusion]", *words[relators:]]
    if not long_words and draw(st.booleans()):
        rank = draw(st.integers(0, 2))
        lines += ["[basis]", "names = " + " ".join(("s", "t")[:rank])]
        for name in names:
            lines.append(f"{name} = " + " ".join(draw(EXPONENTS) for _ in range(rank)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "repeat", "swap", "insert", "rename", "splice")))
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(JUNK_LINES)))
        elif kind == "rename":
            old = draw(st.sampled_from(names))
            lines[i] = lines[i].replace(old, draw(st.sampled_from(NAMES + BAD_NAMES)))
        else:
            k = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:k] + draw(st.sampled_from(SPLICE_CHARS)) + lines[i][k:]
        if not lines:
            break
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(data=sectioned_files(), command=st.sampled_from(("torsion", "compare")))
def test_cli_contract_holds_on_mutated_files(tmp_path_factory, data, command):
    path = tmp_path_factory.mktemp("fuzz") / "input.tor"
    path.write_bytes(data)
    argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    assert code == (1 if "error" in report else 0)
    assert "Traceback" not in err.getvalue()
    event(report["error"]["type"] if code else "no error")
