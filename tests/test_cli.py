import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from foxtorsion import cli, expected_torsion
from foxtorsion.cli import (
    MAX_FAMILY_N,
    MAX_GENERATORS,
    cmd_family,
    main,
    parse_torsion_file,
)
from foxtorsion.errors import InputFileError

from helpers import count_hull_builds

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


NONUNIT_FILE = Path(__file__).parent / "inputs" / "nonunit-11x11.tor"


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
    tfile = parse_torsion_file(LYON_S0)
    assert tfile.generators == ("a", "b", "x")
    assert tfile.relators == ("x^3 b^-2 a^-2",)
    assert len(tfile.inclusion_words) == 2
    names, images = tfile.basis
    assert names == ("a", "u")
    assert images["b"] == (-1, 3)


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


@pytest.mark.parametrize("text", [
    pytest.param(NONUNIT_FILE.read_text(), id="minors"),
    pytest.param(_generators_file(MAX_GENERATORS - 2), id="generators"),
])
def test_torsion_rejects_files_beyond_the_budget_quickly(tmp_path, capsys, text):
    path = tmp_path / "big.tor"
    path.write_text(text)
    start = time.perf_counter()
    code, report, _ = run(capsys, "torsion", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"


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
    sizes = count_hull_builds(monkeypatch)
    code, report, _ = run(capsys, "compare", str(p1), str(p2))
    assert code == 0
    assert report["torsion_verdict"]["reason"] == "edge_length_multiset"
    # one hull per file: the SFH polytope scales it, and compare_torsion
    # reuses both
    assert sizes == [6, 6]


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
def test_family_rejects_n_beyond_the_budget_quickly(capsys, n, surface):
    start = time.perf_counter()
    code, report, _ = run(capsys, "family", "--n", str(n), "--surface", surface)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"


@pytest.mark.parametrize("surface", ["S", "Sprime"])
def test_family_cost_is_linear_in_n(surface):
    # multiplying the expanded geometric sums, the determinant alone took
    # about 7 s on a 2-vCPU VM
    start = time.perf_counter()
    report, _ = cmd_family(1000, surface)
    assert time.perf_counter() - start < 2.0
    assert report["oracle_match"] is True
    assert len(report["torsion"]["support"]) == 12 * 1000 + 6


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
    start = time.perf_counter()
    code, report, _ = run(capsys, "sfh-torus", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["type"] == "InputTooLarge"


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
    path.write_text("[generators]\na a x\n[relators]\nx\n[inclusion]\na\n")
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


def test_torsion_command_rejects_duplicate_basis_names(tmp_path, capsys):
    path = tmp_path / "dupbasis.tor"
    path.write_text(LYON_S0.replace("names = a u", "names = a a"))
    report = _assert_json_error(capsys, path, "InvalidBasis")
    assert "duplicate basis names" in report["error"]["message"]


# -- the contract on mutated files ---------------------------------------------

NAMES = ("a", "b", "x", "y1")
BAD_NAMES = ("1a", "a^", "(", "a-b", "_", "a#b", "\u00e9")
# Small exponents keep each example fast; the large ones are rejected by the
# word budgets before any work (test_words.py tests the budgets themselves).
EXPONENTS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(("-0", "+2", "--1", "", "20001", "2147483648", "9" * 40, "1.5")),
)
JUNK_LINES = (
    "", "   ", "# a comment", "[unknown]", "[generators", "generators]", "[]",
    "[basis]", "[relators]", "names = a", "a = 1 x", "a =", "=", "\t[inclusion]\t",
    "a b ) (", "^2", "a^", "()", "][", "\u00e9",
)
SPLICE_CHARS = tuple("()^-+#=[] \t0a9\r") + ("\u00e9",)


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
    in a character."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    relators = draw(st.integers(0, len(names)))
    words = [draw(word_texts(names)) for _ in names]
    lines = ["[generators]", " ".join(names), "[relators]", *words[:relators]]
    lines += ["[inclusion]", *words[relators:]]
    if draw(st.booleans()):
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
