import json

import pytest

from foxtorsion.cli import main, parse_torsion_file
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
    # per file: the support's hull, then the doubled hull of its 4 vertices;
    # compare_torsion reuses the support hulls
    assert sizes == [6, 4, 6, 4]


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


def test_family_command_rejects_small_n(capsys):
    code, report, _ = run(capsys, "family", "--n", "-3", "--surface", "S")
    assert code == 1
    assert report["error"]["type"] == "UnsupportedN"


def test_sfh_torus_command(capsys):
    code, report, _ = run(capsys, "sfh-torus", "3", "4", "2")
    assert code == 0
    assert report["ranks"] == [[0, 1], [1, 1], [2, 1]]
    assert report["total_rank"] == 3


def test_sfh_torus_odd_count(capsys):
    code, report, _ = run(capsys, "sfh-torus", "2", "1", "3")
    assert code == 1
    assert report["error"]["type"] == "OddSutureCount"


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
