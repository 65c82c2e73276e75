"""Byte-identical CLI reports on a fixed corpus.

Each case runs one command with ``tests/golden`` as the working directory
(reports echo the file arguments) and compares its stdout, byte for byte,
with the committed ``tests/golden/<case>.json``.  The inputs are the example
file from the `foxtorsion.cli` docstring and one Lyon presentation whose two
inclusion words are padded to about 1,000 letters each, the shape of the
benchmark's ``long-words`` files.  Three small files pin report paths those
miss: a rank-1 class that is not centrally symmetric (``rank1.tor``), a class
symmetric with sign -1 (``antisymmetric.tor``) and a rank-3 class, which
has no hull structure (``rank3.tor``).  ``wide.tor`` is the example file
after the unimodular basis change a = (1, 0), b = (3*2^70 - 1, 3),
x = (2^71, 2), so its exponents, and the packed keys of the determinant,
exceed a machine word.  ``generators-100.tor`` is the largest file the CLI
accepts (``cli.MAX_GENERATORS``), with no ``[basis]``, so it pins the row
transform of the largest Smith normal form; ``generators-100-basis.tor`` is
the same file with a ``[basis]``.  ``rank0.tor`` has no free part, so its
torsion is a constant and its hull one point; ``rank0-basis.tor`` is the
same file with an empty ``[basis]``, which the generation check accepts.
Each ``PLOTS`` case compares the ``--plot-data`` file of a command instead
of its stdout.  The reports were recorded at commit 1fba6be, the three small
files' reports and the plot file at c5ee2b9, the wide file's report at
12bc922, before the determinant packed its keys, the two 100-generator
reports at 1fc1839, before the Smith normal form dropped its column
transform, and the two rank-0 reports at 2d535ce, before the point and
segment branches of the hull and the rank-0 branch of the basis check were
folded into the general code.  The three ``sfh-torus`` reports, for
(p, q, n) = (3, 4, 2), (2, 1, 6) and (5, 2, 8), were recorded at fa17c52,
before rank tables became plain dicts and ``torus_sfh`` lost its unused q.
Four cases reach command paths no other case does, and were recorded at
81303e1, before the code that only tests called left ``src/``:
``compare rank1.tor rank1.tor`` (a segment hull, matched by the rank-1
map), ``compare rank1.tor example.tor`` (the ``rank`` verdict), and
``compare zero.tor zero.tor`` with ``torsion zero.tor``, whose class is 0
(``zero.tor``'s inclusion word is its relator), so compare answers with
the identity witness.  ``finite-h1.tor`` has H_1 = Z/2 + Z, and its
report, recorded at 672821d, is a NontrivialTorsion refusal (exit 1);
``finite-h1-basis.tor`` is the same file with a ``[basis]`` that kills the
relator and generates Z, and its report, recorded after both paths came to
read H_1 from one Smith normal form, is the same refusal, where 672821d
printed the torsion 2.  Four ``compare`` cases reach verdicts that no other
traffic does, and were recorded at c386a17, before ``sutured_torsion`` reduced
its words by Tietze moves: ``compare rank3.tor rank3.tor`` (``Inconclusive``
in rank 3), ``compare rank0.tor rank0.tor`` (``Equivalent`` with the empty
witness, through the dimension-0 anchor of the map search), ``compare
zero.tor example.tor`` (``support_size``: one class is 0) and ``compare
example.tor antisymmetric.tor`` (``coefficient_multiset``).
``relator-conjugates.tor`` is the seed-7 ``tietze-0`` design file of the
benchmark, a Lyon S input with four Tietze generators and no ``[basis]``,
whose inclusion words hold conjugates of its relators; its report was
recorded at d77f3d8, before those conjugates were deleted from the words
ahead of the Tietze moves.  A change that alters any of them changes the
CLI's output.

Run as a script, ``python tests/test_golden.py`` checks the same cases
through ``python -m foxtorsion`` in a subprocess of the running interpreter,
which needs no pytest: each stdout byte for byte, and its exit status, 1
exactly when the recorded report has an error.
"""

import json
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "torsion-example": ["torsion", "example.tor"],
    "torsion-long-words": ["torsion", "long-words.tor"],
    "compare-example-example": ["compare", "example.tor", "example.tor"],
    "compare-example-long-words": ["compare", "example.tor", "long-words.tor"],
    "compare-rank1-rank1": ["compare", "rank1.tor", "rank1.tor"],
    "compare-rank1-example": ["compare", "rank1.tor", "example.tor"],
    "compare-zero-zero": ["compare", "zero.tor", "zero.tor"],
    "compare-rank3-rank3": ["compare", "rank3.tor", "rank3.tor"],
    "compare-rank0-rank0": ["compare", "rank0.tor", "rank0.tor"],
    "compare-zero-example": ["compare", "zero.tor", "example.tor"],
    "compare-example-antisymmetric": ["compare", "example.tor", "antisymmetric.tor"],
    **{
        f"family-{surface}-{n}": ["family", "--n", str(n), "--surface", surface]
        for surface in ("S", "Sprime")
        for n in (-1, 0, 7, 40, 150)
    },
    **{
        f"torsion-{name}": ["torsion", f"{name}.tor"]
        for name in (
            "rank1", "antisymmetric", "rank3", "wide",
            "generators-100", "generators-100-basis", "rank0", "rank0-basis",
            "zero", "finite-h1", "finite-h1-basis", "relator-conjugates",
        )
    },
    **{
        f"sfh-torus-{p}-{q}-{n}": ["sfh-torus", str(p), str(q), str(n)]
        for p, q, n in ((3, 4, 2), (2, 1, 6), (5, 2, 8))
    },
}

# --plot-data files: case -> the command line that writes it
PLOTS = {"plot-family-S-7": ["family", "--n", "7", "--surface", "S"]}


def expected(case):
    with open(os.path.join(GOLDEN, case + ".json"), encoding="ascii") as fh:
        return fh.read()


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", sorted(CASES))


def test_report_is_byte_identical(case, capsys, monkeypatch):
    from foxtorsion.cli import main

    monkeypatch.chdir(GOLDEN)
    code = main(CASES[case])
    out = capsys.readouterr().out
    assert out == expected(case)
    # exit 0 exactly when the report has no error
    assert code == int("error" in json.loads(out))


def test_plot_data_is_byte_identical(tmp_path, capsys, monkeypatch):
    from foxtorsion.cli import main

    monkeypatch.chdir(GOLDEN)
    for case, argv in PLOTS.items():
        path = tmp_path / f"{case}.json"
        assert main([*argv, "--plot-data", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text(encoding="ascii") == expected(case), case


def test_every_golden_report_has_a_case():
    reports = {f[: -len(".json")] for f in os.listdir(GOLDEN) if f.endswith(".json")}
    assert reports == set(CASES) | set(PLOTS)


def check_with_subprocesses():
    """Number of cases whose ``python -m foxtorsion`` stdout differs, or
    whose exit status is not 1 exactly when the recorded report has an error
    (0 for a plot case)."""
    src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(case, argv, None) for case, argv in sorted(CASES.items())]
        for case, argv in sorted(PLOTS.items()):
            path = os.path.join(tmp, case + ".json")
            runs.append((case, [*argv, "--plot-data", path], path))
        for case, argv, path in runs:
            run = subprocess.run(
                [sys.executable, "-m", "foxtorsion", *argv],
                cwd=GOLDEN, env=env, capture_output=True, check=False,
            )
            out = run.stdout
            status = 0
            if path is not None:
                with open(path, "rb") as fh:
                    out = fh.read()
            else:
                status = int("error" in json.loads(expected(case)))
            same = out == expected(case).encode("ascii") and run.returncode == status
            failed += not same
            print(f"{'ok  ' if same else 'DIFF'} {case}")
    return failed


if __name__ == "__main__":
    print(sys.version.split()[0])
    sys.exit(1 if check_with_subprocesses() else 0)
