"""The README's examples run and print what their comments say, the input
files it names exist, and its budget table gives each constant's value."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import foxtorsion
from foxtorsion.cli import cmd_compare

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_commented_outputs():
    code = library_example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == [
        "a + a*u^2 + a*u^4 + u^6 + u^8 + u^10",
        "(1, 1, 4, 4)",
        "(2, 2, 8, 8)",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_named_input_files_exist():
    paths = re.findall(r"[\w./-]+\.tor\b", README.read_text(encoding="utf-8"))
    assert paths
    root = README.parent
    assert [p for p in paths if not (root / p).is_file()] == []


def test_compare_example_prints_its_commented_verdict():
    line = next(
        line
        for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("$ foxtorsion compare ")
    )
    command, comment = line.split("#", 1)
    report, _ = cmd_compare(*(str(README.parent / p) for p in command.split()[3:]))
    verdict = report["torsion_verdict"]
    assert f"{verdict['kind']}: {verdict['reason']}" == comment.strip()


def test_the_package_exports_the_library_example_and_the_benchmark_names():
    surface = {
        "AbelianizationMap", "BACKEND", "LaurentPoly", "Presentation",
        "TorsionClass", "TorsionInput", "abelianize_presentation",
        "compare_torsion", "errors", "newton_polytope", "parse_word",
        "sfh_polytope", "support", "sutured_torsion",
    }
    assert sorted(foxtorsion.__all__) == sorted(surface)
    namespace = {}
    exec("from foxtorsion import *", namespace)
    assert set(namespace) - {"__builtins__"} == surface
    imported = re.search(r"from foxtorsion import \((.*?)\)", library_example(), re.S)
    assert set(imported.group(1).replace(",", " ").split()) <= surface


def budget_rows():
    """{"module.NAME": value} for each row of the README's budget table; a
    value is an int with thousands commas or a power written b^e."""
    section = README.read_text(encoding="utf-8").split("## Budgets", 1)[1]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([\d,]+)(?:\^(\d+))? \|", section, re.M)
    return {name: int(value.replace(",", "")) ** int(power or 1) for name, value, power in rows}


def test_the_budget_table_gives_each_constant_its_value():
    rows = budget_rows()
    assert sorted(rows) == sorted([
        "cli.MAX_GENERATORS", "cli.MAX_BASIS_DIGITS", "cli.MAX_FAMILY_N",
        "torsion.MAX_TERM_PRODUCTS", "words.MAX_WORD_LETTERS",
        "words.MAX_EXPANDED_LETTERS", "words.MAX_EXPONENT", "words.MAX_NESTING",
        "sfh.MAX_BINOMIAL_ROW", "sfh.MAX_TABLE_LENGTH",
    ])
    actual = {}
    for name in rows:
        module, constant = name.split(".")
        actual[name] = getattr(importlib.import_module(f"foxtorsion.{module}"), constant)
    assert rows == actual
