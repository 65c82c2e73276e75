"""Every function in ``src/foxtorsion`` is entered by what the commands run.

The traffic is the golden corpus (every ``test_golden`` case and plot,
through ``cli.main`` with ``tests/golden`` as the working directory), the
README library example, the seed-7 design of each benchmark workload in
``perfbench/workloads.py`` with each operation's oracle check and the
warm-up, and three refusals through ``cli.main``: an unknown subcommand, a
word with an unclosed ``(`` and an unknown section.  A ``sys.setprofile``
hook records the code object of every Python call; a code object whose file
is under ``src/foxtorsion`` is matched to its ``def`` by its first line,
which for a decorated function is its first decorator's.

A function the traffic never enters serves only tests, so it belongs in
``tests/`` (``tests/helpers.py`` holds the word and group-ring operations
the tests build inputs and references with).  ``ALLOWLIST`` names the few
that stay anyway, each with its reason; an entry the traffic does enter, or
that names no function, fails too, so the list cannot go stale.
"""

import ast
import contextlib
import io
import json
import os
import sys

import pytest

from test_golden import CASES, GOLDEN, PLOTS, expected
from test_readme import library_example

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "foxtorsion")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from foxtorsion import cli  # noqa: E402

_PINNED = "perfbench/spans.py::TARGETS wraps it, so it stays where the benchmark looks"
_VALUE = "value semantics and debugging output of a public class"

ALLOWLIST = {
    "torsion.det_bareiss": _PINNED,
    "abelian.AbelianizationMap.__call__": _PINNED,
    "abelian.LaurentPoly.one": "only det_bareiss, a benchmark pin, reaches it",
    "abelian.LaurentPoly.zero": "only det_bareiss, a benchmark pin, reaches it",
    "abelian.LaurentPoly.min_exponents": (
        "only det_bareiss, a benchmark pin, reaches it, through _div_leading_terms"
    ),
    "_kernels.iadd_scaled": (
        "perfbench/spans.py::TARGETS wraps it, and only det_bareiss, a benchmark "
        "pin, reaches it, through _div_leading_terms"
    ),
    "abelian.LaurentPoly._div_leading_terms": (
        "only det_bareiss, a benchmark pin, reaches it: the family oracles "
        "divide by binomials"
    ),
    "abelian.LaurentPoly.constant": "the int operands of + and - call it",
    "words.Word.__eq__": "pairs with Word.__hash__, which the Fox term dicts call",
    "torsion.TorsionClass.__hash__": (
        "pairs with TorsionClass.__eq__, which cmd_family's oracle match calls"
    ),
    "abelian.LaurentPoly.__repr__": _VALUE,
    "torsion.TorsionClass.__repr__": _VALUE,
    "abelian.AbelianizationMap.__repr__": _VALUE,
    "abelian.AbelianizationMap.__eq__": _VALUE,
    "words.Presentation.__repr__": _VALUE,
    "words.Presentation.__eq__": _VALUE,
    "words.Word.__repr__": _VALUE,
    "groupring.GroupRingElement.__repr__": _VALUE,
    "groupring.GroupRingElement.__eq__": _VALUE,
}

# Inputs the CLI refuses, each reaching a refusal path no golden case does.
REFUSED_FILES = {
    "unclosed.tor": "[generators]\na b\n[relators]\n(a b\n[inclusion]\na\n",
    "section.tor": "[generators]\na b\n[relations]\na b\n",
}


def definitions(source, module):
    """{first line: "module.qualname"} for every function defined in
    ``source``, nested ones included; the first line of a decorated
    function is its first decorator's, as in its code object."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                found[min(lines)] = f"{module}.{name}"
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def src_definitions():
    """{(path, first line): "module.qualname"} over ``src/foxtorsion``."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(SRC, name))
            with open(path, encoding="utf-8") as fh:
                defs = definitions(fh.read(), name[: -len(".py")])
            found.update({(path, line): q for line, q in defs.items()})
    return found


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def traffic(workdir):
    """Run the commands' traffic once; returns the exit status of each CLI run."""
    exits = {}
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        for case, argv in CASES.items():
            exits[case] = _run_cli(argv)
        for case, argv in PLOTS.items():
            exits[case] = _run_cli([*argv, "--plot-data", os.path.join(workdir, case + ".json")])
    finally:
        os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(library_example(), "README.md", "exec"), {})
    for name, workload in workloads.WORKLOADS.items():
        for op in [workload.warmup(workdir), *workload.design(7, workdir)]:
            report, text = op.run()
            assert op.check(report, text) is None, name
    exits["unknown-command"] = _run_cli(["knot"])
    for name, text in REFUSED_FILES.items():
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        exits[name] = _run_cli(["torsion", path])
    return exits


def entered_code(run):
    """The code objects of every Python function entered while ``run()``
    runs, and its result."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return seen, result


def unreached(defined, entered, allowlist):
    """(functions neither entered nor allowed, allowlist entries that are
    entered or defined nowhere), each sorted."""
    names = set(defined)
    missing = sorted(names - set(entered) - set(allowlist))
    stale = sorted(k for k in allowlist if k not in names or k in entered)
    return missing, stale


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    defined = src_definitions()
    workdir = str(tmp_path_factory.mktemp("reach"))
    code_objects, exits = entered_code(lambda: traffic(workdir))
    entered = {
        defined[key]
        for key in ((os.path.realpath(c.co_filename), c.co_firstlineno) for c in code_objects)
        if key in defined
    }
    return set(defined.values()), entered, exits


def test_the_traffic_runs_the_commands_and_their_refusals(reach):
    _, _, exits = reach
    # a golden case exits 1 exactly when its report names an error
    golden = {case: int("error" in json.loads(expected(case))) for case in [*CASES, *PLOTS]}
    assert {case: exits[case] for case in golden} == golden
    assert [exits["unknown-command"], *(exits[name] for name in REFUSED_FILES)] == [1, 1, 1]


def test_every_src_function_is_entered_or_allowlisted(reach):
    defined, entered, _ = reach
    missing, stale = unreached(defined, entered, ALLOWLIST)
    assert not missing, "never entered; move to tests/ or allowlist: " + ", ".join(missing)
    assert not stale, "allowlisted, but entered or defined nowhere: " + ", ".join(stale)


def test_a_function_is_named_by_its_first_line_decorators_counted():
    source = (
        "class A:\n"
        "    @property\n"
        "    def p(self):\n"
        "        def inner():\n"
        "            pass\n"
        "\n"
        "def f():\n"
        "    pass\n"
    )
    assert definitions(source, "m") == {2: "m.A.p", 4: "m.A.p.inner", 7: "m.f"}


def test_decorated_src_functions_are_found_by_their_code_objects():
    from foxtorsion.abelian import LaurentPoly

    defined = src_definitions()
    for name, function in (
        ("is_zero", LaurentPoly.is_zero.fget),
        ("_raw", LaurentPoly._raw.__func__),
    ):
        code = function.__code__
        key = (os.path.realpath(code.co_filename), code.co_firstlineno)
        assert defined[key] == f"abelian.LaurentPoly.{name}"


def test_unreached_and_stale_entries_are_both_named():
    defined = {"m.used", "m.unused", "m.kept", "m.allowed_but_run"}
    entered = {"m.used", "m.allowed_but_run"}
    allowlist = {"m.kept": "", "m.allowed_but_run": "", "m.gone": ""}
    assert unreached(defined, entered, allowlist) == (
        ["m.unused"],
        ["m.allowed_but_run", "m.gone"],
    )
