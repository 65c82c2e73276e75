"""Command-line front end: sectioned input files, subcommands, JSON reports.

Input files are plain text with fixed section order; ``#`` starts a comment:

    [generators]
    a b x
    [relators]
    x^3 b^-2 a^-2
    [inclusion]
    (a b^-1)^1 b^2
    b a (b a^-1)^1
    [basis]            # optional
    names = a u
    a = 1 0
    b = -1 3
    x = 0 2

Every command prints a single JSON report to stdout (byte-identical across
runs on the same input) and exits 0 exactly when the report carries no error
object.  ``--json`` additionally writes the report to a file; ``--plot-data``
dumps support points and hull vertices for external plotting.
"""

import argparse
import json
import re
import sys

from .abelian import AbelianizationMap, abelianize_presentation, graded_lex, render_terms
from .errors import (
    FoxTorsionError,
    InputEncodingError,
    InputFileError,
    InputTooLarge,
    NotBalanced,
    RankUnsupported,
    UsageError,
)
from .equivalence import compare_torsion
from .lyon import LyonCase, expected_torsion, lyon_input
from .polytope import (
    affine_dimension,
    newton_polytope,
    polygon_affine_equivalent,
    sfh_polytope,
    support,
)
from .sfh import torus_sfh
from .torsion import TorsionInput, sutured_torsion
from .words import Presentation, parse_word, render_word

_SECTIONS = ("generators", "relators", "inclusion", "basis")

# The most generators a file may declare.  With sparse relators, a defining
# relator y a^-1 b for each generator y beyond three, the Tietze moves leave
# a, b and x, so the Fox matrix is 3x3; what grows with the generators is the
# reduction, whose every move rereads the relators, and the Smith normal
# form.  Dense relators pass every budget yet load slowly, in the Smith
# normal form.
MAX_GENERATORS = 100

# The most digits, after its sign, of a [basis] image field.  Exponents then
# stay near 1,007 digits and hull areas near 2,020 (100 generators, 20,000
# letters), under the 4,300 that str() and so json print.
MAX_BASIS_DIGITS = 1000
# A [basis] image field: ASCII decimal digits after an optional sign, so that
# int()'s other forms ('1_0', Unicode digits) are refused.
_FIELD_RE = re.compile(r"[+-]?[0-9]+")


def parse_torsion_file(text):
    """The TorsionInput of a file's text.  Errors come in a fixed order: sections,
    generator budget, [basis] lines, balance, presentation, inclusion words,
    basis map.  The balance check counts lines, so an unbalanced file is
    refused before any word is parsed."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise InputFileError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise InputFileError(f"line {lineno}: duplicate section [{name}]")
            if current and _SECTIONS.index(name) <= _SECTIONS.index(current):
                raise InputFileError(
                    f"line {lineno}: section [{name}] out of order; expected "
                    f"order {list(_SECTIONS)}"
                )
            sections[name] = []
            current = name
            continue
        if current is None:
            raise InputFileError(f"line {lineno}: content before any section header")
        sections[current].append((lineno, line))

    for required in ("generators", "relators", "inclusion"):
        if required not in sections:
            raise InputFileError(f"missing required section [{required}]")

    generators = tuple(
        name for _, line in sections["generators"] for name in line.split()
    )
    if not generators:
        raise InputFileError("section [generators] is empty")
    if len(generators) > MAX_GENERATORS:
        raise InputTooLarge(
            f"{len(generators)} generators exceed the limit of {MAX_GENERATORS}"
        )

    names = None
    images = {}
    if "basis" in sections and "names" in generators:
        raise InputFileError(
            "generator 'names' clashes with the [basis] line 'names = ...'"
        )
    for lineno, line in sections.get("basis", ()):
        if "=" not in line:
            raise InputFileError(
                f"line {lineno}: basis lines must look like 'key = values'"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        fields = value.split()
        if key == "names":
            if names is not None:
                raise InputFileError(f"line {lineno}: duplicate basis line 'names'")
            names = tuple(fields)
            continue
        if key not in generators:
            raise InputFileError(
                f"line {lineno}: basis image for unknown generator {key!r}"
            )
        if key in images:
            raise InputFileError(f"line {lineno}: duplicate basis image for {key!r}")
        if any(len(f.lstrip("+-")) > MAX_BASIS_DIGITS for f in fields):
            raise InputTooLarge(
                f"line {lineno}: basis image for {key!r} has a field of more "
                f"than {MAX_BASIS_DIGITS} digits"
            )
        if not all(map(_FIELD_RE.fullmatch, fields)):
            raise InputFileError(
                f"line {lineno}: non-integer exponent in basis image for {key!r}"
            )
        images[key] = tuple(map(int, fields))
    if "basis" in sections and names is None:
        raise InputFileError("section [basis] needs a 'names = ...' line")
    # one word per line; the message is fox_matrix's
    deficiency = len(generators) - len(sections["relators"])
    if deficiency != len(sections["inclusion"]):
        raise NotBalanced(
            f"deficiency {deficiency} != {len(sections['inclusion'])} inclusion words"
        )

    presentation = Presentation(generators, [line for _, line in sections["relators"]])
    known = frozenset(generators)
    inclusion = [parse_word(line, known) for _, line in sections["inclusion"]]
    user = None if names is None else AbelianizationMap(len(names), images, names)
    return TorsionInput(presentation, inclusion, abelianize_presentation(presentation, user))


def load_torsion_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputEncodingError(
            f"line {line}: byte 0x{data[exc.start]:02x} is not ASCII; "
            "input files must be ASCII"
        ) from None
    return parse_torsion_file(text)


# ---------------------------------------------------------------------------
# report construction


def _polygon_dict(polygon):
    return {
        "dimension": polygon.dimension,
        "vertices": [list(v) for v in polygon.vertices],
        "edges": [
            {"direction": list(d), "lattice_length": length}
            for d, length in polygon.edges
        ],
        "edge_length_multiset": list(polygon.edge_length_multiset()),
        "doubled_area": polygon.doubled_area(),
        "lattice_point_count": polygon.lattice_point_count(),
    }


def _terms_section(ordered, names):
    """A graded-lex term list, as `LaurentPoly.sorted_terms` gives it, and its
    rendering."""
    return {"terms": ordered, "rendered": render_terms(ordered, names)}


def _torsion_body(tclass, names):
    """The report's torsion section, and the class's Newton polygon (None for
    the zero class and in rank > 2) for the caller to reuse.  The terms and
    the support are the two lists of `graded_lex`, written as they are."""
    lex, ordered = graded_lex(tclass.representative.terms)
    body = {
        "variables": list(names),
        **_terms_section(ordered, names),
        "coefficient_sum": tclass.coefficient_sum(),
        "centrally_symmetric": tclass.is_centrally_symmetric(),
        "support": lex,
    }
    if tclass.is_zero:
        body.update(polygon=None, sfh_polytope=None)
        return body, None
    points = support(tclass)
    try:
        hull = newton_polytope(points)
    except RankUnsupported:
        dimension = affine_dimension(points.points)
        note = "hull structure unavailable for rank > 2"
        body.update(polygon={"dimension": dimension, "note": note}, sfh_polytope=None)
        return body, None
    body["polygon"] = _polygon_dict(hull)
    body["sfh_polytope"] = _polygon_dict(sfh_polytope(hull))
    return body, hull


def _witness_dict(witness):
    if witness is None:
        return None
    return {
        "matrix": [list(row) for row in witness.matrix],
        "translation": list(witness.translation),
        "sign": witness.sign,
    }


def _input_echo(tinput):
    basis = tinput.abelianization
    return {
        "generators": list(tinput.presentation.generators),
        "relators": [render_word(r) for r in tinput.presentation.relators],
        "inclusion_words": [render_word(w) for w in tinput.inclusion_words],
        "basis": {
            "names": list(basis.basis_names),
            "images": {g: list(v) for g, v in sorted(basis.images.items())},
        },
    }


def _plot_payload(body):
    return {
        "support": body["support"],
        "hull_vertices": (body["polygon"] or {}).get("vertices", []),
        "sfh_polytope_vertices": (body["sfh_polytope"] or {}).get("vertices", []),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_torsion(path):
    tinput = load_torsion_file(path)
    tclass = sutured_torsion(tinput)
    body, _ = _torsion_body(tclass, tinput.abelianization.basis_names)
    report = {
        "command": "torsion",
        "arguments": {"file": path},
        "input": _input_echo(tinput),
        "torsion": body,
    }
    return report, _plot_payload(body)


def cmd_compare(path1, path2):
    in1 = load_torsion_file(path1)
    in2 = load_torsion_file(path2)
    t1 = sutured_torsion(in1)
    t2 = sutured_torsion(in2)
    body1, hull1 = _torsion_body(t1, in1.abelianization.basis_names)
    body2, hull2 = _torsion_body(t2, in2.abelianization.basis_names)
    hulls = None if hull1 is None or hull2 is None else (hull1, hull2)
    verdict = compare_torsion(t1, t2, hulls)
    polygons = None
    if hulls is not None:
        # an Equivalent witness maps support onto support, so hull onto hull
        polygons = verdict.kind == "Equivalent" or polygon_affine_equivalent(*hulls)
    report = {
        "command": "compare",
        "arguments": {"first": path1, "second": path2},
        "first": {"input": _input_echo(in1), "torsion": body1},
        "second": {"input": _input_echo(in2), "torsion": body2},
        "torsion_verdict": {
            "kind": verdict.kind,
            "reason": verdict.reason,
            "witness": _witness_dict(verdict.witness),
        },
        "polytopes_affine_equivalent": polygons,
    }
    return report, {"first": _plot_payload(body1), "second": _plot_payload(body2)}


# The largest family parameter `family` computes.  The torsion support has
# 12n + 6 points, 36,006 here, and the words about 2n letters, in which the
# Fox matrix is linear.
MAX_FAMILY_N = 3000


def cmd_family(n, surface):
    if n > MAX_FAMILY_N:
        raise InputTooLarge(
            f"family parameter n = {n} exceeds the limit of {MAX_FAMILY_N}; "
            "the torsion support has 12n + 6 points"
        )
    case = LyonCase(n, surface)
    tinput = lyon_input(case)
    tclass = sutured_torsion(tinput)
    oracle = expected_torsion(case)
    names = tinput.abelianization.basis_names
    body, _ = _torsion_body(tclass, names)
    match = tclass == oracle
    # a matching oracle is the same class, so its section is the torsion's
    expected = body if match else _terms_section(oracle.representative.sorted_terms(), names)
    report = {
        "command": "family",
        "arguments": {"n": n, "surface": surface},
        "input": _input_echo(tinput),
        "torsion": body,
        "expected": {"rendered": expected["rendered"], "terms": expected["terms"]},
        "oracle_match": match,
        "uses_positive_side_words": surface == "Sprime",
    }
    return report, _plot_payload(body)


def cmd_sfh_torus(p, q, n):
    table = torus_sfh(p, n)
    report = {
        "command": "sfh-torus",
        "arguments": {"p": p, "q": q, "sutures": n},
        "ranks": [[grading, rank] for grading, rank in table.items()],
        "total_rank": sum(table.values()),
    }
    return report, None


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError, so that a bad command line gets a JSON report too,
    where argparse would print usage and exit 2.  Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser():
    """The parser and its subparsers by command name; each subparser sets
    ``run`` to the handler of its parsed arguments."""
    parser = _ArgumentParser(
        prog="foxtorsion",
        description="Exact torsion polynomials of sutured manifolds via Fox calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tor = sub.add_parser("torsion", help="torsion of one presentation file")
    p_tor.add_argument("file")
    p_tor.set_defaults(run=lambda args: cmd_torsion(args.file))

    p_cmp = sub.add_parser("compare", help="compare the torsion of two files")
    p_cmp.add_argument("file1")
    p_cmp.add_argument("file2")
    p_cmp.set_defaults(run=lambda args: cmd_compare(args.file1, args.file2))

    p_fam = sub.add_parser("family", help="built-in twisted-band knot family")
    p_fam.add_argument("--n", type=int, required=True)
    p_fam.add_argument("--surface", choices=("S", "Sprime"), required=True)
    p_fam.set_defaults(run=lambda args: cmd_family(args.n, args.surface))

    p_sfh = sub.add_parser("sfh-torus", help="solid-torus graded rank table")
    p_sfh.add_argument("p", type=int)
    p_sfh.add_argument("q", type=int)
    p_sfh.add_argument("n", type=int)
    p_sfh.set_defaults(run=lambda args: cmd_sfh_torus(args.p, args.q, args.n))

    for p in sub.choices.values():
        p.add_argument("--json", metavar="PATH", help="also write the report here")
        p.add_argument(
            "--plot-data", metavar="PATH", help="write support/hull points here"
        )
    return parser, sub.choices


def _error_report(command, kind, exc):
    return {"command": command, "error": {"type": kind, "message": str(exc)}}


def _dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write_files(args, report, plot):
    # The plot goes first: if either write fails, no report file is left
    # that disagrees with the IOError report on stdout.
    if args.plot_data and plot is not None:
        with open(args.plot_data, "w", encoding="ascii") as fh:
            fh.write(_dumps(plot))
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(_dumps(report))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    command = argv[0] if argv and argv[0] in commands else None
    args = plot = None
    try:
        args = parser.parse_args(argv)
        command = args.command
        report, plot = args.run(args)
    except FoxTorsionError as exc:
        report = _error_report(command, type(exc).__name__, exc)
    except OSError as exc:
        report = _error_report(command, "IOError", exc)
    if args is not None:
        try:
            _write_files(args, report, plot)
        except OSError as exc:
            report = _error_report(command, "IOError", exc)
    sys.stdout.write(_dumps(report))
    return 1 if "error" in report else 0


if __name__ == "__main__":
    raise SystemExit(main())
