"""The twisted-band knot family of Lyon and its two Seifert surfaces.

For each n >= -1 the two genus-one surfaces of the n-th knot have
complementary sutured manifolds presented on generators a, b, x with a single
relator; the surface generators include as explicit words in a and b.  This
module builds those inputs and the closed-form torsion oracles that ``family``
checks its result against.  The two-generator block polynomial with its
recurrence, and the Alexander coefficients, serve only the acceptance tests
and live in ``tests/helpers.py`` and ``tests/test_lyon.py``.

The primed surface uses the words on the positive boundary side, so the
pipeline computes the reflected torsion; that is harmless exactly when the
result is centrally symmetric, which the family pipeline records as a flag.
"""

from dataclasses import dataclass

from .abelian import AbelianizationMap, LaurentPoly
from .errors import UnsupportedN
from .torsion import TorsionInput, torsion_normal_form
from .words import Presentation, parse_word

SURFACES = ("S", "Sprime")


@dataclass(frozen=True)
class LyonCase:
    """One member of the family: twist parameter n >= -1 and a surface choice."""

    n: int
    surface: str

    def __post_init__(self):
        if self.n < -1:
            raise UnsupportedN(f"family parameter must satisfy n >= -1, got {self.n}")
        if self.surface not in SURFACES:
            raise ValueError(f"surface must be one of {SURFACES}, got {self.surface!r}")


def _case(case_or_n, surface=None):
    if isinstance(case_or_n, LyonCase):
        return case_or_n
    return LyonCase(int(case_or_n), surface)


def lyon_presentation(surface):
    gens = ("a", "b", "x")
    if surface == "S":
        relator = "x^3 b^-2 a^-2"
    else:
        relator = "x^3 b^-2 a^-1 b^-1"
    return Presentation(gens, (relator,))


def lyon_surface_words(case):
    """The two surface generators pushed into the complement, in (a, b)."""
    gens = ("a", "b", "x")
    k = case.n + 1
    if case.surface == "S":
        alpha = parse_word(f"(a b^-1)^{k} b^2", gens)
        beta = parse_word(f"b a (b a^-1)^{k}", gens)
    else:
        alpha = parse_word(f"a (b a^-1)^{k}", gens)
        beta = parse_word(f"(a b^-1)^{k} a b^2", gens)
    return alpha, beta


def lyon_basis(surface):
    """The hand-picked free-abelianization basis used for printable output."""
    if surface == "S":
        # in homology x = u^2 and b = u^3 a^-1
        return AbelianizationMap(
            2, {"a": (1, 0), "b": (-1, 3), "x": (0, 2)}, ("a", "u")
        )
    # the primed group is free on b and x, with a = x^3 b^-3 in homology
    return AbelianizationMap(2, {"a": (-3, 3), "b": (1, 0), "x": (0, 1)}, ("b", "x"))


def lyon_input(case_or_n, surface=None):
    """TorsionInput for one family member, in the basis `lyon_basis`.  The
    basis does not depend on n, and the tests check once that
    `abelianize_presentation` accepts it verbatim, so it is not validated
    again on every call."""
    case = _case(case_or_n, surface)
    words = lyon_surface_words(case)
    return TorsionInput(lyon_presentation(case.surface), words, lyon_basis(case.surface))


def _poly2(pairs):
    return LaurentPoly(2, pairs)


def expected_torsion(case_or_n, surface=None):
    """Closed-form torsion oracle for one family member, as a normalized class.

    The numerator first - second, at most 8 terms, is multiplied by the
    3-term prefactor, and the product is divided exactly by the binomial
    denominator in one pass (`LaurentPoly.exact_div`), whose quotient is the
    whole class.  An InexactDivision here would mean the closed form was
    transcribed wrongly, so it is deliberately not caught.
    """
    case = _case(case_or_n, surface)
    n = case.n
    if case.surface == "S":
        # variables (a, u)
        prefactor = _poly2([((0, 0), 1), ((0, 2), 1), ((0, 4), 1)])
        denominator = _poly2([((2, 0), 1), ((0, 3), -1)])
        first = _poly2(
            [((2, 0), 1), ((1, 3), 1), ((1, 6), 1), ((0, 6), 1)]
        ).shifted((2 * n + 2, 0))
        second = _poly2(
            [((3, 0), 1), ((2, 0), 1), ((2, 3), 1), ((1, 6), 1)]
        ).shifted((0, 3 * n + 3))
    else:
        # variables (b, x)
        prefactor = _poly2([((0, 0), 1), ((0, 1), 1), ((0, 2), 1)])
        denominator = _poly2([((0, 3), 1), ((4, 0), -1)])
        first = _poly2(
            [((5, 0), 1), ((4, 0), 1), ((3, 0), 1), ((2, 3), 1)]
        ).shifted((0, 3 * n + 3))
        second = _poly2(
            [((3, 0), 1), ((2, 3), 1), ((1, 3), 1), ((0, 3), 1)]
        ).shifted((4 * n + 4, 0))
    return torsion_normal_form(((first - second) * prefactor).exact_div(denominator))

