"""The twisted-band knot family of Lyon and its two Seifert surfaces.

For each n >= -1 the two genus-one surfaces of the n-th knot have
complementary sutured manifolds presented on generators a, b, x with a single
relator; the surface generators include as explicit words in a and b.  This
module builds those inputs, the closed-form torsion oracles, and the shared
two-generator block polynomial with its recurrence.

The primed surface uses the words on the positive boundary side, so the
pipeline computes the reflected torsion; that is harmless exactly when the
result is centrally symmetric, which the family pipeline records as a flag.
"""

from dataclasses import dataclass

from .abelian import AbelianizationMap, LaurentPoly, abelianize_presentation
from .errors import InexactDivision, UnsupportedN
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
    """TorsionInput for one family member; the basis is validated, not trusted."""
    case = _case(case_or_n, surface)
    presentation = lyon_presentation(case.surface)
    basis = abelianize_presentation(presentation, lyon_basis(case.surface))
    return TorsionInput(presentation, lyon_surface_words(case), basis)


def _poly2(pairs):
    return LaurentPoly(2, pairs)


def surface_block_poly(n):
    """Determinant of the surface-word derivative block, as a polynomial in (a, b).

    Computed by the exact recurrence  p(n+1) = a * p(n) + b^(n+2) * s  from the
    n = -1 seed, where s = 1 + a + ab + ab^2; the closed form
    b * (a^(n+1) * (1+b+b^2+ab^2) - b^(n+1) * s) / (a - b) is recomputed by
    exact division as a transcription check.  Returned in normal form (minimum
    exponents zero, positive leading coefficient).
    """
    if n < -1:
        raise UnsupportedN(f"family parameter must satisfy n >= -1, got {n}")
    a = LaurentPoly.monomial((1, 0))
    s = _poly2([((0, 0), 1), ((1, 0), 1), ((1, 1), 1), ((1, 2), 1)])
    value = _poly2([((0, 1), -1), ((0, 2), -1)])  # seed at n = -1
    for m in range(-1, n):
        value = a * value + LaurentPoly.monomial((0, m + 2)) * s
    sa = _poly2([((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((1, 2), 1)])
    numerator = LaurentPoly.monomial((0, 1)) * (
        LaurentPoly.monomial((n + 1, 0)) * sa - LaurentPoly.monomial((0, n + 1)) * s
    )
    closed = numerator.exact_div(a - LaurentPoly.monomial((0, 1)))
    if closed != value:
        raise InexactDivision("recurrence and closed form disagree; transcription error")
    return torsion_normal_form(value).representative


def expected_torsion(case_or_n, surface=None):
    """Closed-form torsion oracle for one family member, as a normalized class.

    Evaluated by exact division; an InexactDivision here would mean the closed
    form was transcribed wrongly, so it is deliberately not caught.
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
    quotient = (first - second).exact_div(denominator)
    return torsion_normal_form(quotient * prefactor)


def alexander_coefficients(n):
    """(top, middle) coefficients of the family's symmetric degree-1 polynomial."""
    return (6 + 12 * n, -(11 + 24 * n))
