"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.

The determinant first eliminates unit pivots (+-monomial entries, which every
Tietze relator y w^-1 contributes) while the matrix is larger than 3x3, then
expands cofactors up to 4x4 and runs fraction-free Bareiss elimination above.
The value is exact, not just its class up to units.  3x3 is the floor because
elimination there would fill the entries that the expansion multiplies.
"""

from dataclasses import dataclass

from ._kernels import accumulate
from .abelian import AbelianizationMap, LaurentPoly, grlex_key
from .errors import (
    InexactDivision,
    InternalInexactDivision,
    NotBalanced,
    UnknownGenerator,
)
from .groupring import fox_derivative
from .words import Presentation, render_word


@dataclass(frozen=True)
class TorsionInput:
    """A geometrically balanced presentation with inclusion words and a basis."""

    presentation: Presentation
    inclusion_words: tuple
    abelianization: AbelianizationMap

    def __post_init__(self):
        object.__setattr__(self, "inclusion_words", tuple(self.inclusion_words))
        known = set(self.presentation.generator_names)
        for w in self.inclusion_words:
            unknown = w.generator_names() - known
            if unknown:
                raise UnknownGenerator(
                    f"inclusion word {render_word(w)!r} uses unknown generators "
                    f"{sorted(unknown)}"
                )


class TorsionClass:
    """A Laurent polynomial up to multiplication by +-(monomial), in normal form.

    The stored representative has minimum exponent 0 in every variable and a
    positive coefficient on its graded-lex smallest monomial; the zero
    polynomial is its own class.
    """

    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = _normalize(poly)

    @property
    def rank(self):
        return self.poly.rank

    @property
    def is_zero(self):
        return self.poly.is_zero

    @property
    def representative(self):
        return self.poly

    def coefficient_sum(self):
        return self.poly.coefficient_sum()

    def support_points(self):
        return self.poly.support()

    def reflect(self):
        return TorsionClass(self.poly.reflected())

    def is_centrally_symmetric(self):
        return self.reflect() == self

    def render(self, names):
        return self.poly.render(names)

    def __eq__(self, other):
        return isinstance(other, TorsionClass) and self.poly == other.poly

    def __hash__(self):
        return hash((self.poly.rank, frozenset(self.poly.terms.items())))

    def __repr__(self):
        return f"TorsionClass({self.poly!r})"


def _normalize(poly):
    if poly.is_zero:
        return poly
    shifted = poly.shifted(tuple(-e for e in poly.min_exponents()))
    smallest = min(shifted.terms, key=grlex_key)
    if shifted.terms[smallest] < 0:
        shifted = -shifted
    return shifted


def torsion_normal_form(poly):
    """Normal form of a Laurent polynomial under the +-(monomial) ambiguity."""
    return TorsionClass(poly)


def reflect(t):
    """Image of a torsion class under exponent negation, renormalized."""
    return t.reflect()


def is_centrally_symmetric(t):
    return t.is_centrally_symmetric()


def fox_matrix(torsion_input):
    """The square matrix of abelianized Fox derivatives.

    Column j < l holds the derivatives of the j-th inclusion word, the
    remaining columns those of the relators; row i differentiates with respect
    to generator i.  Raises NotBalanced when the deficiency does not equal the
    number of inclusion words.

    Each word is abelianized once, prefix by prefix: every term of a
    left-to-right Fox derivative is a prefix of the reduced word (Fox's
    prefix rule), so its length picks its exponent vector from the word's
    ``prefix_exponents``.  Entry (i, j) thus equals
    ``phi(fox_derivative(w_j, g_i))`` without mapping any prefix again.
    """
    pres = torsion_input.presentation
    phi = torsion_input.abelianization
    words = list(torsion_input.inclusion_words) + list(pres.relators)
    m = len(pres.generators)
    if pres.deficiency != len(torsion_input.inclusion_words):
        raise NotBalanced(
            f"deficiency {pres.deficiency} != {len(torsion_input.inclusion_words)} "
            "inclusion words"
        )
    if len(words) != m:
        raise NotBalanced(f"{len(words)} columns for {m} generators")
    columns = [(w, phi.prefix_exponents(w)) for w in words]
    return [
        [
            LaurentPoly._raw(
                phi.rank,
                accumulate(
                    (prefix[len(u)], c)
                    for u, c in fox_derivative(w, g).terms.items()
                ),
            )
            for w, prefix in columns
        ]
        for g in pres.generators
    ]


def _minor(matrix, row, col):
    return [
        [entry for j, entry in enumerate(r) if j != col]
        for i, r in enumerate(matrix)
        if i != row
    ]


def _square_rank(matrix):
    """Ring rank of a nonempty square matrix's entries; ValueError otherwise."""
    n = len(matrix)
    if n == 0:
        raise ValueError("a 0x0 matrix has no ring rank")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    ranks = {e.rank for row in matrix for e in row}
    if len(ranks) != 1:
        raise ValueError(f"matrix entries live in different rings: ranks {sorted(ranks)}")
    return ranks.pop()


def det_cofactor(matrix):
    """Determinant by cofactor expansion along the first column (any size)."""
    rank = _square_rank(matrix)

    def go(m):
        if len(m) == 1:
            return m[0][0]
        total = LaurentPoly.zero(rank)
        for i in range(len(m)):
            entry = m[i][0]
            if entry.is_zero:
                continue
            sub = go(_minor(m, i, 0))
            term = entry * sub
            total = total + (term if i % 2 == 0 else -term)
        return total

    return go(matrix)


def det_bareiss(matrix):
    """Determinant by fraction-free elimination with exact polynomial division.

    Every division is by a previous pivot and is exact by the Sylvester
    identity; a remainder therefore signals a defect in this code, reported as
    InternalInexactDivision, never bad input.
    """
    rank = _square_rank(matrix)
    n = len(matrix)
    A = [list(row) for row in matrix]
    sign = 1
    prev = LaurentPoly.one(rank)
    for k in range(n - 1):
        if A[k][k].is_zero:
            for i in range(k + 1, n):
                if not A[i][k].is_zero:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero(rank)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = A[i][j] * A[k][k] - A[i][k] * A[k][j]
                try:
                    A[i][j] = num.exact_div(prev)
                except InexactDivision as exc:
                    raise InternalInexactDivision(
                        f"fraction-free step ({i},{j}) at stage {k} was not exact"
                    ) from exc
            A[i][k] = LaurentPoly.zero(rank)
        prev = A[k][k]
    result = A[n - 1][n - 1]
    return result if sign == 1 else -result


# determinant eliminates unit pivots only while the matrix is larger than this
UNIT_PIVOT_FLOOR = 3


def _is_unit(entry):
    """Whether a Laurent polynomial is +-(monomial), a unit of the ring."""
    return len(entry.terms) == 1 and abs(next(iter(entry.terms.values()))) == 1


def _unit_pivot(A):
    """(p, q) of the unit entry of lowest Markowitz cost (r - 1)(c - 1), where
    r and c count the nonzeros in its row and column; ties go to the first in
    row-major order.  None when no entry is a unit."""
    row_counts = [sum(not e.is_zero for e in row) for row in A]
    col_counts = [sum(not row[j].is_zero for row in A) for j in range(len(A))]
    best = None
    for i, row in enumerate(A):
        for j, entry in enumerate(row):
            if _is_unit(entry):
                cost = (row_counts[i] - 1) * (col_counts[j] - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def _eliminate_unit(A, p, q):
    """The matrix B with det A = (-1)^(p+q) * A[p][q] * det B, for a unit A[p][q].

    Column q is cleared with row_i -= A[i][q] * u^-1 * row_p, which needs no
    division and keeps the determinant; expanding along the cleared column
    leaves row p and column q out of B.
    """
    ((exps, coeff),) = A[p][q].terms.items()
    # u^-1 = coeff * x^-exps, as coeff is +-1
    inverse_shift = tuple(-e for e in exps)
    pivot_row = [e.shifted(inverse_shift) for e in A[p]]
    if coeff < 0:
        pivot_row = [-e for e in pivot_row]
    B = []
    for i, row in enumerate(A):
        if i == p:
            continue
        m = row[q]
        B.append([
            e if m.is_zero or pivot_row[j].is_zero else e - m * pivot_row[j]
            for j, e in enumerate(row)
            if j != q
        ])
    return B


def determinant(matrix):
    """Exact determinant of a square Laurent matrix.

    While the matrix is larger than 3x3, unit pivots are eliminated first,
    lowest Markowitz cost first; each step is division free and contributes
    a known unit factor.  What is left goes to cofactor expansion up to 4x4
    and to Bareiss elimination above.  The 3x3 floor is a fill guard on the
    dimension alone: elimination lengthens the entries that the expansion
    multiplies, and made the Lyon family's 3x3 determinants about 4x slower.
    """
    rank = _square_rank(matrix)
    factor = LaurentPoly.one(rank)
    while len(matrix) > UNIT_PIVOT_FLOOR and (pivot := _unit_pivot(matrix)):
        p, q = pivot
        u = matrix[p][q]
        factor = factor * (u if (p + q) % 2 == 0 else -u)
        matrix = _eliminate_unit(matrix, p, q)
    det = det_cofactor(matrix) if len(matrix) <= 4 else det_bareiss(matrix)
    return det if factor == LaurentPoly.one(rank) else factor * det


def sutured_torsion(torsion_input):
    """Torsion class of a balanced input: Fox matrix, determinant, normal form."""
    return torsion_normal_form(determinant(fox_matrix(torsion_input)))
