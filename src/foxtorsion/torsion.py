"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.

Before the determinant, each column whose word is mostly a power v^k, whose
Fox derivatives are geometric sums in the image U of v, is multiplied by the
binomial x^U - 1.  The word alone decides U: at least half of its letters
must take step U from the previous occurrence of their letter; the product
is kept when it has fewer terms than the column.  The determinant of the
cleared matrix is then divided by those binomials, which
`LaurentPoly.exact_div` does in one pass.  The determinant itself first
eliminates unit pivots (+-monomial entries, which every Tietze relator
y w^-1 contributes) while the matrix is larger than 3x3, then expands along
the columns over memoized minors, with no division, at any size.  The value
is exact, not just its class up to units.  3x3 is the floor because
elimination there would fill the entries that the expansion multiplies.
Bareiss elimination stays only as the tests' reference.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import sub

from ._kernels import accumulate
from .abelian import AbelianizationMap, LaurentPoly
from .errors import (
    InexactDivision,
    InputTooLarge,
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

    def reflect(self):
        return TorsionClass(self.poly.reflected())

    def is_centrally_symmetric(self):
        """Whether ``reflect() == self``, decided by lookups: the mirrored terms
        {M - e: c}, M the maximum exponents, equal the terms or their negatives."""
        terms = self.poly.terms
        top = tuple(map(max, zip(*terms)))
        mirrored = {tuple(map(sub, top, e)): c for e, c in terms.items()}
        return mirrored == terms or mirrored == {e: -c for e, c in terms.items()}

    def render(self, names):
        return self.poly.render(names)

    def __eq__(self, other):
        return isinstance(other, TorsionClass) and self.poly == other.poly

    def __hash__(self):
        return hash((self.poly.rank, frozenset(self.poly.terms.items())))

    def __repr__(self):
        return f"TorsionClass({self.poly!r})"


def _normalize(poly):
    """Shift to minimum exponent 0 and make the graded-lex smallest coefficient
    positive, in one pass.  Graded-lex order is translation invariant, so a
    decorated min finds that term before the shift."""
    if poly.is_zero:
        return poly
    low = poly.min_exponents()
    _, smallest = min([(sum(e), e) for e in poly.terms])
    sign = -1 if poly.terms[smallest] < 0 else 1
    terms = {tuple(map(sub, e, low)): sign * c for e, c in poly.terms.items()}
    return LaurentPoly._raw(poly.rank, terms)


def torsion_normal_form(poly):
    """Normal form of a Laurent polynomial under the +-(monomial) ambiguity."""
    return TorsionClass(poly)


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
    if pres.deficiency != len(torsion_input.inclusion_words):
        raise NotBalanced(
            f"deficiency {pres.deficiency} != {len(torsion_input.inclusion_words)} "
            "inclusion words"
        )
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


# det_cofactor keeps at most this many nonzero minors of one size, whatever the
# dimension; a dense n x n matrix keeps C(n, n/2).  On entries 2 + x^e in rank 2
# that took 0.9 s at 10x10 (252) and 3.3 s at 11x11 (462) on a 2-vCPU VM.
MAX_MINORS = 252


def det_cofactor(matrix):
    """Determinant by Laplace expansion along the columns, right to left: the
    nonzero minors of the columns passed, keyed by increasing row tuples, take
    each entry of the next column in a row they lack, signed by its position.
    On 3x3 these are the first-column expansion's products.  No division.
    Raises InputTooLarge beyond MAX_MINORS nonzero minors of one size."""
    rank = _square_rank(matrix)
    minors = {(i,): row[-1] for i, row in enumerate(matrix) if not row[-1].is_zero}
    for column in reversed(list(zip(*matrix))[:-1]):
        expanded = {}
        for rows, minor in minors.items():
            for i, entry in enumerate(column):
                if i not in rows and not entry.is_zero:
                    key = tuple(sorted(rows + (i,)))
                    term = -(entry * minor) if key.index(i) % 2 else entry * minor
                    expanded[key] = expanded[key] + term if key in expanded else term
        minors = {key: m for key, m in expanded.items() if not m.is_zero}
        if len(minors) > MAX_MINORS:
            raise InputTooLarge(f"more than {MAX_MINORS} nonzero minors of one size")
    return minors.get(tuple(range(len(matrix))), LaurentPoly.zero(rank))


def det_bareiss(matrix):
    """The tests' reference determinant, which no production path calls:
    fraction-free elimination with exact polynomial division.  Every division
    is by a previous pivot and is exact by the Sylvester identity; a remainder
    signals a defect in this code, reported as InternalInexactDivision.
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
    a known unit factor.  `det_cofactor` expands what is left, at any size.
    The 3x3 floor is a fill guard on the dimension alone: elimination
    lengthens the entries that the expansion multiplies, and made the Lyon
    family's 3x3 determinants about 4x slower.  `fox_determinant` shortens a
    Fox matrix's columns before it gets here, so those entries are short.
    """
    rank = _square_rank(matrix)
    factor = LaurentPoly.one(rank)
    while len(matrix) > UNIT_PIVOT_FLOOR and (pivot := _unit_pivot(matrix)):
        p, q = pivot
        u = matrix[p][q]
        factor = factor * (u if (p + q) % 2 == 0 else -u)
        matrix = _eliminate_unit(matrix, p, q)
    det = det_cofactor(matrix)
    return det if factor == LaurentPoly.one(rank) else factor * det


def _period_step(word, phi):
    """The exponent step U that at least half of ``word``'s letters take
    from the previous occurrence of their letter, or None.

    Clearing with x^U - 1 shortens a column only when more than half of its
    terms e have e + U among its terms too; along a block v^k such pairs
    come from consecutive occurrences of one letter, |v| letters apart.
    So the pairs of consecutive occurrences are first grouped by letter
    distance, with integers only: the most frequent distance must hold at
    least half as many pairs as the word has letters, else the word is
    never mapped by ``phi``.  The most frequent nonzero step of those pairs
    is U (x^0 - 1 = 0 clears nothing), and it too must be taken by at least
    half as many pairs as the word has letters.
    """
    letters = word.letters
    last = {}
    ends = defaultdict(list)  # letter distance -> the positions closing a pair
    for i, letter in enumerate(letters):
        ends[i - last.get(letter, i)].append(i)
        last[letter] = i
    ends.pop(0, None)  # first occurrences
    if not ends:
        return None
    d = max(ends, key=lambda d: len(ends[d]))
    if 2 * len(ends[d]) < len(letters):
        return None
    prefix = phi.prefix_exponents(word)
    steps = Counter(tuple(map(sub, prefix[i], prefix[i - d])) for i in ends[d])
    del steps[prefix[0]]
    step = max(steps, key=steps.get, default=None)
    return step if 2 * steps[step] >= len(letters) else None


def _clear_columns(matrix, words, phi):
    """Clear geometric-sum denominators from the columns of a Fox matrix M,
    in place, and return {column index: divisor} for the cleared columns.

    A word holding a power v^k has Fox derivatives that are multiples of the
    geometric sum (V^k - 1) / (V - 1), V the image of v (Fox's power rule),
    so multiplying its column by V - 1 collapses them.  For column j the
    step U is the `_period_step` of its word ``words[j]``; the column
    (x^U - 1) * column is formed and kept when it has fewer terms.  The
    result is C = M * diag(divisors), 1 for the columns left alone, so
    det M = det C / (product of the divisors), and each division is exact
    because the Laurent ring is a domain.  No power rule is needed for that:
    any nonzero U would do, and the step only has to make C small.
    """
    divisors = {}
    for j, word in enumerate(words):
        column = [row[j].terms for row in matrix if row[j].terms]
        size = sum(map(len, column))
        # a nonzero multiple of x^U - 1 has at least two terms
        if size <= 2 * len(column):
            continue
        step = _period_step(word, phi)
        if step is None:
            continue
        divisor = LaurentPoly._raw(phi.rank, {step: 1, (0,) * phi.rank: -1})
        cleared = [row[j] * divisor for row in matrix]
        if sum(len(e.terms) for e in cleared) < size:
            for row, entry in zip(matrix, cleared):
                row[j] = entry
            divisors[j] = divisor
    return divisors


def fox_determinant(torsion_input):
    """Exact determinant of ``fox_matrix(torsion_input)``.

    The determinant is taken of the matrix with its columns cleared
    (`_clear_columns`) and then divided by each column's divisor, one
    binomial at a time.  A division that leaves a remainder is a defect of
    this code, reported as InternalInexactDivision.
    """
    matrix = fox_matrix(torsion_input)
    words = torsion_input.inclusion_words + torsion_input.presentation.relators
    divisors = _clear_columns(matrix, words, torsion_input.abelianization)
    det = determinant(matrix)
    for divisor in divisors.values():
        try:
            det = det.exact_div(divisor)
        except InexactDivision as exc:
            raise InternalInexactDivision(
                f"the determinant is not a multiple of the column divisor {divisor!r}"
            ) from exc
    return det


def sutured_torsion(torsion_input):
    """Torsion class of a balanced input: the normal form of its Fox
    matrix's determinant (`fox_determinant`)."""
    return torsion_normal_form(fox_determinant(torsion_input))
