"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.  Each word is
differentiated in blocks of at most FOX_BLOCK letters by Fox's product rule
d(uv) = du + u dv, so a column costs time linear in its word's length and
memory bounded by the block size; each entry sums the blocks' terms in one
inline dict loop, with no generator or kernel call per entry.

Before the determinant, each column whose word is mostly a power v^k, whose
Fox derivatives are geometric sums in the image U of v, is multiplied by the
binomial x^U - 1.  The column alone decides U: at least half of the sorted
terms of its largest entry must take step U from their predecessor; the
product is kept when it has fewer terms than the column.  The determinant of
the cleared matrix is then divided by those binomials, which
`LaurentPoly.exact_div` does in one pass.  The determinant itself first
eliminates unit pivots (+-monomial entries, which every Tietze relator
y w^-1 contributes) on sparse rows of term dicts, lowest Markowitz cost
first, while more than 3 rows are left; each step touches only the rows that
meet the pivot's column, updates each of their entries in place on a copy
through `iadd_scaled`, and keeps the product of the pivots as a sign and an
exponent tuple.  It then densifies the rest once and expands it along the
columns over memoized minors, with no division, at any size.  The expansion
packs each exponent vector into one integer, in fields wide enough that a
sum of n exponents never carries, and sums each signed product into its
minor in place; the term dicts stay sparse, so the cost follows the term
pairs, not the exponent box.  The value is exact, not just its class up to
units.  3x3 is the floor because elimination there would fill the entries
that the expansion multiplies.
Bareiss elimination stays only as the tests' reference.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import add, itemgetter, lshift, sub

from ._kernels import iadd_product, iadd_scaled
from .abelian import AbelianizationMap, LaurentPoly
from .errors import (
    InexactDivision,
    InputTooLarge,
    InternalInexactDivision,
    NotBalanced,
    UnknownGenerator,
)
from .groupring import fox_derivative
from .words import Presentation, Word, render_word


@dataclass(frozen=True)
class TorsionInput:
    """A geometrically balanced presentation with inclusion words and a basis."""

    presentation: Presentation
    inclusion_words: tuple
    abelianization: AbelianizationMap

    def __post_init__(self):
        object.__setattr__(self, "inclusion_words", tuple(self.inclusion_words))
        known = set(self.presentation.generators)
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

    __slots__ = ("representative",)

    def __init__(self, poly):
        self.representative = _normalize(poly)

    @property
    def rank(self):
        return self.representative.rank

    @property
    def is_zero(self):
        return self.representative.is_zero

    def coefficient_sum(self):
        return self.representative.coefficient_sum()

    def reflect(self):
        return TorsionClass(self.representative.reflected())

    def is_centrally_symmetric(self):
        """Whether ``reflect() == self``, decided by lookups: the mirrored terms
        {M - e: c}, M the maximum exponents, equal the terms or their negatives."""
        terms = self.representative.terms
        top = tuple(map(max, zip(*terms)))
        mirrored = {tuple(map(sub, top, e)): c for e, c in terms.items()}
        return mirrored == terms or mirrored == {e: -c for e, c in terms.items()}

    def render(self, names):
        return self.representative.render(names)

    def __eq__(self, other):
        return isinstance(other, TorsionClass) and self.representative == other.representative

    def __hash__(self):
        return hash((self.representative.rank, frozenset(self.representative.terms.items())))

    def __repr__(self):
        return f"TorsionClass({self.representative!r})"


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


# fox_matrix differentiates each word in consecutive blocks of at most this
# many letters.  A block's derivative holds one prefix tuple per occurrence,
# so time is O(L * FOX_BLOCK) and memory O(FOX_BLOCK^2) per word of L letters,
# where the whole word would cost O(L^2) in both.  On the `long-words` design
# (seed 7, 250 to 1,000 letters per word, a 2-vCPU VM) the Fox matrices took
# 3.2-3.5 ms per operation with blocks of 16 to 48 letters, 3.9 ms at 8, 3.8 ms
# at 64, 4.9 ms at 128 and 13.7 ms for whole words.  Once the entries were
# summed inline, 16, 24, 32 and 48 were timed again in process, in two runs of
# 10 interleaved rounds on the seed-7 `long-words` and `tietze` designs: on
# `long-words` 16 and 24 ran 2-8 % under 32 (1.3-2.4 ms per operation) and
# beat it in 7 to 9 of 10 rounds, on `tietze` 32 beat each of them in 5 to 9
# of 10, and 48 lost on `long-words`.  No size won 9 of 10 rounds in both
# runs and on both designs, so 32 stays: the flat part with half the calls
# of 16, and every Lyon word at n = 1 (at most 7 letters) stays one block.
FOX_BLOCK = 32


def _fox_blocks(word):
    """(start, block) pairs cutting a reduced word into consecutive subwords of
    at most FOX_BLOCK letters.  Subwords of a reduced word are reduced."""
    letters = word.letters
    return tuple(
        (s, Word._from_reduced(letters[s : s + FOX_BLOCK]))
        for s in range(0, len(letters), FOX_BLOCK)
    )


def fox_matrix(torsion_input):
    """The square matrix of abelianized Fox derivatives.

    Column j < l holds the derivatives of the j-th inclusion word, the
    remaining columns those of the relators; row i differentiates with respect
    to generator i.  Raises NotBalanced when the deficiency does not equal the
    number of inclusion words.

    Each word is abelianized once, prefix by prefix, and differentiated block
    by block.  By the product rule d(uv) = du + u dv, the derivative of a word
    w = b_1 ... b_k is the sum over its blocks of (b_1 ... b_{m-1}) db_m, and
    every term of a left-to-right Fox derivative is a prefix (Fox's prefix
    rule).  So a term u of the block starting at letter s is the prefix of w
    with s + len(u) letters, whose exponent vector the word's
    ``prefix_exponents`` already holds.  The terms come in the order of
    ``fox_derivative(w_j, g_i)``, so entry (i, j) equals
    ``phi(fox_derivative(w_j, g_i))`` term for term, without mapping any
    prefix again.  Each entry sums its terms in one inline dict loop, the
    idiom of `mul_terms`, since feeding a generator to a summing kernel is
    slower.
    """
    pres = torsion_input.presentation
    phi = torsion_input.abelianization
    if pres.deficiency != len(torsion_input.inclusion_words):
        raise NotBalanced(
            f"deficiency {pres.deficiency} != {len(torsion_input.inclusion_words)} "
            "inclusion words"
        )
    rank = phi.rank
    words = torsion_input.inclusion_words + pres.relators
    columns = [(_fox_blocks(w), phi.prefix_exponents(w)) for w in words]
    matrix = []
    for g in pres.generators:
        row = []
        for blocks, prefix in columns:
            terms = {}
            for s, block in blocks:
                for u, c in fox_derivative(block, g).terms.items():
                    k = prefix[s + len(u.letters)]
                    cur = terms.get(k, 0) + c
                    if cur:
                        terms[k] = cur
                    else:
                        del terms[k]
            row.append(LaurentPoly._raw(rank, terms))
        matrix.append(row)
    return matrix


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


# det_cofactor multiplies at most this many pairs of terms in all, and so does
# determinant's unit elimination before it.  On a 2-vCPU VM
# tests/inputs/random-words-2000.tor needs 2,557,561 (0.7 s), while
# tests/inputs/rank11-commutators.tor reaches 2,572,418 with a fifth column
# that alone takes 1.1 s, and is refused before it.  No recorded input's
# elimination needs more than a few hundred.
MAX_TERM_PRODUCTS = 2_560_000


def det_cofactor(matrix):
    """Determinant by Laplace expansion along the columns, right to left: the
    nonzero minors of the columns passed, keyed by increasing row tuples, take
    each entry of the next column in a row they lack, signed by its position.
    A minor lacking a row that is zero left of its columns is dropped, as no
    column can add that row later.  No division.  Raises InputTooLarge before
    the products of a column whose term pairs, len(entry) * len(minor) summed,
    take the count since the first column past MAX_TERM_PRODUCTS.

    The expansion runs on packed keys: each exponent vector e becomes the int
    sum of e_i << (w * (rank - 1 - i)), so adding keys adds vectors, and
    `iadd_product` sums each signed product straight into its minor.  Every
    term of a k x k minor is a sum of k entry exponents, so with M the largest
    |exponent| of any entry its coordinates lie within +-n*M, below 2^(w-1)
    for w = (n*M).bit_length() + 1, and no digit carries into its neighbour.
    Zero sums are dropped once per size, before the terms are counted, so
    the kept minors and the budget are those of the tuple-keyed expansion,
    and only the determinant's keys are unpacked.  Only this core is packed:
    each entry is packed once and multiplied into many minors, while packing
    inside one product (`mul_terms`) would unpack every term it returns,
    which made the products slower, not faster.
    """
    rank = _square_rank(matrix)
    n = len(matrix)
    first = [next((j for j, e in enumerate(row) if not e.is_zero), n) for row in matrix]
    exponents = chain.from_iterable(k for row in matrix for e in row for k in e.terms)
    bound = max(map(abs, exponents), default=0)
    width = (n * bound).bit_length() + 1
    shifts = [width * (rank - 1 - i) for i in range(rank)]

    def pack(terms):
        return {sum(map(lshift, k, shifts)): v for k, v in terms.items()}

    def kept(minors, j):
        due = {i for i, f in enumerate(first) if f >= j}
        minors = {rows: {k: v for k, v in m.items() if v} for rows, m in minors.items()}
        return {rows: m for rows, m in minors.items() if m and due <= set(rows)}

    columns = [[pack(e.terms) for e in column] for column in zip(*matrix)]
    minors = kept({(i,): e for i, e in enumerate(columns[-1])}, n - 1)
    products = 0
    for j in range(n - 2, -1, -1):
        sizes = [len(entry) for entry in columns[j]]
        for rows, minor in minors.items():
            products += len(minor) * sum(s for i, s in enumerate(sizes) if i not in rows)
        if products > MAX_TERM_PRODUCTS:
            raise InputTooLarge(f"the determinant needs more than {MAX_TERM_PRODUCTS} term products")
        expanded = {}
        for rows, minor in minors.items():
            for i, entry in enumerate(columns[j]):
                if i not in rows and entry:
                    key = tuple(sorted(rows + (i,)))
                    sign = -1 if key.index(i) % 2 else 1
                    iadd_product(expanded.setdefault(key, {}), entry, minor, sign)
        minors = kept(expanded, j)
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = sum(half << s for s in shifts)
    det = minors.get(tuple(range(n)), {})
    return LaurentPoly._raw(
        rank,
        {tuple(((k + offset) >> s & mask) - half for s in shifts): v for k, v in det.items()},
    )


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


def _is_unit(terms):
    """Whether a term dict is +-(monomial), a unit of the Laurent ring."""
    return len(terms) == 1 and abs(next(iter(terms.values()))) == 1


def determinant(matrix):
    """Exact determinant of a square Laurent matrix.

    While more than UNIT_PIVOT_FLOOR rows are left, the unit entry u = A[p][q]
    of lowest Markowitz cost (r - 1)(c - 1), ties to the first in row-major
    order, is eliminated: rows are dicts {column: term dict} and columns
    sets of rows, so r and c are their sizes.  Only the rows meeting column q
    change, by row_i -= A[i][q] * u^-1 * row_p, with no division: each
    entry is copied once and takes one `iadd_scaled` call per term of
    A[i][q], so no polynomial is made for a product, its negation or their
    sum.  The determinant gains the factor +-u, signed by the parity of p's
    and q's positions among the rows and columns left; the product of those
    factors is kept as a sign and an exponent tuple.  Before a step updates
    its rows, its term pairs, len(A[i][q]) times the terms of the pivot row
    summed over those rows, are added to a running count, and InputTooLarge
    is raised once the count passes MAX_TERM_PRODUCTS.  `det_cofactor`
    expands the rest, on a count of its own.  The floor guards against fill:
    on the cleared 3x3 matrices of the family's benchmark grid (n in
    [-1, 150], both surfaces), elimination to floors 0-2 took 3.0 ms against
    2.4 ms at 3, and S' at n = 1000 and 3000 took 1.5x as long (2-vCPU VM).
    """
    rank = _square_rank(matrix)
    rows = {i: {} for i in range(len(matrix))}
    cols = {j: set() for j in range(len(matrix))}
    units = set()

    def put(i, j, terms):
        if terms:
            rows[i][j] = terms
            cols[j].add(i)
        else:
            rows[i].pop(j, None)
            cols[j].discard(i)
        (units.add if _is_unit(terms) else units.discard)((i, j))

    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if entry.terms:
                put(i, j, entry.terms)
    sign = 1
    shift = (0,) * rank
    products = 0
    while len(rows) > UNIT_PIVOT_FLOOR and units:
        _, p, q = min(((len(rows[i]) - 1) * (len(cols[j]) - 1), i, j) for i, j in units)
        position = sum(i < p for i in rows) + sum(j < q for j in cols)
        pivot = rows.pop(p)
        ((exps, coeff),) = pivot.pop(q).items()
        products += sum(map(len, pivot.values())) * sum(len(rows[i][q]) for i in cols[q] if i != p)
        if products > MAX_TERM_PRODUCTS:
            raise InputTooLarge(f"the determinant needs more than {MAX_TERM_PRODUCTS} term products")
        sign *= -coeff if position % 2 else coeff
        shift = tuple(map(add, shift, exps))
        for j in pivot:
            cols[j].discard(p)
            units.discard((p, j))
        for i in cols.pop(q):
            units.discard((i, q))
            if i != p:
                row = rows[i]
                # -A[i][q] * u^-1, term by term: u^-1 = coeff * x^-exps, as coeff is +-1
                m = [(tuple(map(sub, k, exps)), -coeff * c) for k, c in row.pop(q).items()]
                for j, e in pivot.items():
                    entry = dict(row.get(j, ()))
                    for k, c in m:
                        iadd_scaled(entry, e, k, c)
                    put(i, j, entry)
    zero = LaurentPoly.zero(rank)
    det = det_cofactor([
        [LaurentPoly._raw(rank, row[j]) if j in row else zero for j in cols]
        for row in rows.values()
    ])
    return det if sign == 1 and not any(shift) else det.shifted(shift) * sign


def _period_step(column):
    """The exponent step that at least half of the terms of the column's
    largest entry take from their lexicographic predecessor, or None.

    A geometric sum of c * x^(a + iU) lies on one line, and lexicographic
    order is a group order, so its sorted neighbours all differ by the same
    one of +-U.  Sorting makes the choice independent of dict order.
    """
    terms = sorted(max(column, key=len))
    steps = Counter(tuple(map(sub, b, a)) for a, b in zip(terms, terms[1:]))
    step, count = max(steps.items(), key=itemgetter(1), default=(None, 0))
    return step if 2 * count >= len(terms) else None


def _clear_columns(matrix):
    """Clear geometric-sum denominators from the columns of a Fox matrix M,
    in place, and return {column index: divisor} for the cleared columns.

    A word holding a power v^k has Fox derivatives that are multiples of the
    geometric sum (V^k - 1) / (V - 1), V the image of v (Fox's power rule),
    so multiplying its column by V - 1 collapses them.  For column j the
    step U is the `_period_step` of its terms; the column (x^U - 1) * column
    is formed and kept when it has fewer terms.  The result is
    C = M * diag(divisors), 1 for the columns left alone, so
    det M = det C / (product of the divisors), and each division is exact
    because the Laurent ring is a domain.  No power rule is needed for that:
    any nonzero U would do, and the step only has to make C small.
    """
    divisors = {}
    for j in range(len(matrix)):
        column = [row[j].terms for row in matrix if row[j].terms]
        size = sum(map(len, column))
        # a nonzero multiple of x^U - 1 has at least two terms
        if size <= 2 * len(column):
            continue
        step = _period_step(column)
        if step is None:
            continue
        divisor = LaurentPoly._raw(len(step), {step: 1, (0,) * len(step): -1})
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
    divisors = _clear_columns(matrix)
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
