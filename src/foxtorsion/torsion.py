"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.

`sutured_torsion` first rewrites the words by relator deletion and Tietze
moves (`words.reduce_words`), which keep the class.

Each word is differentiated in blocks of at most FOX_BLOCK letters by Fox's
product rule d(uv) = du + u dv, so a column costs time linear in its word's
length and memory bounded by the block size; each entry sums the blocks'
terms in one inline dict loop, with no generator or kernel call per entry.

The exact determinant is one stage on packed exponent keys
(`det_cofactor`), each exponent vector one int, so that adding keys adds
vectors.  It packs each column as a Laplace expansion along the columns
reaches it, and clears it first: a column whose word is mostly a power v^k,
whose Fox derivatives are geometric sums in the image U of v, is multiplied
by the binomial x^U - 1, by shifting and merging its keys.  The column alone
decides U: at least half of the sorted terms of its largest entry must take
step U from their predecessor; the product is kept when it has fewer terms
than the column.  The expansion over memoized minors then takes the cleared
column, with no division, at any size.  At the end the determinant is
divided by each kept binomial in one pass along lines of packed keys
(`_kernels.div_binomial`), and unpacked once.  The value is exact, not just
its class up to units.  Bareiss elimination stays only as the tests'
reference.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, sub

from ._kernels import div_binomial, iadd_product, pack, unpack
from .abelian import AbelianizationMap, LaurentPoly, graded_lex_least
from .errors import (
    InexactDivision,
    InputTooLarge,
    InternalInexactDivision,
    NotBalanced,
    UnknownGenerator,
)
from .groupring import fox_derivative
from .words import Presentation, Word, reduce_words, render_word


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

    def is_centrally_symmetric(self):
        """Whether the class equals its reflection (every exponent negated),
        decided by lookups: the mirrored terms {M - e: c}, M the maximum
        exponents, equal the terms or their negatives.  The mirror is taken
        one coordinate column at a time and zipped back into tuples."""
        terms = self.representative.terms
        columns = list(zip(*terms))
        if not columns:  # the zero class, or a constant in rank 0
            return True
        flipped = [[m - x for x in column] for column, m in zip(columns, map(max, columns))]
        mirrored = dict(zip(zip(*flipped), terms.values()))
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
    positive.  Graded-lex order is translation invariant, so
    `graded_lex_least` finds that term before the shift.  The shift is taken
    one coordinate column at a time, each column less its minimum, zipped
    back into tuples."""
    terms = poly.terms
    if not terms:
        return poly
    smallest = graded_lex_least(terms)
    values = terms.values() if terms[smallest] > 0 else [-c for c in terms.values()]
    columns = list(zip(*terms))
    low = list(map(min, columns))
    if any(low):
        shifted = [[x - m for x in column] for column, m in zip(columns, low)]
        return LaurentPoly._raw(poly.rank, dict(zip(zip(*shifted), values)))
    # already at minimum 0, as every rank-0 constant is
    return LaurentPoly._raw(poly.rank, dict(zip(terms, values)))


def torsion_normal_form(poly):
    """Normal form of a Laurent polynomial under the +-(monomial) ambiguity."""
    return TorsionClass(poly)


# fox_matrix differentiates each word in consecutive blocks of at most this
# many letters.  A block's derivative holds one prefix tuple per occurrence,
# so time is O(L * FOX_BLOCK) and memory O(FOX_BLOCK^2) per word of L letters,
# where the whole word would cost O(L^2) in both.  Sizes from 16 to 48 time
# alike on the benchmark's designs; 32 makes half the calls of 16, and keeps
# every Lyon word at n = 1 (at most 7 letters) one block.
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


# det_cofactor multiplies at most this many pairs of terms in all, so its
# time is bounded by counted work.  The budget lies between the counts of
# tests/inputs/random-words-2000.tor (2,557,539 pairs, accepted) and
# tests/inputs/rank11-commutators.tor (2,572,418, refused before the column
# that would pass it).
MAX_TERM_PRODUCTS = 2_560_000


def _pack_column(column, shifts):
    """The entries of a column as term dicts keyed by packed ints (`pack`)."""
    return [pack(e.terms, shifts) for e in column]


def _period_step(column):
    """The packed step that at least half of the terms of the column's
    largest entry take from their predecessor in key order, or None.

    Packed keys sort in the lexicographic order of their exponents, a group
    order, so the sorted terms of a geometric sum c * x^(a + iU), which lie
    on one line, all differ from their neighbours by the one of +-U that
    packs above 0.  Sorting makes the choice independent of dict order.
    """
    terms = sorted(max(column, key=len))
    steps = Counter(map(sub, terms[1:], terms))
    step, count = max(steps.items(), key=itemgetter(1), default=(None, 0))
    return step if 2 * count >= len(terms) else None


def _cleared(column):
    """A packed column multiplied by x^U - 1, and U packed, or the column
    and None when it is left alone.

    A word holding a power v^k has Fox derivatives that are multiples of the
    geometric sum (V^k - 1) / (V - 1), V the image of v (Fox's power rule),
    so multiplying its column by V - 1 collapses them.  U is the
    `_period_step` of the column's nonzero entries; each entry times
    x^U - 1 is its keys shifted by U merged with its negation, and the
    product is kept when the column then has fewer terms.  No power rule is
    needed for exactness: any nonzero U would do, and the step only has to
    make the column small.
    """
    nonzero = [e for e in column if e]
    size = sum(map(len, nonzero))
    # a nonzero multiple of x^U - 1 has at least two terms
    if size <= 2 * len(nonzero):
        return column, None
    step = _period_step(nonzero)
    if step is None:
        return column, None
    cleared = []
    for entry in column:
        product = {k + step: v for k, v in entry.items()}
        for k, v in entry.items():
            v = product.get(k, 0) - v
            if v:
                product[k] = v
            else:
                del product[k]
        cleared.append(product)
    if sum(map(len, cleared)) < size:
        return cleared, step
    return column, None


def det_cofactor(matrix):
    """Exact determinant: a Laplace expansion along the columns on packed
    exponent keys, with the columns cleared on the way and the determinant
    divided exactly by their binomials at the end.

    The expansion runs right to left: the nonzero minors of the columns
    passed, keyed by increasing row tuples, take each entry of the next
    column in a row they lack, signed by its position.  A minor lacking a
    row that is zero left of its columns is dropped, as no column can add
    that row later.  Raises InputTooLarge before the products of a column
    whose term pairs, len(entry) * len(minor) summed over the cleared
    entries, take the count since the first column past MAX_TERM_PRODUCTS.
    A minor's pairs are len(minor) times the column's terms less those of
    its own rows, so counting costs O(|rows|) a minor, and the count stops
    at the first minor that passes the budget.

    Each exponent vector e becomes the int sum of e_i << (w * (rank - 1 - i)),
    so adding keys adds vectors and keys sort as their vectors do
    lexicographically.  A column is packed (`_pack_column`) and `_cleared`
    when the expansion reaches it, before its pairs are counted, so a
    refused matrix packs no column past the one refused.  The cleared
    matrix is C = M * diag(x^U - 1 for the cleared columns), so det M is det
    C divided by each binomial, which `div_binomial` does in one pass each,
    exactly because the Laurent ring is a domain; a remainder is a defect of
    this code, reported as InternalInexactDivision.  `iadd_product` sums
    each signed product straight into its minor, and zero sums are dropped
    once per size, before the terms are counted, so the kept minors and the
    budget are those of the tuple-keyed expansion.  Only the quotient is
    unpacked, one coordinate column at a time.  Products outside this stage
    stay on tuples: packing inside one product (`mul_terms`) would unpack
    every term it returns, which made the products slower, not faster.

    With M the largest |exponent| of any entry, a clearing step, the
    difference of two exponents of one entry, lies within 2M, so the width
    is fixed before any column is packed: a cleared entry lies within 3M,
    and the cleared determinant, a sum of n-fold products, within E = 3nM,
    as does each quotient, whose terms lie between its dividend's.  So for
    w = E.bit_length() + 1 every coordinate lies below 2^(w - 1), no field
    carries, and the exact divisions need no more (see `div_binomial`).
    """
    rank = _square_rank(matrix)
    n = len(matrix)
    first = [next((j for j, e in enumerate(row) if not e.is_zero), n) for row in matrix]
    exponents = chain.from_iterable(k for row in matrix for e in row for k in e.terms)
    bound = max(map(abs, exponents), default=0)
    width = (3 * n * bound).bit_length() + 1
    shifts = [width * (rank - 1 - i) for i in range(rank)]
    columns = list(zip(*matrix))
    divisors = []  # the packed U of each column replaced by its product with x^U - 1

    def packed(j):
        column, step = _cleared(_pack_column(columns[j], shifts))
        if step is not None:
            divisors.append(step)
        return column

    def kept(minors, j):
        due = {i for i, f in enumerate(first) if f >= j}
        minors = {rows: {k: v for k, v in m.items() if v} for rows, m in minors.items()}
        return {rows: m for rows, m in minors.items() if m and due <= set(rows)}

    minors = kept({(i,): e for i, e in enumerate(packed(n - 1))}, n - 1)
    products = 0
    for j in range(n - 2, -1, -1):
        column = packed(j)
        sizes = list(map(len, column))
        total = sum(sizes)
        for rows, minor in minors.items():
            # the minor takes the entries of the rows it lacks
            products += len(minor) * (total - sum(map(sizes.__getitem__, rows)))
            if products > MAX_TERM_PRODUCTS:
                raise InputTooLarge(
                    f"the determinant needs more than {MAX_TERM_PRODUCTS} term products"
                )
        expanded = {}
        for rows, minor in minors.items():
            for i, entry in enumerate(column):
                if i not in rows and entry:
                    key = tuple(sorted(rows + (i,)))
                    sign = -1 if key.index(i) % 2 else 1
                    iadd_product(expanded.setdefault(key, {}), entry, minor, sign)
        minors = kept(expanded, j)
    det = minors.get(tuple(range(n)), {})
    for step in divisors:
        try:
            det = div_binomial(det, step, 1, width)
        except InexactDivision as exc:
            (u,) = unpack({step: 1}, shifts, width)
            raise InternalInexactDivision(
                f"the determinant is not a multiple of the column binomial x^{u} - 1"
            ) from exc
    return LaurentPoly._raw(rank, unpack(det, shifts, width))


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


def fox_determinant(torsion_input):
    """Exact determinant of ``fox_matrix(torsion_input)`` (`det_cofactor`)."""
    return det_cofactor(fox_matrix(torsion_input))


def _tietze_reduce(torsion_input):
    """The input with its words rewritten by `reduce_words`, or the input
    itself when nothing is deleted and no move is taken.

    The kill test is taken once per relator, and only the relators that the
    abelianization kills are used.  The abelianization stays the input's.
    By the chain rule each reduced Fox column is the input's plus a multiple
    of a killed relator r's, without the row of an eliminated g, where r's
    column holds the unit u dg^e/dg: the determinant changes by a unit, and
    the class not at all.  A map built by `abelianize_presentation` kills
    every relator; a library caller's map need not.
    """
    pres = torsion_input.presentation
    phi = torsion_input.abelianization
    inclusion = [w.letters for w in torsion_input.inclusion_words]
    kills = [not any(phi.prefix_exponents(r)[-1]) for r in pres.relators]
    relators = [r.letters for r in pres.relators]
    generators, words, relators = reduce_words(pres.generators, inclusion, relators, kills)
    if len(generators) < len(pres.generators):
        pres = Presentation(generators, [Word._from_reduced(r) for r in relators])
    if pres is not torsion_input.presentation or words != inclusion:
        torsion_input = TorsionInput(pres, [Word._from_reduced(w) for w in words], phi)
    return torsion_input


def sutured_torsion(torsion_input):
    """Torsion class of a balanced input: the normal form of the Fox
    matrix's determinant (`fox_determinant`) after `_tietze_reduce`."""
    return torsion_normal_form(fox_determinant(_tietze_reduce(torsion_input)))
