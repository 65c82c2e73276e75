"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.

`sutured_torsion` first eliminates generators by Tietze moves on the words
(`_tietze_reduce`), each of which removes a row and a column of the Fox
matrix that cross at a unit, so the matrix shrinks and the class stays.

Each word is differentiated in blocks of at most FOX_BLOCK letters by Fox's
product rule d(uv) = du + u dv, so a column costs time linear in its word's
length and memory bounded by the block size; each entry sums the blocks'
terms in one inline dict loop, with no generator or kernel call per entry.

Before the determinant, each column whose word is mostly a power v^k, whose
Fox derivatives are geometric sums in the image U of v, is multiplied by the
binomial x^U - 1.  The column alone decides U: at least half of the sorted
terms of its largest entry must take step U from their predecessor; the
product is kept when it has fewer terms than the column.  The determinant of
the cleared matrix is then divided by those binomials, which
`LaurentPoly.exact_div` does in one pass.  The determinant itself is a
Laplace expansion along the columns over memoized minors (`det_cofactor`),
on packed exponent keys, with no division, at any size; the value is exact,
not just its class up to units.  Bareiss elimination stays only as the
tests' reference.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, lshift, sub

from ._kernels import iadd_product
from .abelian import AbelianizationMap, LaurentPoly
from .errors import (
    InexactDivision,
    InputTooLarge,
    InternalInexactDivision,
    NotBalanced,
    UnknownGenerator,
)
from .groupring import fox_derivative
from .words import Presentation, Word, _push_reduced, render_word


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
        exponents, equal the terms or their negatives."""
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


# det_cofactor multiplies at most this many pairs of terms in all.  On a
# 2-vCPU VM tests/inputs/random-words-2000.tor needs 2,557,561 (0.7 s), while
# tests/inputs/rank11-commutators.tor reaches 2,572,418 with a fifth column
# that alone takes 1.1 s, and is refused before it.
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
    det = det_cofactor(matrix)
    for divisor in divisors.values():
        try:
            det = det.exact_div(divisor)
        except InexactDivision as exc:
            raise InternalInexactDivision(
                f"the determinant is not a multiple of the column divisor {divisor!r}"
            ) from exc
    return det


def _eliminate(words, j, i, bound):
    """The words after the Tietze move on the relator r = words[j] = u g^e v,
    g = r[i] occurring once in r: every other word, in order, with g replaced
    by (v u)^-e and freely reduced, and r dropped.  None as soon as the
    letters written, counted word by word, pass ``bound``."""
    r = words[j]
    g, e = r[i]
    vu = list(r[i + 1 :])
    _push_reduced(vu, r[:i])
    # g^-e -> v u and g^e -> (v u)^-1
    images = {(g, -e): vu, (g, e): [(h, -sign) for h, sign in reversed(vu)]}
    written = 0
    reduced = []
    for w in words[:j] + words[j + 1 :]:
        if (g, 1) in w or (g, -1) in w:
            stack = []
            start = 0
            for p, letter in enumerate(w):
                if letter[0] == g:
                    _push_reduced(stack, w[start:p])
                    _push_reduced(stack, images[letter])
                    start = p + 1
                    if written + len(stack) > bound:
                        return None
            _push_reduced(stack, w[start:])
            w = tuple(stack)
        written += len(w)
        reduced.append(w)
    return reduced if written <= bound else None


def _tietze_reduce(torsion_input):
    """The input with generators eliminated by Tietze moves on its words, or
    the input itself when no move is taken.

    A move on a relator r = u g^e v in which g occurs once replaces g by
    (v u)^-e in the other words (`_eliminate`) and drops g and r.  Moves are
    tried cheapest first, by (|r| - 1) times the occurrences of g elsewhere,
    and taken only when the words then hold no more letters than the
    input's.  A refused move is not tried again while its relator's text
    is unchanged.  One generator is always kept, so the matrix is never 0x0.

    The abelianization stays the input's.  A move uses only a relator r
    that it kills, so by the chain rule each reduced Fox column is the
    input's plus a multiple of r's, without the row of g, where r's column
    holds the unit u dg^e/dg: the determinant changes by a unit, and the
    class not at all.  A map built by `abelianize_presentation` kills every
    relator; a library caller's map need not.
    """
    pres = torsion_input.presentation
    phi = torsion_input.abelianization
    first = len(torsion_input.inclusion_words)
    words = [w.letters for w in torsion_input.inclusion_words + pres.relators]
    bound = sum(map(len, words))
    generators = list(pres.generators)
    # relator -> {(i, g)}: its moves not refused yet, g = r[i] occurring once in r
    singles = {}
    while len(generators) > 1:
        occurrences = Counter(map(itemgetter(0), chain.from_iterable(words)))
        moves = []
        for j in range(first, len(words)):
            r = words[j]
            if r not in singles:
                once = Counter(map(itemgetter(0), r))
                kills = not any(phi.prefix_exponents(Word._from_reduced(r))[-1])
                singles[r] = {(i, g) for i, (g, _) in enumerate(r) if kills and once[g] == 1}
            weight = len(r) - 1
            moves += [(weight * (occurrences[g] - 1), j, i, g) for i, g in singles[r]]
        for _, j, i, g in sorted(moves):
            reduced = _eliminate(words, j, i, bound)
            if reduced is not None:
                break
            singles[words[j]].discard((i, g))
        else:
            break
        generators.remove(g)
        words = reduced
    if len(generators) == len(pres.generators):
        return torsion_input
    words = [Word._from_reduced(w) for w in words]
    return TorsionInput(
        Presentation(generators, words[first:]), words[:first], phi
    )


def sutured_torsion(torsion_input):
    """Torsion class of a balanced input: the normal form of the Fox
    matrix's determinant (`fox_determinant`) after `_tietze_reduce`."""
    return torsion_normal_form(fox_determinant(_tietze_reduce(torsion_input)))
