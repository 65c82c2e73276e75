"""Fox matrices, exact polynomial determinants, and torsion normal forms.

The torsion of a balanced input is the determinant of the square matrix whose
columns are the abelianized Fox derivatives of the inclusion words followed by
those of the relators, one row per generator.  The result is only meaningful
up to a sign and a monomial factor, which the normal form strips.

`sutured_torsion` first reduces the words (`_tietze_reduce`).  It deletes
from the inclusion words every cyclic permutation of the cyclic core of a
relator that the abelianization kills, or of its inverse
(`_delete_relators`): the cores and their inverses form one list, and a
word is scanned for the cores with a half in its text.  The scan jumps
between the places where one alternation of the halves finds one, looks up
only the windows within a core length of them among the rotations' hashes,
keeps the word left as one stack of its letters, and lets the letters after
a deletion cancel the top of that stack one at a time.  A deletion
subtracts a monomial multiple of the relator's column from the word's and
leaves the determinant exactly as it was.  Then it eliminates generators
by Tietze moves on the words, each of which removes a row and a column of
the Fox matrix that cross at a unit, so the matrix shrinks and the class
stays.

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

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, sub

from ._kernels import div_binomial, iadd_product, pack, unpack
from .abelian import AbelianizationMap, LaurentPoly
from .errors import (
    InexactDivision,
    InputTooLarge,
    InternalInexactDivision,
    NotBalanced,
    UnknownGenerator,
)
from .groupring import fox_derivative
from .words import Presentation, Word, _conjugator_length, _push_reduced, render_word


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
    positive.  Graded-lex order is translation invariant, so a decorated min
    finds that term before the shift.  The shift is taken one coordinate
    column at a time, each column less its minimum, zipped back into
    tuples."""
    terms = poly.terms
    if not terms:
        return poly
    _, smallest = min(zip(map(sum, terms), terms))
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


def _delete_relators(words, relators, weights):
    """The words, each with every subword that is a cyclic permutation of a
    relator's cyclic core, or of its inverse, deleted, and freely reduced; a
    word that loses nothing is returned as given.

    ``weights`` maps each letter of the generators, of either sign, to an
    int.  Each letter is written as one character, ``inverse`` maps each
    character to its inverse's, and each word is scanned as its text, which
    is mapped back to letters once, only when it lost some.  Each core and
    each inverse is one entry of a list of cores, and each entry's two
    halves are indexed by its position there.  Each rotation of a core
    c = p q, |p| = ceil(|c| / 2), holds p or q whole (a one-letter core is
    its own only half), so a word is scanned (`_delete_rotations`) only for
    the cores with a half in its text, which ``str.__contains__`` finds in
    C: a word that holds none, such as every family word, costs one string
    join.  A core's rotations are hashed when a word first needs them, each
    from the one before by the rolling hash's step, to the values the scan's
    window formula gives.  A window matches only a rotation in the tables,
    which holds a half of its core, so the scans search one alternation of
    the halves of the cores the words hold for where a rotation can end.
    It is compiled once a call, and again only when a deletion joins the
    halves of a core that no word held, so it grows with the cores the
    words need, not with all of them.  A deletion can expose a rotation of
    a core the scan was not run for, so while the text left holds a half of
    such a core, the word is scanned again with that core too.  The words
    returned hold no rotation of any core, unless two of its rotations share
    a hash, which only leaves one of them in place.  Any weights give an
    exact deletion: a hit is checked letter by letter.
    """
    # the largest prime below 2^30: hashes stay one CPython digit, which made
    # the scan about twice as fast as a modulus of 2^61 - 1 on `long-words`,
    # and a collision costs only a letter check
    mod = 1_073_741_789
    base = 32_771
    # no pattern treats chr(0) to chr(35), which precede "$", as special, and
    # a text of them is ASCII, which str.translate maps fastest; past ASCII no
    # character is special either
    chars = {letter: chr(k if k < 36 else 128 + k) for k, letter in enumerate(weights)}
    inverse = {c: chars[g, -e] for (g, e), c in chars.items()}
    flip = str.maketrans(inverse)
    cores = []  # the text of the cyclic core of each relator, then of its inverse
    for r in relators:
        i = _conjugator_length(r)
        if 2 * i < len(r):
            core = "".join(map(chars.__getitem__, r[i : len(r) - i]))
            cores += [core, core.translate(flip)[::-1]]
    halves = []  # (the text of a half, the index of its core)
    for k, core in enumerate(cores):
        cut = (len(core) + 1) // 2
        halves += [(core[:cut], k), (core[cut:] or core, k)]
    hashed = set()  # the indices of the cores hashed into table
    table = {}  # core length m -> (base^m, {hash of a rotation: (doubled core, start)})
    texts = ["".join(map(chars.__getitem__, word)) for word in words]
    founds = [{k for h, k in halves if h in text} for text in texts]
    needed = set().union(*founds)  # the cores whose halves the alternation holds
    if needed:
        text_weights = dict(zip(chars.values(), weights.values()))
        near = re.compile("|".join([h for h, k in halves if k in needed]))
    letters = None  # a letter's text -> the letter, once a word has lost some
    result = []
    for word, text, found in zip(words, texts, founds):
        done = set()  # the cores this word was scanned for
        left = text
        while not found <= done:
            for k in found - hashed:
                m = len(cores[k])
                top, rotations = table.setdefault(m, (pow(base, m, mod), {}))
                ws = list(map(text_weights.__getitem__, cores[k]))
                h = 0
                for w in ws:
                    h = (h * base + w) % mod
                # rotation s + 1 is rotation s less its first letter, shifted, plus it
                lead = pow(base, m - 1, mod)
                doubled = cores[k] + cores[k]
                for s, w in enumerate(ws):
                    rotations.setdefault(h, (doubled, s))
                    h = ((h - w * lead) * base + w) % mod
            hashed |= found
            done |= found
            windows = [(m, *table[m]) for m in sorted({len(cores[k]) for k in done})]
            scanned = _delete_rotations(left, windows, text_weights, base, mod, near, inverse)
            if scanned is None:
                break
            left = scanned
            found = {k for h, k in halves if h in left}
            if not found <= needed:
                # a deletion joined the halves of a core no word held
                needed |= found
                near = re.compile("|".join([h for h, k in halves if k in needed]))
        if len(left) < len(text):
            letters = letters or dict(zip(chars.values(), chars))
            word = tuple(map(letters.__getitem__, left))
        result.append(word)
    return result


def _prefix_hashes(letters, weights, base, mod):
    """[0] and the hash of each nonempty prefix of the letters' texts."""
    h = 0
    return [0] + [h := (h * base + w) % mod for w in map(weights.__getitem__, letters)]


def _push_hashed(text, i, stop, hashes, windows, weights, base, mod, stack):
    """Push the letters of text[i:stop] onto the stack, looking up after
    each push the window of each length in ``windows`` that the letter ends;
    return the position after the last letter pushed and the length of the
    window that it ended and that matched, or 0 when none did.

    ``hashes`` holds the prefix hashes of the stack's last len(hashes) - 1
    letters, from any base: a window longer than those letters is not
    looked up.  ``windows`` lists (m, base^m, {hash: (text, s)}) by
    increasing m, a window of length m being text[s : s + m].  The hash of
    the last m letters takes O(1) from the prefix hashes, and only a hit
    compares the letters, so a comparison costs what the match it confirms
    deletes."""
    h = hashes[-1]
    for c in text[i:stop]:
        i += 1
        stack.append(c)
        h = (h * base + weights[c]) % mod
        hashes.append(h)
        n = len(hashes)
        for m, top, rotations in windows:
            if n <= m:
                break
            hit = rotations.get((h - hashes[-1 - m] * top) % mod)
            if hit is not None:
                rotation, s = hit
                if "".join(stack[-m:]) == rotation[s : s + m]:
                    return i, m
    return i, 0


def _delete_rotations(text, windows, weights, base, mod, near, inverse):
    """The text left once every subword that ``windows`` holds is deleted
    and the word freely reduced, or None when none is found.

    The deletion is that of a scan that pushes the letters one at a time
    onto a stack, looks up after each push the window of every length that
    ends at the new letter (`_push_hashed`), deletes the first that matches,
    and lets the letters after a deletion cancel the inverses on top of the
    stack.  This scan does that work in Python only where a window can
    match.  Every window that matches holds a half that ``near`` finds, so
    only the windows ending within span letters of where ``near`` finds a
    half are looked up, span being the longest window.  Each search starts
    span - 1 letters back, finds the first half from there, and sends the
    scan at least span letters on.

    The stack is one list of the letters' texts.  The letters up to a found
    half join it as one slice, and only the last span - 1 of them are
    hashed, as pushes, since the windows around the half reach that far
    back.  Letters are therefore hashed at most once, unless a deletion cuts
    below the hashes kept.  A match of m letters is cut off the list's end,
    and the letters after it cancel its top one at a time, each checked
    against ``inverse``, which maps a letter's text to its inverse's.  A
    window that crosses the junction ends within span - 1 letters after it.
    When the hashes left still reach a window back, those letters are looked
    up as pushed; otherwise they are looked up only when a half lies within
    span - 1 letters on either side of the junction, after the stack's last
    2 (span - 1) letters are hashed again, so a run of short deletions
    hashes each letter a bounded number of times.  Every window looked up is
    one that the letter-by-letter scan looks up on the same stack, with the
    same hash and the same letter check, and every window it skips holds no
    half, so the deletions are the same.
    """
    n = len(text)
    reach = windows[-1][0] - 1  # how far back the longest window reaches
    stack = []  # the texts of the letters left, text[start:i] on top
    start = i = hot = 0  # windows ending up to hot are looked up
    hashes = [0]  # the prefix hashes of the stack's last len(hashes) - 1 letters
    while i < n:
        if i == hot:
            half = near.search(text, max(i - reach, start))
            if half is None:
                break
            a = half.start()
            if a - reach > i:
                stack += text[i : a - reach]
                i = a - reach
                hashes = [0]
            hot = min(n, max(a, i) + reach + 1)
        i, m = _push_hashed(text, i, hot, hashes, windows, weights, base, mod, stack)
        if not m:
            continue
        del stack[-m:]
        j = i
        while i < n and stack and stack[-1] == inverse[text[i]]:
            stack.pop()
            i += 1
        m += i - j  # the letters taken off the stack
        start = i
        if m < len(hashes):
            del hashes[-m:]
        else:
            hashes = [0]
        hot = min(n, i + reach)
        if len(hashes) <= min(reach, len(stack)):
            if near.search("".join(stack[-reach:]) + text[i:hot]) is None:
                hot = i
                hashes = [0]
            else:
                hashes = _prefix_hashes(stack[-2 * reach :], weights, base, mod)
    # the stack holds every letter before i, unless a deletion took some
    return None if len(stack) == i else "".join(stack) + text[i:]


def _tietze_reduce(torsion_input):
    """The input with relator rotations deleted from its inclusion words and
    generators eliminated by Tietze moves on its words, or the input itself
    when nothing is deleted and no move is taken.

    Only relators r that the abelianization kills are used, and the kill
    test is taken once per relator.  First every subword of an inclusion
    word that is a cyclic permutation of r's cyclic core or of its inverse
    is deleted (`_delete_relators`): deleting u r' v -> u v, r' a conjugate
    of r^+-1, subtracts x^phi(u) dr'/dg = +-(monomial) * dr/dg from the
    word's Fox column, a multiple of r's column, which stays in the matrix,
    so the determinant does not change at all.  Relators are left as given.

    Then a move on a relator r = u g^e v in which g occurs once replaces g
    by (v u)^-e in the other words (`_eliminate`) and drops g and r.  Moves
    are tried cheapest first, by (|r| - 1) times the occurrences of g
    elsewhere, and taken only when the words then hold no more letters than
    they did after the deletion.  A refused move is not tried again while
    its relator's text is unchanged.  One generator is always kept, so the
    matrix is never 0x0.  A move keeps phi of every word, so the relators
    it rewrites stay killed.

    The abelianization stays the input's.  By the chain rule each reduced
    Fox column is the input's plus a multiple of r's, without the row of g,
    where r's column holds the unit u dg^e/dg: the determinant changes by a
    unit, and the class not at all.  A map built by
    `abelianize_presentation` kills every relator; a library caller's map
    need not.
    """
    pres = torsion_input.presentation
    phi = torsion_input.abelianization
    first = len(torsion_input.inclusion_words)
    relators = [r.letters for r in pres.relators]
    # kills[j]: whether phi kills the relator words[first + j]
    kills = [not any(phi.prefix_exponents(r)[-1]) for r in pres.relators]
    weights = {(g, e): e * i for i, g in enumerate(pres.generators, 1) for e in (1, -1)}
    inclusion = [w.letters for w in torsion_input.inclusion_words]
    killed = [r for r, k in zip(relators, kills) if k]
    words = _delete_relators(inclusion, killed, weights) + relators
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
                once = Counter(map(itemgetter(0), r)) if kills[j - first] else {}
                singles[r] = {(i, g) for i, (g, _) in enumerate(r) if once.get(g) == 1}
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
        del kills[j - first]
        words = reduced
    if len(generators) < len(pres.generators):
        pres = Presentation(generators, [Word._from_reduced(w) for w in words[first:]])
    if pres is not torsion_input.presentation or words[:first] != inclusion:
        torsion_input = TorsionInput(pres, [Word._from_reduced(w) for w in words[:first]], phi)
    return torsion_input


def sutured_torsion(torsion_input):
    """Torsion class of a balanced input: the normal form of the Fox
    matrix's determinant (`fox_determinant`) after `_tietze_reduce`."""
    return torsion_normal_form(fox_determinant(_tietze_reduce(torsion_input)))
