"""Shared randomized-input builders, a call counter and reference
implementations for the test suite.

The product builds words only from reduced letters and group-ring elements
only as Fox derivatives.  The operations the tests need beyond that live
here: ``Word`` and ``GroupRingElement`` subclass the product classes with
the free-group and group-ring operations, and the functions after them are
the Laurent and oracle conveniences only tests call.  Instances of the
subclasses compare and hash like the product's, so they mix freely with
parsed words and Fox results.
"""

import re
import sys
from itertools import groupby
from operator import neg

from hypothesis import strategies as st

from foxtorsion import (
    LaurentPoly,
    Presentation,
    TorsionClass,
    TorsionInput,
    abelianize_presentation,
    groupring,
    torsion,
    words,
)
from foxtorsion._kernels import accumulate, add_terms
from foxtorsion.abelian import _pivot
from foxtorsion.lyon import _poly2
from foxtorsion.polytope import _apply, _completion, _pad
from foxtorsion.errors import (
    InexactDivision,
    InputTooLarge,
    ParseError,
    RankMismatch,
    UnsupportedN,
    WordSizeError,
)


def reduce_letters(letters):
    """The freely reduced form of any letter sequence, letter by letter."""
    stack = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


class Word(words.Word):
    """`words.Word` with a reducing constructor and the group operations."""

    __slots__ = ()

    def __init__(self, letters=()):
        letters = tuple(letters)
        if len(letters) > words.MAX_WORD_LETTERS:
            raise WordSizeError(
                f"word with {len(letters)} letters exceeds the limit of {words.MAX_WORD_LETTERS}"
            )
        for name, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        self.letters = reduce_letters(letters)

    @classmethod
    def identity(cls):
        return cls._from_reduced(())

    @classmethod
    def generator(cls, name, sign=1):
        return cls(((name, sign),))

    @property
    def is_identity(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if not isinstance(other, words.Word):
            return NotImplemented
        if len(self.letters) + len(other.letters) > words.MAX_WORD_LETTERS:
            raise WordSizeError("product exceeds the word size limit")
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word._from_reduced(
            tuple((name, -sign) for name, sign in reversed(self.letters))
        )

    def __invert__(self):
        return self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if abs(k) > words.MAX_EXPONENT:
            raise WordSizeError(f"exponent magnitude {k} exceeds {words.MAX_EXPONENT}")
        if k == 0:
            return Word.identity()
        if k < 0:
            return self.inverse() ** (-k)
        if len(self.letters) * k > words.MAX_WORD_LETTERS:
            raise WordSizeError("power exceeds the word size limit")
        return Word(self.letters * k)


class GroupRingElement(groupring.GroupRingElement):
    """`groupring.GroupRingElement` with the ring operations.  An operand may
    be a product element, a Fox derivative say, on either side."""

    __slots__ = ()

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = accumulate((word, int(coeff)) for word, coeff in items)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({Word.identity(): 1})

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def augmentation(self):
        return sum(self.terms.values())

    def __add__(self, other):
        if not isinstance(other, groupring.GroupRingElement):
            return NotImplemented
        return GroupRingElement._raw(add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement._raw({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, groupring.GroupRingElement):
            return NotImplemented
        return self + (-GroupRingElement._raw(other.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return GroupRingElement.zero()
            return GroupRingElement._raw({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, groupring.GroupRingElement):
            return NotImplemented
        return GroupRingElement._raw(
            accumulate(
                (Word._from_reduced(wa.letters) * wb, ca * cb)
                for wa, ca in self.terms.items()
                for wb, cb in other.terms.items()
            )
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        if isinstance(other, groupring.GroupRingElement):
            return GroupRingElement._raw(other.terms) * self
        return NotImplemented


def monomial(exps, coeff=1):
    """The Laurent monomial coeff * x^exps, of rank len(exps)."""
    coeff = int(coeff)
    exps = tuple(int(e) for e in exps)
    return LaurentPoly._raw(len(exps), {exps: coeff} if coeff else {})


def reflected(poly):
    """Exponent-wise negation (the inversion map on the grading group)."""
    return LaurentPoly._raw(poly.rank, {tuple(map(neg, k)): v for k, v in poly.terms.items()})


def reflect(t):
    """The torsion class of the reflected representative."""
    return TorsionClass(reflected(t.representative))


def sorted_terms_reference(poly):
    """(exponents, coefficient) pairs in graded-lex order, by a key function
    per term: the reference for `LaurentPoly.sorted_terms`."""
    return sorted(poly.terms.items(), key=lambda t: (sum(t[0]), t[0]))


def render_reference(poly, names):
    """A polynomial's text, sorted on its own and built factor by factor: the
    reference for `render_terms` of `LaurentPoly.sorted_terms`."""
    if not poly.terms:
        return "0"
    pieces = []
    for exps, coeff in sorted_terms_reference(poly):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(str(name))
            elif e:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


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
    a = monomial((1, 0))
    s = _poly2([((0, 0), 1), ((1, 0), 1), ((1, 1), 1), ((1, 2), 1)])
    value = _poly2([((0, 1), -1), ((0, 2), -1)])  # seed at n = -1
    for m in range(-1, n):
        value = a * value + monomial((0, m + 2)) * s
    sa = _poly2([((0, 0), 1), ((0, 1), 1), ((0, 2), 1), ((1, 2), 1)])
    numerator = monomial((0, 1)) * (
        monomial((n + 1, 0)) * sa - monomial((0, n + 1)) * s
    )
    closed = numerator.exact_div(a - monomial((0, 1)))
    if closed != value:
        raise InexactDivision("recurrence and closed form disagree; transcription error")
    return torsion.torsion_normal_form(value).representative


def tensor_ranks(g1, g2):
    """Convolution of two rank tables, as a rank table; total ranks multiply."""
    pairs = ((i + j, r1 * r2) for i, r1 in g1.items() for j, r2 in g2.items())
    return dict(sorted(accumulate(pairs).items()))


def random_word(rng, names=("a", "b", "c"), max_len=12):
    letters = [
        (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters)


def random_laurent(rng, rank=2, max_terms=6, exp_span=3, coeff_span=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-exp_span, exp_span) for _ in range(rank))
        coeff = rng.randint(-coeff_span, coeff_span)
        if coeff:
            terms[exps] = coeff
    poly = LaurentPoly(rank, terms)
    if nonzero and poly.is_zero:
        poly = monomial((1,) * rank, 1 + rng.randint(0, coeff_span))
    return poly


@st.composite
def laurent_polys(draw, max_rank=3):
    """Laurent polynomials in ranks 0 to ``max_rank``.  Exponents lie in
    [-3, 3], so many terms share a total degree; the zero and one-term
    polynomials come up, and so do coefficients +-1 and beyond 2^64."""
    rank = draw(st.integers(0, max_rank))
    exps = st.tuples(*[st.integers(-3, 3)] * rank)
    coeffs = st.one_of(st.integers(-12, 12), st.sampled_from((-(2**70), 3**50)))
    return LaurentPoly(rank, draw(st.dictionaries(exps, coeffs, max_size=12)))


def substitute(poly, images):
    """Monomial substitution: variable i of the Laurent polynomial ``poly``
    maps to the monomial with exponent images[i], one target-ring exponent
    vector per variable.  This is the ring homomorphism induced by an
    integer matrix."""
    images = [tuple(int(e) for e in img) for img in images]
    if len(images) != poly.rank:
        raise RankMismatch(f"{len(images)} variable images for rank {poly.rank}")
    target = len(images[0]) if images else 0
    if any(len(img) != target for img in images):
        raise RankMismatch("variable images have inconsistent ranks")

    def image(exps):
        return tuple(
            sum(e * img[i] for e, img in zip(exps, images)) for i in range(target)
        )

    return LaurentPoly._raw(
        target, accumulate((image(k), v) for k, v in poly.terms.items())
    )


def random_unimodular(rng, steps=8):
    """Random 2x2 integer matrix of determinant +-1 (elementary products)."""
    U = [[1, 0], [0, 1]]
    for _ in range(steps):
        k = rng.randint(-3, 3)
        move = rng.randrange(4)
        if move == 0:
            U[0] = [U[0][0] + k * U[1][0], U[0][1] + k * U[1][1]]
        elif move == 1:
            U[1] = [U[1][0] + k * U[0][0], U[1][1] + k * U[0][1]]
        elif move == 2:
            U = [U[1], U[0]]
        else:
            U[0] = [-U[0][0], -U[0][1]]
    return tuple(tuple(row) for row in U)


def apply_affine(terms, U, v, sign=1):
    """Push a term dict through exponents -> U @ exponents + v."""
    out = {}
    r = len(v)
    for exps, coeff in terms.items():
        key = tuple(
            sum(U[i][j] * exps[j] for j in range(len(exps))) + v[i] for i in range(r)
        )
        out[key] = out.get(key, 0) + sign * coeff
    return {k: c for k, c in out.items() if c}


def _reference_cycle_edges(vertices):
    n = len(vertices)
    return [
        (
            vertices[(i + 1) % n][0] - vertices[i][0],
            vertices[(i + 1) % n][1] - vertices[i][1],
        )
        for i in range(n)
    ]


def _reference_solve_map(e0, e1, f0, f1):
    """Integer U with U e0 = f0 and U e1 = f1, if it exists and is unimodular."""
    det = e0[0] * e1[1] - e0[1] * e1[0]
    if det == 0:
        return None
    raw = (
        (f0[0] * e1[1] - f1[0] * e0[1], -f0[0] * e1[0] + f1[0] * e0[0]),
        (f0[1] * e1[1] - f1[1] * e0[1], -f0[1] * e1[0] + f1[1] * e0[0]),
    )
    if any(c % det for row in raw for c in row):
        return None
    U = tuple(tuple(c // det for c in row) for row in raw)
    if abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) != 1:
        return None
    return U


def reference_affine_maps(p1, p2):
    """`polytope.iter_affine_maps` with every map solved by index arithmetic and
    applied through the generic `polytope._apply`, the reference for its maps
    and their order (the first map that matches is the printed witness)."""
    if p1.dimension != p2.dimension:
        return []
    source = [_pad(p) for p in p1.vertices]
    target = [_pad(q) for q in p2.vertices]
    anchored = []
    if p1.dimension == 0:
        anchored.append((((1, 0), (0, 1)), source[0], target[0]))
    elif p1.dimension == 1:
        d1, d2 = _pad(p1.edges[0][0]), _pad(p2.edges[0][0])
        c1 = _completion(d1)
        for d, y in ((d2, target[0]), (tuple(-c for c in d2), target[1])):
            anchored.append(
                (_reference_solve_map(d1, c1, d, _completion(d)), source[0], y)
            )
    else:
        f = _reference_cycle_edges(target)
        for cycle in (source, source[::-1]):
            e = _reference_cycle_edges(cycle)
            for j in range(len(target)):
                U = _reference_solve_map(e[0], e[1], f[j], f[(j + 1) % len(f)])
                if U is not None:
                    anchored.append((U, cycle[0], target[j]))
    r1, r2 = len(p1.vertices[0]), len(p2.vertices[0])
    target_vertices = set(target)
    found = []
    seen = set()
    for U, x, y in anchored:
        v = tuple(b - a for a, b in zip(_apply(U, (0, 0), x), y))
        if {_apply(U, v, p) for p in source} != target_vertices:
            continue
        key = (tuple(row[:r1] for row in U[:r2]), v[:r2])
        if key not in seen:
            seen.add(key)
            found.append(key)
    return found


def count_calls(monkeypatch, function, measure):
    """Record ``measure(*args, **kwargs)`` for every call of ``function``, one
    entry per call, for as long as the monkeypatch lasts.

    The wrapper replaces ``function`` at every ``foxtorsion`` module that
    binds it, found by identity, so calls through any import are seen.  A
    count of calls, letters or term pairs is the work a budget bounds, and
    unlike seconds it does not depend on the machine or on a tracer.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(measure(*args, **kwargs))
        return function(*args, **kwargs)

    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.partition(".")[0] == "foxtorsion"
        for name, value in vars(module).items()
        if value is function
    ]
    assert bindings, f"no foxtorsion module binds {function.__qualname__}"
    for module, name in bindings:
        monkeypatch.setattr(module, name, counted)
    return calls


def _conjugate(c, w):
    return c * w * c.inverse()


def tietze_enlarge(rng, torsion_input, added):
    """The input after Tietze moves that keep the group and the inclusion images.

    Adds ``added`` generators y1, y2, ..., each with the defining relator
    y w^-1 for a random word w in the generators before it.  Then every
    relator, in turn, is multiplied by a conjugate of another relator or of
    its inverse, and every inclusion word by a conjugate of a defining
    relator.  In the Fox matrix these moves add a row and a column with a
    unit where they cross, and add multiples of columns to columns, so the
    torsion class is unchanged.  There is no basis: the Smith normal form
    picks one.
    """
    if added < 1:
        raise ValueError("multiplying relators needs at least two of them")
    pres = torsion_input.presentation
    gens = list(pres.generators)
    relators = [Word._from_reduced(r.letters) for r in pres.relators]
    defining = []
    for i in range(added):
        w = random_word(rng, names=tuple(gens), max_len=3)
        y = f"y{i + 1}"
        gens.append(y)
        relators.append(Word.generator(y) * w.inverse())
        defining.append(len(relators) - 1)
    for i in range(len(relators)):
        j = rng.choice([k for k in range(len(relators)) if k != i])
        c = random_word(rng, names=tuple(gens), max_len=2)
        relators[i] = relators[i] * _conjugate(c, relators[j] ** rng.choice((1, -1)))
    inclusion = [
        Word._from_reduced(w.letters)
        * _conjugate(random_word(rng, names=tuple(gens), max_len=2),
                     relators[rng.choice(defining)])
        for w in torsion_input.inclusion_words
    ]
    enlarged = Presentation(gens, relators)
    return TorsionInput(enlarged, inclusion, abelianize_presentation(enlarged))


def det_first_column(matrix):
    """Determinant by recursive cofactor expansion along the first column:
    the textbook definition, a reference independent of the memoized
    minors of `torsion.det_cofactor` and of fraction-free elimination."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = LaurentPoly.zero(matrix[0][0].rank)
    for i, row in enumerate(matrix):
        if row[0].is_zero:
            continue
        minor = [r[1:] for k, r in enumerate(matrix) if k != i]
        term = row[0] * det_first_column(minor)
        total = total + (term if i % 2 == 0 else -term)
    return total


def det_cofactor_tuples(matrix):
    """`torsion.det_cofactor` on exponent-tuple keys, with a product, its
    negation and a sum per term, and with no column cleared: the same
    expansion, kept minors and MAX_TERM_PRODUCTS count without the packed
    keys, the clearing and the binomial division, as the reference for
    them."""
    rank = torsion._square_rank(matrix)
    n = len(matrix)
    first = [next((j for j, e in enumerate(row) if not e.is_zero), n) for row in matrix]

    def kept(minors, j):
        due = {i for i, f in enumerate(first) if f >= j}
        return {rows: m for rows, m in minors.items() if not m.is_zero and due <= set(rows)}

    columns = list(zip(*matrix))
    minors = kept({(i,): e for i, e in enumerate(columns[-1])}, n - 1)
    products = 0
    for j in range(n - 2, -1, -1):
        products += sum(
            len(entry.terms) * len(minor.terms)
            for rows, minor in minors.items()
            for i, entry in enumerate(columns[j])
            if i not in rows
        )
        if products > torsion.MAX_TERM_PRODUCTS:
            raise InputTooLarge(
                f"the determinant needs more than {torsion.MAX_TERM_PRODUCTS} term products"
            )
        expanded = {}
        for rows, minor in minors.items():
            for i, entry in enumerate(columns[j]):
                if i not in rows and not entry.is_zero:
                    key = tuple(sorted(rows + (i,)))
                    term = -(entry * minor) if key.index(i) % 2 else entry * minor
                    expanded[key] = expanded[key] + term if key in expanded else term
        minors = kept(expanded, j)
    return minors.get(tuple(range(n)), LaurentPoly.zero(rank))


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*)|([()])|)")
_REFERENCE_EXPONENT_RE = re.compile(r"\^([+-]?(\d*))")


def reference_render_word(w):
    """`words.render_word` as it was written with `itertools.groupby`, one
    list per run of equal letters, the reference for its one-loop count."""
    return " ".join([
        name if k == 1 else f"{name}^{k}"
        for (name, sign), run in groupby(w.letters)
        for k in (sign * len(list(run)),)
    ])


def reference_parse_word(text, names):
    """`words.parse_word` without its memo or expansion budget, the reference
    for its outcomes: one token regex and one exponent regex per atom, and
    every atom pushed letter by letter, each letter cancelling its inverse on
    top of the stack, where `words._push_reduced` cancels only at the
    junction and appends the rest at once."""
    names = set(names)
    open_parens = []  # (position of the '(', the enclosing sequence's stack)
    stack = []  # the current sequence's letters so far, freely reduced
    pos = 0
    while True:
        token = _REFERENCE_TOKEN_RE.match(text, pos)
        name, paren = token.groups()
        pos = token.end()
        if name:
            if name not in names:
                raise ParseError(f"unknown generator {name!r}", token.start(1))
            atom = ((name, 1),)
        elif paren == "(":
            if len(open_parens) == words.MAX_NESTING:
                message = f"parentheses nested deeper than {words.MAX_NESTING}"
                raise ParseError(message, pos - 1)
            open_parens.append((pos - 1, stack))
            stack = []
            continue
        elif paren:
            if not open_parens:
                raise ParseError("unbalanced parentheses: unexpected ')'", pos - 1)
            atom = stack
            stack = open_parens.pop()[1]
        elif pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        elif open_parens:
            raise ParseError("unbalanced parentheses: missing ')'", open_parens[-1][0])
        else:
            return Word._from_reduced(stack)
        if exponent := _REFERENCE_EXPONENT_RE.match(text, pos):
            digits = exponent.group(2)
            if not digits:
                raise ParseError("malformed exponent", pos + 1)
            if len(digits) > len(str(words.MAX_EXPONENT)):
                raise WordSizeError(
                    f"exponent with {len(digits)} digits exceeds {words.MAX_EXPONENT}"
                )
            k = int(exponent.group(1))
            if abs(k) > words.MAX_EXPONENT:
                raise WordSizeError(f"exponent magnitude {k} exceeds {words.MAX_EXPONENT}")
            pos = exponent.end()
            if k < 0:
                atom, k = [(g, -sign) for g, sign in reversed(atom)], -k
            if len(atom) * k > words.MAX_WORD_LETTERS:
                raise WordSizeError("power exceeds the word size limit")
            atom = reduce_letters(atom * k)
        if len(stack) + len(atom) > words.MAX_WORD_LETTERS:
            raise WordSizeError("product exceeds the word size limit")
        for name, sign in atom:
            if stack and stack[-1] == (name, -sign):
                stack.pop()
            else:
                stack.append((name, sign))


def reference_smith_normal_form(matrix):
    """`abelian.smith_normal_form` with every column operation and column swap
    walking every row, the reference for its ``(factors, U)``: the rows it
    skips hold zeros in the columns it changes."""
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        A[i] = [x - q * y for x, y in zip(A[i], A[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    t = 0
    while t < min(m, n):
        best = _pivot(A, t)
        if best is None:
            break
        i, j = best
        A[t], A[i] = A[i], A[t]
        U[t], U[i] = U[i], U[t]
        for row in A:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                row_op(i, t, A[i][t] // A[t][t])
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                for row in A:
                    row[j] -= q * row[t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        p = A[t][t]
        if p not in (1, -1):
            rows = range(t + 1, m)
            stuck = next((i for i in rows if any(x % p for x in A[i][t + 1 :])), None)
            if stuck is not None:
                row_op(t, stuck, -1)
                continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return [A[i][i] for i in range(min(m, n))], U


# An algebraic certificate for `words._delete_relators`, which shares no code
# with its scan: the Fox matrix evaluated at a point of (F_p^*)^r.

FOX_PRIME = 2**61 - 1


def fox_rank_and_determinant_at(columns, generators, images, point):
    """The rank mod p = 2^61 - 1 of the Fox matrix whose columns are the Fox
    derivatives of the words ``columns`` (tuples of (generator, +-1)
    letters), one row per generator, abelianized by ``images`` (generator
    -> exponent vector) and evaluated at ``point``, one nonzero residue mod
    p per coordinate; and its determinant mod p, when it is square.

    Each word is walked once with the value v of its prefix: a letter g
    adds v to row g, a letter g^-1 adds -v g^-1 (the value of the prefix
    that ends with it), and the matrix is eliminated mod p column by
    column."""
    p = FOX_PRIME
    value = {}
    for g in generators:
        v = 1
        for t, e in zip(point, images[g]):
            v = v * pow(t, e, p) % p
        value[g, 1], value[g, -1] = v, pow(v, -1, p)
    row = {g: i for i, g in enumerate(generators)}
    n = len(generators)
    matrix = [[0] * len(columns) for _ in range(n)]
    for j, word in enumerate(columns):
        v = 1
        for g, e in word:
            if e == 1:
                matrix[row[g]][j] += v
            v = v * value[g, e] % p
            if e == -1:
                matrix[row[g]][j] -= v
    rank, det = 0, 1
    for k in range(len(columns)):
        pivot = next((i for i in range(rank, n) if matrix[i][k] % p), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
            det = -det
        det = det * matrix[rank][k] % p
        inverse = pow(matrix[rank][k], -1, p)
        for i in range(rank + 1, n):
            f = matrix[i][k] * inverse % p
            if f:
                matrix[i] = [(a - f * b) % p for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank, det % p


def fox_determinant_at(columns, generators, images, point):
    """The determinant mod p of the square Fox matrix of
    `fox_rank_and_determinant_at`."""
    assert len(columns) == len(generators)
    return fox_rank_and_determinant_at(columns, generators, images, point)[1]


class _CheckedSlice(str):
    """A slice of a rotation's text that counts, into ``counts``, the
    letter checks it fails: compared with the window's text, its ``__eq__``
    runs first, as that of a subclass of the left operand's type."""

    def __eq__(self, other):
        equal = str.__eq__(self, other)
        self.counts["mismatches"] += equal is False
        return equal

    __hash__ = str.__hash__


class _CheckedText(str):
    """A rotation's text whose slices are `_CheckedSlice`."""

    def __getitem__(self, key):
        piece = _CheckedSlice(str.__getitem__(self, key))
        piece.counts = self.counts
        return piece


class _CountedLookups(dict):
    """A rotation table that counts its ``get`` calls, and the hits that a
    letter check follows, into ``counts``."""

    __slots__ = ("counts",)

    def get(self, key, default=None):
        self.counts["windows"] += 1
        if key in self:
            self.counts["hits"] += 1
        return dict.get(self, key, default)


def count_window_lookups(monkeypatch, module, name):
    """Count, for as long as the monkeypatch lasts, the windows that the scan
    ``module.name(word, windows, ...)`` looks up: its tables count their
    lookups, one per window hashed, and their hits, each of which compares
    letters, and ``counts["mismatches"]`` counts the hits whose letters do
    not match.  ``counts["bound"]`` sums, over the scans, the windows of
    each length m that the word holds, len(word) - m + 1: a scan that looks
    up a window of length m once per letter pushed, and only when its stack
    holds m letters, that is at the word's m-th letter or later, never
    exceeds it.  ``counts["scans"]`` counts the scans, and
    ``counts["deleting"]`` those that deleted something.  Each table is
    copied once per scan, so only the scans' own lookups are counted."""
    scan = getattr(module, name)
    counts = {"windows": 0, "hits": 0, "mismatches": 0, "bound": 0, "scans": 0, "deleting": 0}
    texts = {}  # a rotation's text -> its `_CheckedText`

    def checked(text):
        if text not in texts:
            texts[text] = _CheckedText(text)
            texts[text].counts = counts
        return texts[text]

    def counted(word, windows, *args):
        tables = []
        for m, top, rotations in windows:
            table = _CountedLookups({h: (checked(t), s) for h, (t, s) in rotations.items()})
            table.counts = counts
            tables.append((m, top, table))
        counts["bound"] += sum(max(0, len(word) - m + 1) for m, _, _ in windows)
        counts["scans"] += 1
        scanned = scan(word, tables, *args)
        counts["deleting"] += scanned is not None
        return scanned

    monkeypatch.setattr(module, name, counted)
    return counts
