"""Shared randomized-input builders, a call counter and reference
implementations for the test suite."""

import re
import sys
from itertools import groupby

from hypothesis import strategies as st

from foxtorsion import (
    LaurentPoly,
    Presentation,
    TorsionInput,
    abelianize_presentation,
    torsion,
    words,
)
from foxtorsion.words import Word
from foxtorsion._kernels import accumulate
from foxtorsion.abelian import _pivot
from foxtorsion.polytope import _apply, _completion, _pad
from foxtorsion.errors import InputTooLarge, ParseError, RankMismatch, WordSizeError


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
        poly = LaurentPoly.monomial((1,) * rank, 1 + rng.randint(0, coeff_span))
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
    """Record ``measure(*args)`` for every call of ``function``, one entry per
    call, for as long as the monkeypatch lasts.

    The wrapper replaces ``function`` at every ``foxtorsion`` module that
    binds it, found by identity, so calls through any import are seen.  A
    count of calls, letters or term pairs is the work a budget bounds, and
    unlike seconds it does not depend on the machine or on a tracer.
    """
    calls = []

    def counted(*args):
        calls.append(measure(*args))
        return function(*args)

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
    relators = list(pres.relators)
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
        w * _conjugate(random_word(rng, names=tuple(gens), max_len=2),
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
    negation and a sum per term: the same expansion, kept minors and
    MAX_TERM_PRODUCTS budget without the packed keys, as the reference for
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


def _dense_unit_pivot(A):
    """(p, q) of the unit entry of lowest Markowitz cost (r - 1)(c - 1), where
    r and c count the nonzeros in its row and column; ties go to the first in
    row-major order.  None when no entry is a unit."""
    row_counts = [sum(not e.is_zero for e in row) for row in A]
    col_counts = [sum(not row[j].is_zero for row in A) for j in range(len(A))]
    best = None
    for i, row in enumerate(A):
        for j, entry in enumerate(row):
            if torsion._is_unit(entry.terms):
                cost = (row_counts[i] - 1) * (col_counts[j] - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def _dense_eliminate_unit(A, p, q):
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


def dense_unit_elimination(matrix):
    """(factor, core) with det(matrix) = factor * det(core): the unit
    elimination of `torsion.determinant` on dense matrices, the reference for
    its pivots, their order and its fill.  Each step recounts every row and
    column and copies the whole matrix, so it is cubic in the dimension."""
    rank = torsion._square_rank(matrix)
    factor = LaurentPoly.one(rank)
    while len(matrix) > torsion.UNIT_PIVOT_FLOOR and (pivot := _dense_unit_pivot(matrix)):
        p, q = pivot
        u = matrix[p][q]
        factor = factor * (u if (p + q) % 2 == 0 else -u)
        matrix = _dense_eliminate_unit(matrix, p, q)
    return factor, matrix


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
            atom = words._reduce(atom * k)
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
