"""Abelianization via Smith normal form, and exact multivariate Laurent arithmetic.

The free part of the abelianized group is presented as Z^r; a group-ring
element maps to a Laurent polynomial whose exponent vectors are the signed
sums of generator images.  All arithmetic is exact over the integers; the
term-dict inner loops live in `_kernels`.
"""

import math
from operator import add, neg, sub

from .errors import (
    InexactDivision,
    InvalidBasis,
    NontrivialTorsion,
    RankMismatch,
    UnknownGenerator,
)
from ._kernels import accumulate, add_terms, iadd_scaled, mul_terms
from .groupring import GroupRingElement
from .words import Word, render_word


# ---------------------------------------------------------------------------
# integer matrices


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Smith normal form of an integer matrix.

    Returns (D, U, V) with U * matrix * V = D, U and V unimodular, and D
    diagonal with nonnegative entries satisfying d1 | d2 | ... .
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = _identity(m)
    V = _identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        for c in range(n):
            A[i][c] -= q * A[j][c]
        for c in range(m):
            U[i][c] -= q * U[j][c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest magnitude as pivot
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])

        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_op(i, t, q)
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_op(j, t, q)
                if A[t][j]:
                    dirty = True
        if dirty:
            continue

        # enforce the divisibility chain before moving on
        stuck = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    row_op(t, i, -1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        if A[t][t] < 0:
            for c in range(n):
                A[t][c] = -A[t][c]
            for c in range(m):
                U[t][c] = -U[t][c]
        t += 1

    return A, U, V


def integer_rank(matrix):
    """Rank over Q of an integer matrix (any iterable of rows), computed exactly.

    Fraction-free row echelon without transforms: each row is reduced against
    the pivot rows found so far (cross-multiplication, then division by the
    gcd of its entries so that values stay small) and becomes a new pivot row
    when something is left.  Rows after the rank reaches the column count are
    not read.
    """
    pivots = []  # (column, pivot row), in the order found
    width = None
    for row in matrix:
        r = [int(x) for x in row]
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise ValueError("ragged matrix")
        for col, p in pivots:
            c = r[col]
            if c:
                a = p[col]
                r = [a * x - c * y for x, y in zip(r, p)]
        for col, x in enumerate(r):
            if x:
                g = math.gcd(*r)
                pivots.append((col, [y // g for y in r] if g > 1 else r))
                break
        if len(pivots) == width:
            break
    return len(pivots)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Finitely supported integer Laurent polynomial on exponent vectors in Z^r."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank = int(rank)
        items = terms.items() if isinstance(terms, dict) else terms or ()

        def checked(exps):
            exps = tuple(int(e) for e in exps)
            if len(exps) != rank:
                raise RankMismatch(
                    f"exponent vector {exps} has length {len(exps)}, expected {rank}"
                )
            return exps

        # Only terms with a nonzero coefficient have their exponents checked.
        self.terms = accumulate(
            (checked(exps), c) for exps, coeff in items if (c := int(coeff))
        )

    @classmethod
    def _raw(cls, rank, terms):
        p = cls.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def zero(cls, rank):
        return cls._raw(rank, {})

    @classmethod
    def one(cls, rank):
        return cls._raw(rank, {(0,) * rank: 1})

    @classmethod
    def constant(cls, rank, value):
        value = int(value)
        return cls._raw(rank, {(0,) * rank: value} if value else {})

    @classmethod
    def monomial(cls, exps, coeff=1):
        coeff = int(coeff)
        exps = tuple(int(e) for e in exps)
        return cls._raw(len(exps), {exps: coeff} if coeff else {})

    @property
    def is_zero(self):
        return not self.terms

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_rank(other)
        return LaurentPoly._raw(self.rank, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.rank, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.rank, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.rank)
            return LaurentPoly._raw(
                self.rank, {k: v * other for k, v in self.terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_rank(other)
        return LaurentPoly._raw(self.rank, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = LaurentPoly.one(self.rank)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def coefficient_sum(self):
        return sum(self.terms.values())

    def min_exponents(self):
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return tuple(map(min, zip(*self.terms)))

    def shifted(self, offset):
        offset = tuple(int(o) for o in offset)
        if len(offset) != self.rank:
            raise RankMismatch(f"offset length {len(offset)}, expected {self.rank}")
        return LaurentPoly._raw(
            self.rank,
            {tuple(map(add, k, offset)): v for k, v in self.terms.items()},
        )

    def reflected(self):
        """Exponent-wise negation (the inversion map on the grading group)."""
        return LaurentPoly._raw(
            self.rank, {tuple(map(neg, k)): v for k, v in self.terms.items()}
        )

    def exact_div(self, divisor):
        """Exact quotient self / divisor in the Laurent ring.

        A two-term divisor c * (x^A - x^B) takes one pass along lines
        (`_div_binomial`); any other divisor goes through the leading-term
        loop (`_div_leading_terms`).  Both raise InexactDivision exactly when
        divisor does not divide self.
        """
        if not isinstance(divisor, LaurentPoly):
            divisor = LaurentPoly.constant(self.rank, divisor)
        self._check_rank(divisor)
        if divisor.is_zero:
            raise InexactDivision("division by zero")
        if len(divisor.terms) == 2:
            (top, c), (bottom, d) = divisor.terms.items()
            if c == -d:
                return self._div_binomial(top, bottom, c)
        return self._div_leading_terms(divisor)

    def _div_leading_terms(self, divisor):
        """self / divisor for a nonzero divisor, by leading terms.

        Both operands are shifted to ordinary polynomials; repeated extraction
        of graded-lex leading terms then either terminates with zero remainder
        or proves inexactness (a leading monomial the divisor cannot reach).
        """
        if self.is_zero:
            return LaurentPoly.zero(self.rank)
        smin = self.min_exponents()
        dmin = divisor.min_exponents()
        rem = {tuple(map(sub, k, smin)): v for k, v in self.terms.items()}
        den = {tuple(map(sub, k, dmin)): v for k, v in divisor.terms.items()}
        _, dlead = max([(sum(e), e) for e in den])
        dcoeff = den[dlead]
        quot = {}
        while rem:
            _, lead = max([(sum(e), e) for e in rem])
            qexp = tuple(map(sub, lead, dlead))
            if any(e < 0 for e in qexp):
                raise InexactDivision("leading monomial not divisible")
            qc, r = divmod(rem[lead], dcoeff)
            if r:
                raise InexactDivision("leading coefficient not divisible")
            quot[qexp] = qc
            iadd_scaled(rem, den, qexp, -qc)
        shift = tuple(map(sub, smin, dmin))
        return LaurentPoly._raw(
            self.rank, {tuple(map(add, k, shift)): v for k, v in quot.items()}
        )

    def _div_binomial(self, top, bottom, c):
        """self / (c * (x^top - x^bottom)) for top != bottom, in one pass.

        With U = top - bottom and h = self / (c * x^bottom), the quotient q
        satisfies q(e - U) - q(e) = h(e) for every e.  On each line
        {e + tU} of exponents q is therefore minus the running sum of h in
        increasing t, constant between the terms of h, and the division is
        exact exactly when c divides every coefficient and every line's sum
        of h is 0.
        """
        step = tuple(map(sub, top, bottom))
        axis = next(i for i, s in enumerate(step) if s)
        lines = {}  # point of the line with 0 <= e[axis] / U[axis] < 1 -> [(t, h)]
        for exps, v in self.terms.items():
            h, r = divmod(v, c)
            if r:
                raise InexactDivision("coefficient not divisible by the divisor's")
            e = tuple(map(sub, exps, bottom))
            t = e[axis] // step[axis]
            base = tuple(x - t * s for x, s in zip(e, step))
            lines.setdefault(base, []).append((t, h))
        quot = {}
        for base, points in lines.items():
            points.sort()
            run = 0
            for (t, h), (t_next, _) in zip(points, points[1:]):
                run += h
                if run:
                    e = tuple(x + t * s for x, s in zip(base, step))
                    for _ in range(t, t_next):
                        quot[e] = -run
                        e = tuple(map(add, e, step))
            if run + points[-1][1]:
                raise InexactDivision("a line of exponents does not sum to zero")
        return LaurentPoly._raw(self.rank, quot)

    def sorted_terms(self):
        """(exponents, coefficient) pairs in graded-lex order, sorted as decorated
        (degree, exponents, coefficient) tuples with no per-term key function;
        exponents are distinct, so ties never reach the coefficient."""
        ordered = sorted([(sum(e), e, c) for e, c in self.terms.items()])
        return [(e, c) for _, e, c in ordered]

    def render(self, names):
        """`render_terms` of `sorted_terms` with the given variable names."""
        if len(names) != self.rank:
            raise RankMismatch(f"{len(names)} names for rank {self.rank}")
        return render_terms(self.sorted_terms(), names)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.rank)]
        return f"LaurentPoly[{self.rank}]({self.render(names)})"


def render_terms(terms, names):
    """Human-readable form of (exponents, coefficient) pairs in the order
    given, "0" for none.  Callers pass `LaurentPoly.sorted_terms`, so one
    sort serves both a report's term list and its rendering."""
    pieces = []
    for exps, coeff in terms:
        mono = "*".join(
            [str(n) if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        )
        mag = abs(coeff)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    # the leading term takes a bare "-" and no "+"
    text = " ".join(pieces)
    return (text[2:] if text[0] == "+" else "-" + text[2:]) if text else "0"


# ---------------------------------------------------------------------------
# abelianization maps


class AbelianizationMap:
    """Generator images in Z^r inducing the ring map onto the free abelianization."""

    def __init__(self, rank, images, basis_names=None):
        self.rank = int(rank)
        self.images = {
            str(name): tuple(int(e) for e in vec) for name, vec in dict(images).items()
        }
        for name, vec in self.images.items():
            if len(vec) != self.rank:
                raise RankMismatch(
                    f"image of {name!r} has length {len(vec)}, expected {self.rank}"
                )
        if basis_names is None:
            basis_names = tuple(f"t{i + 1}" for i in range(self.rank))
        self.basis_names = tuple(str(n) for n in basis_names)
        if len(self.basis_names) != self.rank:
            raise RankMismatch("one basis name per coordinate is required")
        if len(set(self.basis_names)) != self.rank:
            raise InvalidBasis(f"duplicate basis names in {list(self.basis_names)}")

    def word_exponents(self, word):
        return self.prefix_exponents(word)[-1]

    def prefix_exponents(self, word):
        """Exponent vectors of all len(word) + 1 prefixes of a Word, shortest
        first: entry i is ``word_exponents`` of the first i letters.  One pass
        over the letters; raises UnknownGenerator for a letter without an
        image."""
        acc = (0,) * self.rank
        prefixes = [acc]
        for name, sign in word.letters:
            img = self.images.get(name)
            if img is None:
                raise UnknownGenerator(f"no abelianized image for generator {name!r}")
            acc = tuple(map(add if sign > 0 else sub, acc, img))
            prefixes.append(acc)
        return prefixes

    def __call__(self, element):
        """Apply the induced ring map to a Word or GroupRingElement."""
        if isinstance(element, Word):
            element = GroupRingElement.from_word(element)
        return LaurentPoly._raw(
            self.rank,
            accumulate(
                (self.word_exponents(word), coeff)
                for word, coeff in element.terms.items()
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, AbelianizationMap)
            and self.rank == other.rank
            and self.images == other.images
            and self.basis_names == other.basis_names
        )

    def __repr__(self):
        imgs = ", ".join(f"{n}->{v}" for n, v in sorted(self.images.items()))
        return f"AbelianizationMap(rank={self.rank}, {imgs})"


def _relator_vectors(presentation):
    names = presentation.generator_names
    index = {n: i for i, n in enumerate(names)}
    vectors = []
    for rel in presentation.relators:
        vec = [0] * len(names)
        for name, sign in rel.letters:
            vec[index[name]] += sign
        vectors.append(vec)
    return vectors


def abelianize_presentation(presentation, user_basis=None):
    """Free-part abelianization of a presentation.

    Without ``user_basis`` the basis comes from the Smith normal form of the
    relator exponent matrix; a finite cyclic factor raises NontrivialTorsion.
    A supplied basis is validated (kills every relator, generates Z^r) and
    returned verbatim.
    """
    names = presentation.generator_names

    if user_basis is not None:
        for name in names:
            if name not in user_basis.images:
                raise InvalidBasis(f"user basis has no image for generator {name!r}")
        for rel in presentation.relators:
            if any(user_basis.word_exponents(rel)):
                raise InvalidBasis(
                    f"user basis does not kill relator {render_word(rel)!r}"
                )
        if user_basis.rank:
            gmat = [
                [user_basis.images[name][i] for name in names]
                for i in range(user_basis.rank)
            ]
            D, _, _ = smith_normal_form(gmat)
            factors = [D[i][i] for i in range(min(len(gmat), len(names)))]
            if sum(1 for d in factors if abs(d) == 1) != user_basis.rank:
                raise InvalidBasis("user basis images do not generate Z^r")
        return user_basis

    vectors = _relator_vectors(presentation)
    m = len(names)
    k = len(vectors)
    # columns of the m x k matrix are the relator exponent vectors
    M = [[vectors[j][i] for j in range(k)] for i in range(m)]
    D, U, _ = smith_normal_form(M)
    s = min(m, k)
    diag = [D[i][i] for i in range(s)]
    for d in diag:
        if abs(d) > 1:
            raise NontrivialTorsion(
                f"abelianized group has a Z/{abs(d)} factor; only free H_1 is supported"
            )
    free_rows = [i for i in range(m) if i >= s or diag[i] == 0]
    rank = len(free_rows)
    images = {
        name: tuple(U[i][j] for i in free_rows) for j, name in enumerate(names)
    }
    if not presentation.relators:
        basis_names = names
    else:
        basis_names = tuple(f"t{i + 1}" for i in range(rank))
    return AbelianizationMap(rank, images, basis_names)
