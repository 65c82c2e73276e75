"""Abelianization via Smith normal form, and exact multivariate Laurent arithmetic.

The free part of the abelianized group is presented as Z^r; a group-ring
element maps to a Laurent polynomial whose exponent vectors are the signed
sums of generator images.  All arithmetic is exact over the integers; the
term-dict inner loops live in `_kernels`.
"""

import math
from itertools import accumulate as running_sums, chain
from operator import add, sub

from .errors import (
    InexactDivision,
    InvalidBasis,
    NontrivialTorsion,
    RankMismatch,
    UnknownGenerator,
)
from ._kernels import accumulate, add_terms, div_binomial, iadd_scaled, mul_terms, pack, unpack
from .words import _NAME_RE, Word, render_word


# ---------------------------------------------------------------------------
# integer matrices


def smith_normal_form(matrix, transform=True):
    """Invariant factors of an integer matrix and a row transform to them.

    Returns (factors, U): ``factors`` are the min(m, n) diagonal entries of
    the Smith normal form, nonnegative with d1 | d2 | ..., and U is the
    unimodular m x m row transform with U * matrix * V = diag(factors) for a
    unimodular V.  V is never formed: column operations act on the working
    copy of the matrix only, and only on the rows where the pivot column is
    nonzero.  With ``transform=False`` U's rows are empty: the same pivots and
    row operations run, without U's entries, which can grow far past the matrix's.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    U = [[int(i == j) for j in range(m)] if transform else [] for i in range(m)]

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
        # rows above t are zero from column t on, so column operations skip them
        if j != t:
            for row in A[t:]:
                row[t], row[j] = row[j], row[t]

        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                row_op(i, t, A[i][t] // A[t][t])
                if A[i][t]:
                    dirty = True
        # column t is now nonzero only in row t and the rows left with a remainder
        rows = [row for row in A[t:] if row[t]]
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                for row in rows:  # col_j -= q * col_t
                    row[j] -= q * row[t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue

        # enforce the divisibility chain before moving on: add the first row
        # holding an entry the pivot does not divide (a unit divides all)
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


def _pivot(A, t):
    """Position of the nonzero entry of smallest magnitude in rows and columns
    t onward, the first in row-major order; a unit ends the search, as no
    nonzero entry is smaller."""
    best, size = None, 0
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, len(row)):
            x = row[j]
            if x and (best is None or abs(x) < size):
                if x in (1, -1):
                    return i, j
                best, size = (i, j), abs(x)
    return best


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

    def exact_div(self, divisor):
        """Exact quotient self / divisor in the Laurent ring.

        A two-term divisor c * (x^A - x^B) takes one pass along lines of
        packed keys (`_div_binomial`); any other divisor goes through the
        leading-term loop (`_div_leading_terms`).  Both raise InexactDivision
        exactly when divisor does not divide self.
        """
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
        """self / (c * (x^top - x^bottom)) for top != bottom, by `div_binomial`
        on packed keys, unpacked once.

        With M the largest |exponent| of self and of the divisor, the
        dividend self / x^bottom and U = top - bottom lie within 2M, and the
        point keying a line within 6M, so in fields of (6M).bit_length() + 1
        bits no two lines share a key and every remainder is found.  The
        binomial is turned so that U packs above 0.
        """
        bound = max(map(abs, chain(top, bottom, chain.from_iterable(self.terms))))
        width = (6 * bound).bit_length() + 1
        shifts = [width * (self.rank - 1 - i) for i in range(self.rank)]
        high, low = pack(dict.fromkeys((top, bottom)), shifts)
        if high < low:
            high, low, c = low, high, -c
        dividend = {k - low: v for k, v in pack(self.terms, shifts).items()}
        quot = div_binomial(dividend, high - low, c, width)
        return LaurentPoly._raw(self.rank, unpack(quot, shifts, width))

    def sorted_terms(self):
        """(exponents, coefficient) pairs in graded-lex order (`graded_lex`)."""
        return graded_lex(self.terms)[1]

    def render(self, names):
        """`render_terms` of `sorted_terms` with the given variable names."""
        if len(names) != self.rank:
            raise RankMismatch(f"{len(names)} names for rank {self.rank}")
        return render_terms(self.sorted_terms(), names)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.rank)]
        return f"LaurentPoly[{self.rank}]({self.render(names)})"


def graded_lex(terms):
    """A term dict's exponents in lex order, and its (exponents, coefficient)
    pairs in graded-lex order: by degree, then lex.  The exponents are sorted
    once, and a copy of that list stably by degree, so that the terms of one
    degree keep their lex order.  Both lists hold the dict's own exponent
    tuples."""
    lex = sorted(terms)
    order = lex.copy()
    order.sort(key=sum)
    return lex, list(zip(order, map(terms.__getitem__, order)))


def graded_lex_least(terms):
    """The graded-lex smallest exponents of a nonempty term dict, the first
    of `graded_lex`'s pairs, by one decorated min."""
    return min(zip(map(sum, terms), terms))[1]


def render_terms(terms, names):
    """Human-readable form of (exponents, coefficient) pairs in the order
    given, "0" for none; callers pass `LaurentPoly.sorted_terms`.

    Each coordinate's piece, "" for exponent 0, "*a" for 1 and "*a^e" for
    any other e, is formatted once per distinct exponent of its column, and
    each signed magnitude " + c" or " - c" once per distinct coefficient;
    the text is every term's magnitude and pieces, in order, joined once.
    Names hold no spaces, so every space is next to a sign and " 1*" occurs
    exactly where a magnitude 1 stands before a monomial; it is dropped
    there."""
    if not terms:
        return "0"
    exps, coeffs = zip(*terms)
    heads = {c: (" - " if c < 0 else " + ") + str(abs(c)) for c in set(coeffs)}
    columns = []
    for name, column in zip(names, zip(*exps)):
        pieces = {e: f"*{name}^{e}" for e in set(column)}
        pieces[1] = "*" + name
        pieces[0] = ""
        columns.append(map(pieces.__getitem__, column))
    text = "".join(chain.from_iterable(zip(map(heads.__getitem__, coeffs), *columns)))
    text = text.replace(" 1*", " ")
    # the leading term takes a bare "-" and no "+"
    return text[3:] if text[1] == "+" else "-" + text[3:]


# ---------------------------------------------------------------------------
# abelianization maps


class AbelianizationMap:
    """Generator images in Z^r inducing the ring map onto the free abelianization.

    Basis names are distinct and follow the generator-name grammar."""

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
        for name in self.basis_names:
            if not _NAME_RE.fullmatch(name):
                raise InvalidBasis(f"invalid basis name {name!r}")
        # the exponent step of each signed letter
        self._steps = {}
        for name, vec in self.images.items():
            self._steps[name, 1] = vec
            self._steps[name, -1] = tuple(-e for e in vec)

    def prefix_exponents(self, word):
        """Exponent vectors of all len(word) + 1 prefixes of a Word, shortest
        first: entry i is the exponent vector of the first i letters, and the
        last entry is the word's own.  The letters' steps, after a zero step,
        are summed per coordinate by ``itertools.accumulate``; raises
        UnknownGenerator for a letter without an image."""
        steps = self._steps
        try:
            rows = [(0,) * self.rank] + [steps[letter] for letter in word.letters]
        except KeyError as exc:
            name, _ = exc.args[0]
            raise UnknownGenerator(
                f"no abelianized image for generator {name!r}"
            ) from None
        if not self.rank:
            return rows
        return list(zip(*map(running_sums, zip(*rows))))

    def __call__(self, element):
        """Apply the induced ring map to a Word, as {word: 1}, or to a
        group-ring element such as a Fox derivative."""
        terms = {element: 1} if isinstance(element, Word) else element.terms
        return LaurentPoly._raw(
            self.rank,
            accumulate(
                (self.prefix_exponents(word)[-1], coeff) for word, coeff in terms.items()
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


def abelianize_presentation(presentation, user_basis=None):
    """Free-part abelianization of a presentation.

    On both paths H_1 is read off one Smith normal form of the relator
    exponent matrix, and a finite cyclic factor raises NontrivialTorsion.
    Without ``user_basis`` the basis is the free rows of its row transform.  A
    supplied basis is validated (kills every relator, has as many coordinates
    as the free part of H_1, generates Z^r) and returned verbatim; its Smith
    normal forms build no transform.
    """
    names = presentation.generators
    # row i of the m x k matrix holds generator i's exponent sum in each relator
    index = {name: i for i, name in enumerate(names)}
    M = [[0] * len(presentation.relators) for _ in names]
    for j, rel in enumerate(presentation.relators):
        for name, sign in rel.letters:
            M[index[name]][j] += sign

    if user_basis is not None:
        for name in names:
            if name not in user_basis.images:
                raise InvalidBasis(f"user basis has no image for generator {name!r}")
        # fewer images than coordinates cannot generate Z^r; refused before
        # the relator check and the Smith normal forms, which grow with r
        if user_basis.rank > len(names):
            raise InvalidBasis("user basis images do not generate Z^r")
        for rel in presentation.relators:
            if any(user_basis.prefix_exponents(rel)[-1]):
                raise InvalidBasis(
                    f"user basis does not kill relator {render_word(rel)!r}"
                )

    factors, U = smith_normal_form(M, transform=user_basis is None)
    for d in factors:
        if d > 1:
            raise NontrivialTorsion(
                f"abelianized group has a Z/{d} factor; only free H_1 is supported"
            )
    # the zero factors come last, so rows past the nonzero ones span the free part
    free_rows = range(sum(map(bool, factors)), len(names))
    if user_basis is None:
        images = {name: tuple(U[i][j] for i in free_rows) for j, name in enumerate(names)}
        # with no relators U is the identity, so the generators are the basis
        return AbelianizationMap(len(free_rows), images, None if presentation.relators else names)

    # fewer coordinates would present a quotient of the free part of H_1, and
    # more cannot be generated
    if user_basis.rank != len(free_rows):
        raise InvalidBasis(
            f"user basis has rank {user_basis.rank}, but the free part of H_1 "
            f"has rank {len(free_rows)}"
        )
    gmat = [[user_basis.images[name][i] for name in names] for i in range(user_basis.rank)]
    factors, _ = smith_normal_form(gmat, transform=False)
    if factors.count(1) != user_basis.rank:
        raise InvalidBasis("user basis images do not generate Z^r")
    return user_basis
