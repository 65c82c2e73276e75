"""Term-dict kernels for the group ring and the Laurent ring.

A term dict maps keys to nonzero integer coefficients.  `accumulate` and
`add_terms` only need hashable keys, so they serve both rings: free-group
`Word`s in the group ring, exponent tuples (one integer per variable) in the
Laurent ring.  `mul_terms` and `iadd_scaled` add keys as exponent tuples and
so are Laurent-only.  `iadd_scaled` serves exact division by leading terms,
which only the tests' reference determinant `torsion.det_bareiss` reaches;
the benchmark's traces wrap it.

`iadd_product` and `div_binomial` work on packed keys: `pack` writes each
exponent vector e as the int sum of e_i << shifts[i], with fields of one
width, so that adding keys adds the vectors, and `unpack` reads the vectors
back one coordinate column at a time.  `iadd_product` serves the cofactor
expansion of `torsion.det_cofactor` and keeps zero sums for its caller to
drop once; `div_binomial` is the one binomial division, which
`torsion.det_cofactor` and `LaurentPoly.exact_div` share.

`accumulate` and `add_terms` sum through one zero-dropping loop,
`_sum_into`; `mul_terms`, `iadd_scaled` and `iadd_product` keep their own
inline loops, because feeding that loop a generator of pairs made products
about 10-30 % slower on 3- to 40-term factors, and a 2-term `iadd_scaled`
about 20 % slower.

Exponent tuples are added as ``tuple(map(add, ka, kb))``: `map` over a C
operator builds the sum without a Python-level generator frame, which is
about twice as fast as ``tuple(x + y for x, y in zip(ka, kb))`` on the short
tuples of the Laurent ring.  The same idiom (with `sub`, `neg` or `min`)
serves the exponent arithmetic of `LaurentPoly`.
"""

from operator import add, lshift

from .errors import InexactDivision


def _sum_into(out, pairs):
    """Add (key, coefficient) pairs into the term dict ``out`` and return it;
    zero inputs and zero sums are dropped."""
    for k, v in pairs:
        cur = out.get(k, 0) + v
        if cur:
            out[k] = cur
        else:
            out.pop(k, None)
    return out


def accumulate(pairs):
    """Term dict of (key, coefficient) pairs: coefficients are summed by key,
    and zero inputs and zero sums are dropped."""
    return _sum_into({}, pairs)


def mul_terms(a, b):
    """Product of two term dicts; zero coefficients are dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(map(add, ka, kb))
            cur = out.get(k)
            if cur is None:
                out[k] = va * vb
            else:
                cur += va * vb
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out


def add_terms(a, b):
    """Sum of two term dicts; zero coefficients are dropped."""
    return _sum_into(dict(a), b.items())


def iadd_scaled(acc, src, shift, coeff):
    """In place: acc += coeff * x^shift * src.  Deletes cancelled keys."""
    if coeff:
        get = acc.get
        for k, v in src.items():
            k = tuple(map(add, k, shift))
            cur = get(k, 0) + coeff * v
            if cur:
                acc[k] = cur
            else:
                acc.pop(k, None)


def iadd_product(acc, a, b, sign):
    """In place: acc += sign * a * b, for term dicts keyed by packed ints, so
    that a product's key is the sum of its factors' keys.  Zero sums stay in
    ``acc`` as zero coefficients; the caller drops them."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, va in a.items():
        va *= sign
        for kb, vb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + va * vb


def pack(terms, shifts):
    """A term dict keyed by exponent tuples as one keyed by packed ints, each
    e written as the int sum of e_i << shifts[i]."""
    return {sum(map(lshift, k, shifts)): v for k, v in terms.items()}


def unpack(terms, shifts, width):
    """A term dict keyed by packed ints as one keyed by exponent tuples, for
    keys packed by `pack` in fields of ``width`` bits whose coordinates lie
    below 2^(width - 1) in magnitude.  With every field offset by half its
    range, each coordinate is one column ((k + offset) >> s & mask) - half
    over all keys, and the columns are zipped back into tuples."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = sum(half << s for s in shifts)
    keys = [k + offset for k in terms]
    columns = [[(k >> s & mask) - half for k in keys] for s in shifts]
    rows = zip(*columns) if columns else [()] * len(keys)
    return dict(zip(rows, terms.values()))


def div_binomial(terms, step, c, width):
    """The quotient of ``terms`` by c * (x^U - 1), in one pass, for a term
    dict keyed by packed ints in fields of ``width`` bits and U packed as
    ``step`` > 0; raises InexactDivision when it finds a remainder.

    With h = terms / c, the quotient q satisfies q(e - U) - q(e) = h(e) for
    every e, so on each line {e + tU} of exponents q is minus the running
    sum of h in increasing t, constant between the terms of h, and the
    division is exact exactly when c divides every coefficient and every
    line's sum of h is 0.  A line is keyed by its point e - tU, where t =
    floor(e_a / U_a) for the coordinate a of U's largest |U_a|.  Since
    step > 0, the keys of a line sorted increase in t, and q takes the keys
    range(k, next, step) from each term to the next one.

    The caller picks the width.  Every coordinate of the terms and of U
    must lie below 2^(width - 1) in magnitude, and then so do the keys of
    q, which lie between terms of their line.  That suffices for an exact
    division: were a term Q of another line, keyed alike, to sort between
    terms P and P + gU of a line, Q - P would pack as mU for some 0 < m < g,
    and Q - (P + mU), a nonzero difference of two points of that box, would
    pack to 0, which no vector within 2^width does.  So each line's terms
    run together, and its sum, 0, closes it.  Every remainder is found when
    the points e - tU, within |e_i| + |e_a| + |U_i|, lie below 2^(width - 1)
    too, since then no two lines share a key.
    """
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    # the balanced digits of step, lowest first, give the field of U_a
    place = ua = s = 0
    rest = step
    while rest:
        d = (rest + half & mask) - half
        if abs(d) > abs(ua):
            place, ua = s, d
        rest = (rest - d) >> width
        s += width
    # with half added to the fields up to a's, the field of e_a is e_a + half
    low = sum(half << s for s in range(0, place + 1, width))
    if c != 1:
        if any(v % c for v in terms.values()):
            raise InexactDivision("coefficient not divisible by the divisor's")
        terms = {k: v // c for k, v in terms.items()}
    lines = {}  # the point e - tU of a line -> its keys, increasing
    for k in sorted(terms):
        t = (((k + low) >> place & mask) - half) // ua
        lines.setdefault(k - t * step, []).append(k)
    quot = {}
    for keys in lines.values():
        run = 0  # minus the running sum of h
        for k, k_next in zip(keys, keys[1:]):
            run -= terms[k]
            if run:
                for key in range(k, k_next, step):
                    quot[key] = run
        if run != terms[keys[-1]]:
            raise InexactDivision("a line of exponents does not sum to zero")
    return quot
