"""Term-dict kernels for the group ring and the Laurent ring.

A term dict maps keys to nonzero integer coefficients.  `accumulate` and
`add_terms` only need hashable keys, so they serve both rings: free-group
`Word`s in the group ring, exponent tuples (one integer per variable) in the
Laurent ring.  `mul_terms` and `iadd_scaled` add keys as exponent tuples and
so are Laurent-only.  `iadd_product` adds keys as plain integers: it serves
`torsion.det_cofactor`, which packs each exponent vector into one int so that
adding keys adds the vectors, and it keeps zero sums for its caller to drop
once.  `iadd_scaled` serves exact division by leading terms and the unit
elimination of `torsion.determinant`, which calls it once per term of the
multiplier on a copy of each entry it updates.  These five functions are the
inner loops of every ring operation.  `accumulate` and `add_terms` sum
through one zero-dropping loop, `_sum_into`; `mul_terms`, `iadd_scaled` and
`iadd_product` keep their own inline loops, because feeding that loop a
generator of pairs made products about 10-30 % slower on 3- to 40-term
factors, and a 2-term `iadd_scaled` about 20 % slower.

Exponent tuples are added as ``tuple(map(add, ka, kb))``: `map` over a C
operator builds the sum without a Python-level generator frame, which is
about twice as fast as ``tuple(x + y for x, y in zip(ka, kb))`` on the short
tuples of the Laurent ring.  The same idiom (with `sub`, `neg` or `min`)
serves the exponent arithmetic of `LaurentPoly`.
"""

from operator import add


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
