"""Term-dict kernels for the group ring and the Laurent ring.

A term dict maps keys to nonzero integer coefficients.  `accumulate` and
`add_terms` only need hashable keys, so they serve both rings: free-group
`Word`s in the group ring, exponent tuples (one integer per variable) in the
Laurent ring.  `mul_terms` and `iadd_scaled` add keys as exponent tuples and
so are Laurent-only.  These four functions are the inner loops of every ring
operation.

Exponent tuples are added as ``tuple(map(add, ka, kb))``: `map` over a C
operator builds the sum without a Python-level generator frame, which is
about twice as fast as ``tuple(x + y for x, y in zip(ka, kb))`` on the short
tuples of the Laurent ring.  The same idiom (with `sub`, `neg` or `min`)
serves the exponent arithmetic of `LaurentPoly`.
"""

from operator import add


def accumulate(pairs):
    """Term dict of (key, coefficient) pairs: coefficients are summed by key,
    and zero inputs and zero sums are dropped."""
    out = {}
    for k, v in pairs:
        if not v:
            continue
        cur = out.get(k)
        if cur is None:
            out[k] = v
        else:
            cur += v
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


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
    out = dict(a)
    for k, v in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = v
        else:
            cur += v
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


def iadd_scaled(acc, src, shift, coeff):
    """In place: acc += coeff * x^shift * src.  Deletes cancelled keys."""
    if not coeff:
        return
    for k, v in src.items():
        kk = tuple(map(add, k, shift))
        cur = acc.get(kk)
        if cur is None:
            acc[kk] = coeff * v
        else:
            cur += coeff * v
            if cur:
                acc[kk] = cur
            else:
                del acc[kk]
