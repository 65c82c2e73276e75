"""Term-dict kernels for Laurent polynomial arithmetic.

A polynomial is a dict mapping exponent tuples (one integer per variable) to
nonzero integer coefficients.  These three functions are the inner loops of
every ring operation.
"""


def mul_terms(a, b):
    """Product of two term dicts; zero coefficients are dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
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
        kk = tuple(x + y for x, y in zip(k, shift))
        cur = acc.get(kk)
        if cur is None:
            acc[kk] = coeff * v
        else:
            cur += coeff * v
            if cur:
                acc[kk] = cur
            else:
                del acc[kk]
