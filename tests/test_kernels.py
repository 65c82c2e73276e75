"""The term-dict kernels against a naive `collections.Counter` reference."""

import random
from collections import Counter

from foxtorsion._kernels import add_terms, iadd_scaled, mul_terms


def rand_terms(rng, nterms, rank=2, span=6, coeff=10**6):
    return {
        tuple(rng.randint(-span, span) for _ in range(rank)): rng.randint(-coeff, coeff)
        or 1
        for _ in range(nterms)
    }


def shifted(k, shift):
    return tuple(x + y for x, y in zip(k, shift))


def nonzero(counter):
    return {k: v for k, v in counter.items() if v}


def ref_mul(a, b):
    out = Counter()
    for ka, va in a.items():
        for kb, vb in b.items():
            out[shifted(ka, kb)] += va * vb
    return nonzero(out)


def ref_add(a, b):
    out = Counter(a)
    for k, v in b.items():
        out[k] += v
    return nonzero(out)


def ref_iadd_scaled(acc, src, shift, coeff):
    out = Counter(acc)
    for k, v in src.items():
        out[shifted(k, shift)] += coeff * v
    return nonzero(out)


def assert_no_zero_coefficients(terms):
    assert all(v != 0 for v in terms.values()), terms


def test_mul_terms_matches_reference():
    rng = random.Random(271)
    for _ in range(200):
        a = rand_terms(rng, rng.randint(0, 12))
        if rng.random() < 0.3:
            # p(x) * p(-x) is even in x: every odd-power term cancels.
            b = {k: -v if k[0] % 2 else v for k, v in a.items()}
        else:
            b = rand_terms(rng, rng.randint(0, 12))
        a_before, b_before = dict(a), dict(b)
        got = mul_terms(a, b)
        assert got == ref_mul(a, b)
        assert_no_zero_coefficients(got)
        assert (a, b) == (a_before, b_before)


def test_add_terms_matches_reference():
    rng = random.Random(277)
    for _ in range(200):
        a = rand_terms(rng, rng.randint(0, 12))
        b = dict(a) if rng.random() < 0.3 else rand_terms(rng, rng.randint(0, 12))
        if rng.random() < 0.3:
            b = {k: -v for k, v in b.items()}  # force cancellations
        a_before, b_before = dict(a), dict(b)
        got = add_terms(a, b)
        assert got == ref_add(a, b)
        assert_no_zero_coefficients(got)
        assert (a, b) == (a_before, b_before)


def test_iadd_scaled_matches_reference():
    rng = random.Random(281)
    for _ in range(200):
        acc = rand_terms(rng, rng.randint(0, 10))
        shift = (rng.randint(-4, 4), rng.randint(-4, 4))
        if rng.random() < 0.3:
            # acc - x^shift * (x^-shift * acc) cancels every term.
            src = {shifted(k, (-shift[0], -shift[1])): v for k, v in acc.items()}
            coeff = -1
        else:
            src = rand_terms(rng, rng.randint(0, 10))
            coeff = rng.randint(-5, 5)
        expected = ref_iadd_scaled(acc, src, shift, coeff)
        assert iadd_scaled(acc, src, shift, coeff) is None
        assert acc == expected
        assert_no_zero_coefficients(acc)


def test_iadd_scaled_with_zero_coefficient_leaves_acc_alone():
    acc = {(0, 0): 3, (1, 2): -1}
    iadd_scaled(acc, {(0, 0): 5, (2, 2): 1}, (1, -1), 0)
    assert acc == {(0, 0): 3, (1, 2): -1}


def test_iadd_scaled_shifts_and_cancels():
    acc = {(0, 0): 3, (1, 2): -1}
    # (3 - a u^2) + a u^-1 (5 + u^3): the a u^2 terms cancel.
    iadd_scaled(acc, {(0, 0): 5, (0, 3): 1}, (1, -1), 1)
    assert acc == {(0, 0): 3, (1, -1): 5}


def test_big_integer_coefficients_survive():
    big = 10**40
    a = {(0, 0): big, (1, 0): -big}
    b = {(0, 0): big}
    assert mul_terms(a, b) == {(0, 0): big * big, (1, 0): -big * big}
