"""The term-dict kernels against a naive `collections.Counter` reference."""

import random
from collections import Counter
from operator import add, neg

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import LaurentPoly, Word
from foxtorsion._kernels import accumulate, add_terms, iadd_product, iadd_scaled, mul_terms
from foxtorsion.errors import InexactDivision

from helpers import random_word


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


def ref_accumulate(pairs):
    out = Counter()
    for k, v in pairs:
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


def test_accumulate_matches_reference():
    rng = random.Random(283)
    for trial in range(200):
        if trial % 2:
            keys = [random_word(rng, max_len=3) for _ in range(6)]
        else:
            keys = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)]
        # Few keys, so keys repeat; zero inputs appear among the coefficients.
        pairs = [(rng.choice(keys), rng.randint(-3, 3)) for _ in range(rng.randint(0, 15))]
        cancel = rng.random() < 0.3
        if cancel:
            pairs += [(k, -v) for k, v in pairs]
        got = accumulate((k, v) for k, v in pairs)  # a one-shot generator
        assert got == ref_accumulate(pairs)
        assert_no_zero_coefficients(got)
        if cancel:
            assert got == {}
    assert accumulate([(Word.identity(), 0), ((1, 0), 0)]) == {}


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


def test_iadd_product_sums_into_a_nonempty_acc():
    acc = {5: 2, 9: 1}
    # 2 t^5 + t^9 + (3 t + 7 t^2) * t^4
    assert iadd_product(acc, {1: 3, 2: 7}, {4: 1}, 1) is None
    assert acc == {5: 5, 6: 7, 9: 1}


def test_iadd_product_subtracts_with_sign_minus_one():
    acc = {0: 2}
    # 2 - (2 t^-1 + t) * (t^-1 - 4) = 2 - (2 t^-2 - 8 t^-1 + 1 - 4 t)
    iadd_product(acc, {-1: 2, 1: 1}, {-1: 1, 0: -4}, -1)
    assert acc == {-2: -2, -1: 8, 0: 1, 1: 4}


def test_iadd_product_keeps_a_cancelled_key_as_zero():
    acc = {5: 3, 7: 1}
    iadd_product(acc, {1: 3}, {4: 1}, -1)
    assert acc == {5: 0, 7: 1}


def test_iadd_product_with_an_empty_operand_leaves_acc_alone():
    for a, b in (({}, {1: 2}), ({1: 2}, {}), ({}, {})):
        acc = {3: -1}
        iadd_product(acc, a, b, -1)
        assert acc == {3: -1}


def test_big_integer_coefficients_survive():
    big = 10**40
    a = {(0, 0): big, (1, 0): -big}
    b = {(0, 0): big}
    assert mul_terms(a, b) == {(0, 0): big * big, (1, 0): -big * big}


# Exponent arithmetic in ranks 0-3, against references that index each
# coordinate by hand.

ranks = st.integers(0, 3)


def term_dicts(rank, max_size=12):
    return st.dictionaries(
        st.tuples(*[st.integers(-5, 5)] * rank),
        st.integers(-50, 50).filter(bool),
        max_size=max_size,
    )


def exponents(rank):
    return st.tuples(*[st.integers(-5, 5)] * rank)


def by_index(op, *keys):
    return tuple(op(*(k[i] for k in keys)) for i in range(len(keys[0])))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_terms_in_every_rank(data):
    rank = data.draw(ranks)
    a, b = data.draw(term_dicts(rank)), data.draw(term_dicts(rank))
    out = Counter()
    for ka, va in a.items():
        for kb, vb in b.items():
            out[by_index(add, ka, kb)] += va * vb
    assert mul_terms(a, b) == nonzero(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iadd_scaled_in_every_rank(data):
    rank = data.draw(ranks)
    acc, src = data.draw(term_dicts(rank)), data.draw(term_dicts(rank))
    shift, coeff = data.draw(exponents(rank)), data.draw(st.integers(-3, 3))
    out = Counter(acc)
    for k, v in src.items():
        out[by_index(add, k, shift)] += coeff * v
    iadd_scaled(acc, src, shift, coeff)
    assert acc == nonzero(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shift_reflect_and_min_exponents_in_every_rank(data):
    rank = data.draw(ranks)
    terms = data.draw(term_dicts(rank))
    offset = data.draw(exponents(rank))
    p = LaurentPoly(rank, terms)
    assert p.shifted(offset).terms == {
        by_index(add, k, offset): v for k, v in terms.items()
    }
    assert p.reflected().terms == {
        by_index(neg, k): v for k, v in terms.items()
    }
    if terms:
        assert p.min_exponents() == tuple(
            min(k[i] for k in terms) for i in range(rank)
        )
    else:
        with pytest.raises(ValueError):
            p.min_exponents()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_div_in_every_rank(data):
    """Products divide back to their factor, through both the binomial and
    the leading-term path; a quotient returned for a perturbed product
    must multiply back."""
    rank = data.draw(ranks)
    q = LaurentPoly(rank, data.draw(term_dicts(rank, max_size=6)))
    if data.draw(st.booleans()) and rank:
        top, bottom = data.draw(exponents(rank)), data.draw(exponents(rank))
        c = data.draw(st.integers(-3, 3).filter(bool))
        d = LaurentPoly(rank, accumulate([(top, c), (bottom, -c)]))
    else:
        d = LaurentPoly(rank, data.draw(term_dicts(rank, max_size=4)))
    if d.is_zero:
        d = LaurentPoly.monomial(data.draw(exponents(rank)), 2)
    n = LaurentPoly(rank, ref_mul(q.terms, d.terms))
    assert n.exact_div(d) == q
    extra = data.draw(term_dicts(rank, max_size=2))
    m = LaurentPoly(rank, ref_add(n.terms, extra))
    try:
        quot = m.exact_div(d)
    except InexactDivision:
        return
    assert ref_mul(quot.terms, d.terms) == m.terms


# Packed keys: each coordinate in a field of PACK_WIDTH bits, wide enough
# for the sums of two exponents in [-5, 5] that a product makes.
PACK_WIDTH = 8


def pack(terms, rank):
    return {
        sum(c << (PACK_WIDTH * (rank - 1 - i)) for i, c in enumerate(k)): v
        for k, v in terms.items()
    }


def unpack(terms, rank):
    half = 1 << (PACK_WIDTH - 1)
    shifts = [PACK_WIDTH * (rank - 1 - i) for i in range(rank)]
    offset = sum(half << s for s in shifts)
    mask = (1 << PACK_WIDTH) - 1
    return {
        tuple(((k + offset) >> s & mask) - half for s in shifts): v
        for k, v in terms.items()
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iadd_product_on_packed_keys_matches_mul_terms_in_every_rank(data):
    rank = data.draw(ranks)
    a, b, acc = (data.draw(term_dicts(rank)) for _ in range(3))
    sign = data.draw(st.sampled_from((1, -1)))
    product = mul_terms(a, b)
    expected = add_terms(acc, {k: sign * v for k, v in product.items()})
    packed = pack(acc, rank)
    iadd_product(packed, pack(a, rank), pack(b, rank), sign)
    assert unpack({k: v for k, v in packed.items() if v}, rank) == expected
