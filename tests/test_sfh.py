from math import comb

import pytest

from foxtorsion.errors import InputTooLarge, NonpositiveP, OddSutureCount
from foxtorsion.sfh import (
    MAX_BINOMIAL_ROW,
    MAX_TABLE_LENGTH,
    tensor_ranks,
    torus_sfh,
)


def test_two_suture_examples():
    assert torus_sfh(2, 2) == {0: 1, 1: 1}
    assert sum(torus_sfh(2, 2).values()) == 2
    assert torus_sfh(3, 2) == {0: 1, 1: 1, 2: 1}
    assert sum(torus_sfh(3, 2).values()) == 3


def test_four_suture_example():
    assert torus_sfh(1, 4) == {0: 1, 1: 1}


def test_binomial_pattern():
    for p in range(1, 5):
        for k in range(0, 6):
            table = torus_sfh(p, 2 * k + 2)
            for i in range(p * (k + 1)):
                assert table.get(i, 0) == comb(k, i // p)
            assert table.get(p * (k + 1), 0) == 0
            assert table.get(-1, 0) == 0
            assert sum(table.values()) == sum(
                comb(k, i // p) for i in range(p * (k + 1))
            )
            assert sum(table.values()) == p * 2**k


def test_suture_count_validation():
    with pytest.raises(OddSutureCount):
        torus_sfh(2, 3)
    with pytest.raises(OddSutureCount):
        torus_sfh(2, 0)
    with pytest.raises(NonpositiveP):
        torus_sfh(0, 2)


def test_size_limits():
    k = MAX_BINOMIAL_ROW
    assert len(str(comb(k, k // 2))) < 4300
    assert sum(torus_sfh(MAX_TABLE_LENGTH, 2).values()) == MAX_TABLE_LENGTH
    with pytest.raises(InputTooLarge):
        torus_sfh(1, 2 * k + 4)
    with pytest.raises(InputTooLarge):
        torus_sfh(MAX_TABLE_LENGTH + 1, 2)
    with pytest.raises(InputTooLarge):
        torus_sfh(10**100, 10**100)
    # the existing checks keep their precedence
    with pytest.raises(NonpositiveP):
        torus_sfh(0, 10**100)
    with pytest.raises(OddSutureCount):
        torus_sfh(10**100, 10**100 + 1)


def test_tensor_examples():
    product = tensor_ranks(torus_sfh(2, 2), torus_sfh(3, 2))
    assert sum(product.values()) == 6
    unit = {0: 1}
    square = {0: 1, 1: 1}
    assert tensor_ranks(square, unit) == square
    assert tensor_ranks(square, square) == {0: 1, 1: 2, 2: 1}


def test_tensor_commutative_associative():
    g1 = torus_sfh(2, 4)
    g2 = torus_sfh(3, 2)
    g3 = {-1: 2, 3: 1}
    assert tensor_ranks(g1, g2) == tensor_ranks(g2, g1)
    assert tensor_ranks(tensor_ranks(g1, g2), g3) == tensor_ranks(
        g1, tensor_ranks(g2, g3)
    )
    assert sum(tensor_ranks(g1, g2).values()) == sum(g1.values()) * sum(g2.values())
    # dict equality ignores order, but a rank table is in increasing grading order
    for table in (g1, tensor_ranks(g3, g1), tensor_ranks(g1, g3)):
        assert list(table) == sorted(table)


def test_minus_one_case_totals_match_torsion():
    from foxtorsion import sutured_torsion
    from foxtorsion.lyon import lyon_input

    product = tensor_ranks(torus_sfh(2, 2), torus_sfh(3, 2))
    torsion_total = sutured_torsion(lyon_input(-1, "S")).coefficient_sum()
    assert sum(product.values()) == 6 == torsion_total
