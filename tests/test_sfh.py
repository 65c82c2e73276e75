from math import comb

import pytest

from foxtorsion.errors import InputTooLarge, NonpositiveP, OddSutureCount
from foxtorsion.sfh import (
    MAX_BINOMIAL_ROW,
    MAX_TABLE_LENGTH,
    GradedRanks,
    tensor_ranks,
    torus_sfh,
)


def test_two_suture_examples():
    assert torus_sfh(2, 1, 2).as_dict() == {0: 1, 1: 1}
    assert torus_sfh(2, 1, 2).total_rank == 2
    assert torus_sfh(3, 4, 2).as_dict() == {0: 1, 1: 1, 2: 1}
    assert torus_sfh(3, 4, 2).total_rank == 3


def test_four_suture_example():
    assert torus_sfh(1, 0, 4).as_dict() == {0: 1, 1: 1}


def test_binomial_pattern():
    for p in range(1, 5):
        for k in range(0, 6):
            table = torus_sfh(p, 1, 2 * k + 2)
            for i in range(p * (k + 1)):
                assert table[i] == comb(k, i // p)
            assert table[p * (k + 1)] == 0
            assert table[-1] == 0
            assert table.total_rank == sum(
                comb(k, i // p) for i in range(p * (k + 1))
            )
            assert table.total_rank == p * 2**k


def test_suture_count_validation():
    with pytest.raises(OddSutureCount):
        torus_sfh(2, 1, 3)
    with pytest.raises(OddSutureCount):
        torus_sfh(2, 1, 0)
    with pytest.raises(NonpositiveP):
        torus_sfh(0, 1, 2)


def test_size_limits():
    k = MAX_BINOMIAL_ROW
    assert len(str(comb(k, k // 2))) < 4300
    assert torus_sfh(MAX_TABLE_LENGTH, 0, 2).total_rank == MAX_TABLE_LENGTH
    with pytest.raises(InputTooLarge):
        torus_sfh(1, 0, 2 * k + 4)
    with pytest.raises(InputTooLarge):
        torus_sfh(MAX_TABLE_LENGTH + 1, 0, 2)
    with pytest.raises(InputTooLarge):
        torus_sfh(10**100, 0, 10**100)
    # the existing checks keep their precedence
    with pytest.raises(NonpositiveP):
        torus_sfh(0, 1, 10**100)
    with pytest.raises(OddSutureCount):
        torus_sfh(10**100, 1, 10**100 + 1)


def test_lookup_between_and_beyond_the_gradings():
    table = GradedRanks.from_dict({-1: 2, 3: 1})
    assert [table[i] for i in range(-3, 6)] == [0, 0, 2, 0, 0, 0, 1, 0, 0]


def test_tensor_examples():
    product = tensor_ranks(torus_sfh(2, 1, 2), torus_sfh(3, 4, 2))
    assert product.total_rank == 6
    unit = GradedRanks.from_dict({0: 1})
    square = GradedRanks.from_dict({0: 1, 1: 1})
    assert tensor_ranks(square, unit) == square
    assert tensor_ranks(square, square).as_dict() == {0: 1, 1: 2, 2: 1}


def test_tensor_commutative_associative():
    g1 = torus_sfh(2, 1, 4)
    g2 = torus_sfh(3, 2, 2)
    g3 = GradedRanks.from_dict({-1: 2, 3: 1})
    assert tensor_ranks(g1, g2) == tensor_ranks(g2, g1)
    assert tensor_ranks(tensor_ranks(g1, g2), g3) == tensor_ranks(
        g1, tensor_ranks(g2, g3)
    )
    assert tensor_ranks(g1, g2).total_rank == g1.total_rank * g2.total_rank


def test_minus_one_case_totals_match_torsion():
    from foxtorsion import sutured_torsion
    from foxtorsion.lyon import lyon_input

    product = tensor_ranks(torus_sfh(2, 1, 2), torus_sfh(3, 4, 2))
    torsion_total = sutured_torsion(lyon_input(-1, "S")).coefficient_sum()
    assert product.total_rank == 6 == torsion_total
