"""Graded rank tables for sutured solid tori, as ``sfh-torus`` prints them.

A rank table is a plain dict {grading: rank} with integer gradings in
increasing order and positive ranks; a grading it omits has rank zero.  The
tensor product of two tables, which only acceptance criterion 8 checks, is
``tensor_ranks`` in ``tests/helpers.py``.
"""

from .errors import InputTooLarge, NonpositiveP, OddSutureCount

# Largest binomial row k = (n - 2) / 2.  The biggest rank C(k, k // 2) has
# about 0.3 k decimal digits (3,009 at k = 10,000), so every rank stays under
# Python's default 4,300-digit limit on converting an int to text, which the
# JSON report needs.
MAX_BINOMIAL_ROW = 10_000
# Most gradings p * (k + 1) in one table: the whole row k = 10,000 at p = 1,
# a report of about 22 MB.  A larger p only repeats each rank p times.
MAX_TABLE_LENGTH = MAX_BINOMIAL_ROW + 1


def torus_sfh(p, n):
    """Rank table of the solid torus whose sutures are n parallel (p, q) curves.

    With n = 2k + 2 the rank at grading i is C(k, i // p) for 0 <= i < p(k+1)
    and zero elsewhere; q does not enter the pattern, so it is not a parameter.
    Tables beyond ``MAX_BINOMIAL_ROW`` or ``MAX_TABLE_LENGTH`` raise
    InputTooLarge before any rank is computed.
    """
    if p < 1:
        raise NonpositiveP(f"longitudinal winding p must be >= 1, got {p}")
    if n % 2 or n < 2:
        raise OddSutureCount(
            f"suture count must be a positive even integer >= 2, got {n}"
        )
    k = (n - 2) // 2
    if k > MAX_BINOMIAL_ROW:
        raise InputTooLarge(
            f"suture count {n} needs binomial row {k}, above the limit "
            f"{MAX_BINOMIAL_ROW} (n <= {2 * MAX_BINOMIAL_ROW + 2})"
        )
    if p * (k + 1) > MAX_TABLE_LENGTH:
        raise InputTooLarge(
            f"rank table of p * (k + 1) = {p * (k + 1)} gradings exceeds the "
            f"limit {MAX_TABLE_LENGTH}"
        )
    # C(k, j + 1) = C(k, j) * (k - j) // (j + 1) is exact at every step, so
    # the row costs one pass; a math.comb per grading redoes it each time
    row = [1]
    for j in range(k):
        row.append(row[j] * (k - j) // (j + 1))
    return {i: row[i // p] for i in range(p * (k + 1))}

