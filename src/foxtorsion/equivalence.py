"""Equivalence of torsion classes under affine isomorphisms of their gradings.

Two classes are equivalent when some unimodular integer matrix plus
translation, composed with an optional global sign, carries one exactly onto
the other.  In rank <= 2 the decision is exact: a cheap battery of affine
invariants rejects most pairs, and surviving pairs are settled by trying each
of the finitely many hull-compatible maps from ``polytope.iter_affine_maps``.
The hull invariants are ``polytope.hull_mismatch``, which the polygon
comparison shares.  Higher ranks report Inconclusive when the battery passes.
"""

from dataclasses import dataclass
from typing import Optional

from .abelian import LaurentPoly
from .polytope import (
    SupportSet,
    _apply,
    affine_dimension,
    hull_mismatch,
    iter_affine_maps,
    newton_polytope,
)


@dataclass(frozen=True)
class Witness:
    """An exact equivalence: sign * (matrix @ exponents + translation) maps one
    representative termwise onto the other."""

    matrix: tuple
    translation: tuple
    sign: int


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str  # "Equivalent" | "NotEquivalent" | "Inconclusive"
    witness: Optional[Witness] = None
    reason: Optional[str] = None


def _identity_witness(rank):
    return Witness(
        tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)),
        (0,) * rank,
        1,
    )


def apply_witness(t, witness):
    """The first class's representative pushed through a witness map (exact)."""
    U, v, sign = witness.matrix, witness.translation, witness.sign
    return LaurentPoly(
        len(v),
        {_apply(U, v, e): sign * c for e, c in t.representative.terms.items()},
    )


def _match(t1, t2, U, v):
    """Sign making the mapped representative equal the target, or None, for
    nonzero classes.

    U is unimodular, so the map is injective: with equal sizes, the image is
    the target when each mapped term is found there times the sign read from
    the first term.  The scan stops at the first miss."""
    source, target = t1.representative.terms, t2.representative.terms
    if len(source) != len(target):
        return None
    if len(v) == 2:
        (a, b), (c, d) = U
        s, t = v
        image = (
            ((a * x + b * y + s, c * x + d * y + t), k) for (x, y), k in source.items()
        )
    else:
        image = ((_apply(U, v, e), k) for e, k in source.items())
    sign = None
    for e, k in image:
        found = target.get(e)
        if sign is None:
            sign = 1 if found == k else -1
        if found != sign * k:
            return None
    return sign


def _battery(t1, t2, points1, points2, hulls=None):
    """First mismatched affine invariant (None when all agree), and the two
    Newton polygons in rank <= 2 once the support sizes agree: ``hulls`` when
    given, else built here, so that the caller need not build them again."""
    coeffs1 = sorted(t1.representative.terms.values())
    coeffs2 = sorted(t2.representative.terms.values())
    coeffs2_neg = sorted(-c for c in coeffs2)
    if coeffs1 != coeffs2 and coeffs1 != coeffs2_neg:
        return "coefficient_multiset", None
    if len(points1) != len(points2):
        return "support_size", None
    if t1.rank > 2:
        if affine_dimension(points1) != affine_dimension(points2):
            return "hull_dimension", None
        return None, None
    if hulls is None:
        hulls = (
            newton_polytope(SupportSet(t1.rank, points1)),
            newton_polytope(SupportSet(t2.rank, points2)),
        )
    return hull_mismatch(*hulls), hulls


def compare_torsion(t1, t2, hulls=None):
    """Decide equivalence of two torsion classes, exactly in rank <= 2.

    Returns Equivalent with a verified witness, NotEquivalent with the name of
    a distinguishing invariant, or Inconclusive only in rank > 2.  A caller
    that already holds the Newton polygons of both supports (rank <= 2) may
    pass them as ``hulls`` so that they are not built again.
    """
    if t1.rank != t2.rank:
        return EquivalenceVerdict("NotEquivalent", reason="rank")
    if t1.is_zero or t2.is_zero:
        if t1.is_zero and t2.is_zero:
            return EquivalenceVerdict("Equivalent", witness=_identity_witness(t1.rank))
        return EquivalenceVerdict("NotEquivalent", reason="support_size")

    points1, points2 = t1.support_points(), t2.support_points()
    mismatch, hulls = _battery(t1, t2, points1, points2, hulls)
    if mismatch:
        return EquivalenceVerdict("NotEquivalent", reason=mismatch)
    if t1.rank > 2:
        return EquivalenceVerdict("Inconclusive")

    for U, v in iter_affine_maps(*hulls):
        sign = _match(t1, t2, U, v)
        if sign is not None:
            return EquivalenceVerdict("Equivalent", witness=Witness(U, v, sign))
    return EquivalenceVerdict(
        "NotEquivalent", reason="no hull-compatible map matches coefficients"
    )
