"""Equivalence of torsion classes under affine isomorphisms of their gradings.

Two classes are equivalent when some unimodular integer matrix plus
translation, composed with an optional global sign, carries one exactly onto
the other.  ``compare_torsion`` runs one sequence of checks, cheapest first:
rank, zero classes, the coefficient multiset read from the representatives'
term dicts, then the hull.  In rank <= 2 the hulls are the Newton polygons,
given by the caller or built once here, and ``polytope.hull_mismatch`` (which
the polygon comparison shares) names the first invariant they disagree on;
surviving pairs are settled by trying each of the finitely many
hull-compatible maps from ``polytope.iter_affine_maps``, so the decision is
exact.  In rank > 2 only the affine dimensions of the term exponents are
compared, and a pair that agrees is Inconclusive.
"""

from dataclasses import dataclass
from typing import Optional

from .abelian import LaurentPoly
from .polytope import (
    _apply,
    affine_dimension,
    hull_mismatch,
    iter_affine_maps,
    newton_polytope,
    support,
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
    the first term.  In rank 2 the scan stops at the first miss."""
    source, target = t1.representative.terms, t2.representative.terms
    if len(source) != len(target):
        return None
    if len(v) < 2:
        image = {_apply(U, v, e): k for e, k in source.items()}
        if image == target:
            return 1
        return -1 if image == {e: -k for e, k in target.items()} else None
    (a, b), (c, d) = U
    s, t = v
    get = target.get
    sign = None
    for (x, y), k in source.items():
        found = get((a * x + b * y + s, c * x + d * y + t))
        if sign is None:
            sign = 1 if found == k else -1
        if found != sign * k:
            return None
    return sign


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

    # every coefficient is nonzero, so equal multisets mean equal support sizes
    terms1, terms2 = t1.representative.terms, t2.representative.terms
    coeffs1, coeffs2 = sorted(terms1.values()), sorted(terms2.values())
    if coeffs1 != coeffs2 and coeffs1 != sorted(-c for c in coeffs2):
        return EquivalenceVerdict("NotEquivalent", reason="coefficient_multiset")
    if t1.rank > 2:
        if affine_dimension(terms1) != affine_dimension(terms2):
            return EquivalenceVerdict("NotEquivalent", reason="hull_dimension")
        return EquivalenceVerdict("Inconclusive")
    if hulls is None:
        hulls = newton_polytope(support(t1)), newton_polytope(support(t2))
    mismatch = hull_mismatch(*hulls)
    if mismatch:
        return EquivalenceVerdict("NotEquivalent", reason=mismatch)

    for U, v in iter_affine_maps(*hulls):
        sign = _match(t1, t2, U, v)
        if sign is not None:
            return EquivalenceVerdict("Equivalent", witness=Witness(U, v, sign))
    return EquivalenceVerdict(
        "NotEquivalent", reason="no hull-compatible map matches coefficients"
    )
