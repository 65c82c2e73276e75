"""Equivalence of torsion classes under affine isomorphisms of their gradings.

Two classes are equivalent when some unimodular integer matrix plus
translation, composed with an optional global sign, carries one exactly onto
the other.  In rank <= 2 the decision is exact: a cheap battery of affine
invariants rejects most pairs, and surviving pairs are settled by enumerating
the finitely many hull-compatible maps.  Higher ranks report Inconclusive
when the battery passes.
"""

from dataclasses import dataclass
from typing import Optional

from .abelian import LaurentPoly
from .polytope import (
    SupportSet,
    affine_dimension,
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


def _apply_terms(terms, U, v, sign):
    out = {}
    r = len(v)
    for exps, coeff in terms.items():
        key = tuple(
            sum(U[i][j] * exps[j] for j in range(len(exps))) + v[i] for i in range(r)
        )
        out[key] = sign * coeff
    return out


def apply_witness(t, witness):
    """The first class's representative pushed through a witness map (exact)."""
    return LaurentPoly(
        len(witness.translation),
        _apply_terms(t.representative.terms, witness.matrix, witness.translation, witness.sign),
    )


def _match(t1, t2, U, v):
    """Sign making the mapped representative equal the target, or None."""
    image = _apply_terms(t1.representative.terms, U, v, 1)
    if image == t2.representative.terms:
        return 1
    if {k: -c for k, c in image.items()} == t2.representative.terms:
        return -1
    return None


def _primitive_completion(d):
    """A unimodular 2x2 matrix whose first column is the primitive vector d."""
    p, q = d
    # extended gcd: alpha*p + beta*q == 1
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return ((p, -old_t), (q, old_s))


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat_inv_unimodular(A):
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    return tuple(
        tuple(x // det for x in row)
        for row in ((A[1][1], -A[0][1]), (-A[1][0], A[0][0]))
    )


def _direction_map(d1, d2):
    """Some unimodular U with U d1 = d2, for primitive d1, d2."""
    W1 = _primitive_completion(d1)
    W2 = _primitive_completion(d2)
    return _mat_mul(W2, _mat_inv_unimodular(W1))


def _line_candidates(t1, t2, hull1, hull2):
    """Anchored maps between two rank-2 classes with collinear supports.

    The supports live on lattice lines, so any equivalence restricts to
    t -> t + c or t -> -t + c on the line parameter; one unimodular lift per
    orientation suffices because line stabilizers act trivially on the support.
    """
    p0, d1 = hull1.vertices[0], hull1.edges[0][0]
    q0, d2 = hull2.vertices[0], hull2.edges[0][0]
    if hull1.edges[0][1] != hull2.edges[0][1]:
        return []
    length = hull2.edges[0][1]
    forward = _direction_map(d1, d2)
    backward = _direction_map(d1, tuple(-c for c in d2))
    v_fwd = tuple(
        q0[i] - sum(forward[i][j] * p0[j] for j in range(2)) for i in range(2)
    )
    end = tuple(q0[i] + length * d2[i] for i in range(2))
    v_bwd = tuple(
        end[i] - sum(backward[i][j] * p0[j] for j in range(2)) for i in range(2)
    )
    return [(forward, v_fwd), (backward, v_bwd)]


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
    h1, h2 = hulls
    if h1.dimension != h2.dimension:
        return "hull_dimension", hulls
    if h1.edge_length_multiset() != h2.edge_length_multiset():
        return "edge_length_multiset", hulls
    if h1.doubled_area() != h2.doubled_area():
        return "normalized_area", hulls
    if h1.lattice_point_count() != h2.lattice_point_count():
        return "hull_lattice_points", hulls
    return None, hulls


def compare_torsion(t1, t2, hulls=None):
    """Decide equivalence of two torsion classes, exactly in rank <= 2.

    Returns Equivalent with a verified witness, NotEquivalent with the name of
    a distinguishing invariant, or Inconclusive only in rank > 2.  A caller
    that already holds the Newton polygons of both supports (rank <= 2) may
    pass them as ``hulls`` so that they are not built again.
    """
    if t1.rank != t2.rank:
        return EquivalenceVerdict("NotEquivalent", reason="rank")
    rank = t1.rank
    if t1.is_zero or t2.is_zero:
        if t1.is_zero and t2.is_zero:
            return EquivalenceVerdict("Equivalent", witness=_identity_witness(rank))
        return EquivalenceVerdict("NotEquivalent", reason="support_size")

    points1, points2 = t1.support_points(), t2.support_points()
    mismatch, hulls = _battery(t1, t2, points1, points2, hulls)
    if mismatch:
        return EquivalenceVerdict("NotEquivalent", reason=mismatch)

    if rank == 0:
        # normalized constants are positive, so the battery already matched them
        return EquivalenceVerdict("Equivalent", witness=_identity_witness(0))

    if rank == 1:
        top = max(e[0] for e in points1)
        candidates = [(((1,),), (0,)), (((-1,),), (top,))]
    elif rank == 2:
        hull1, hull2 = hulls
        if hull1.dimension == 0:
            candidates = [(_identity_witness(2).matrix, (0, 0))]
        elif hull1.dimension == 1:
            candidates = _line_candidates(t1, t2, hull1, hull2)
        else:
            candidates = iter_affine_maps(hull1, hull2)
    else:
        return EquivalenceVerdict("Inconclusive")

    for U, v in candidates:
        sign = _match(t1, t2, U, v)
        if sign is not None:
            return EquivalenceVerdict("Equivalent", witness=Witness(U, v, sign))
    return EquivalenceVerdict(
        "NotEquivalent", reason="no hull-compatible map matches coefficients"
    )
