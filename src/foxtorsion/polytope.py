"""Supports, lattice hulls in rank <= 2 and the SFH polytope that scales them,
and unimodular-affine hull equivalence.

``hull_mismatch`` names the first hull invariant two hulls disagree on, and
``iter_affine_maps`` enumerates every unimodular affine map between two
points, segments or polygons; torsion-class equivalence builds on both.

"Side length" throughout means lattice length: the number of primitive lattice
steps along an edge.  Unlike Euclidean length it is invariant under unimodular
affine maps, which is what makes the integer side-length ratios meaningful.
"""

import math
from dataclasses import dataclass
from operator import sub

from .abelian import integer_rank
from .errors import RankUnsupported, ZeroTorsion


@dataclass(frozen=True)
class SupportSet:
    """The exponent vectors carrying nonzero coefficients."""

    rank: int
    points: frozenset


def support(t):
    """Support of a nonzero torsion class: the exponents of its representative."""
    if t.is_zero:
        raise ZeroTorsion("the zero class has empty support")
    return SupportSet(t.rank, frozenset(t.representative.terms))


def affine_dimension(points):
    """Dimension of the affine hull of a finite set of integer points."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return integer_rank([c - b for c, b in zip(p, base)] for p in pts[1:])


@dataclass(frozen=True)
class LatticePolygon:
    """A point, segment, or convex lattice polygon with primitive edge data.

    For dimension 2 the vertices are counterclockwise starting from the
    lexicographically smallest one; ``edges[i]`` is the (primitive direction,
    lattice length) of the edge from ``vertices[i]`` to the next vertex,
    closing the cycle.  A segment gets its two opposite edge records by the
    same rule, so the zero-sum edge invariant and Pick's lattice-point count
    hold in every dimension.
    """

    dimension: int
    vertices: tuple
    edges: tuple

    def edge_length_multiset(self):
        return tuple(sorted(length for _, length in self.edges))

    def doubled_area(self):
        """Twice the Euclidean area (an integer, and a unimodular invariant)."""
        if self.dimension < 2:
            return 0
        total = 0
        verts = self.vertices
        for i, (x0, y0) in enumerate(verts):
            x1, y1 = verts[(i + 1) % len(verts)]
            total += x0 * y1 - x1 * y0
        return abs(total)

    def lattice_point_count(self):
        """Number of lattice points in the hull (boundary included), via Pick:
        a point (no edges) counts 1, a segment (two edges of length L) L + 1."""
        boundary = sum(length for _, length in self.edges)
        return (self.doubled_area() + boundary + 2) // 2


def _primitive(vector):
    g = math.gcd(*vector)
    # a list builds the tuple faster than a generator, and this runs per hull edge
    return tuple([c // g for c in vector]), g


def _hull_2d(points):
    """Counterclockwise extreme points of two or more points in Z^2, from the
    lexicographically least.

    One pass keeps each column's lowest and highest point, as a point strictly
    between two others in its column is never extreme (Akl-Toussaint), and
    only the columns are sorted.  Andrew's monotone chain then runs over the
    column minima, ending at the last column's maximum, for the lower hull,
    and back over the maxima, ending at the first column's minimum, for the
    upper hull; each chain keeps only strict left turns.
    """
    columns = {}
    for x, y in points:
        ends = columns.get(x)
        if ends is None:
            columns[x] = [y, y]
        elif y < ends[0]:
            ends[0] = y
        elif y > ends[1]:
            ends[1] = y
    xs = sorted(columns)
    hull = []
    for chain in (
        [(x, columns[x][0]) for x in xs] + [(xs[-1], columns[xs[-1]][1])],
        [(x, columns[x][1]) for x in reversed(xs)] + [(xs[0], columns[xs[0]][0])],
    ):
        out = []
        for p in chain:
            px, py = p
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                out.pop()
            out.append(p)
        hull += out[:-1]
    return hull


def newton_polytope(support_set):
    """Convex hull of a support with primitive-edge annotations (rank <= 2).

    The extreme points give the dimension: one is a point, two a segment,
    more a polygon; no affine rank is computed.
    """
    rank, points = support_set.rank, support_set.points
    if not points:
        raise ZeroTorsion("empty support has no hull")
    if rank > 2:
        raise RankUnsupported(
            f"structured hulls are only computed in rank <= 2 (got rank {rank})"
        )
    if rank == 2 and len(points) > 1:
        verts = _hull_2d(points)
    else:
        verts = sorted({min(points), max(points)})
    if len(verts) == 1:
        # a zero vector has no primitive direction
        return LatticePolygon(0, (verts[0],), ())
    edges = tuple(map(_primitive, _cycle_edges(verts)))
    return LatticePolygon(min(len(verts) - 1, 2), tuple(verts), edges)


def sfh_polytope(hull):
    """The Newton hull scaled by 2 (the Chern-class scaling of the SFH polytope).

    Since hull(2S) = 2 hull(S), the vertices are doubled in their order and
    every edge keeps its primitive direction with its lattice length doubled;
    no second hull is built.
    """
    return LatticePolygon(
        hull.dimension,
        tuple(tuple(2 * c for c in v) for v in hull.vertices),
        tuple((direction, 2 * length) for direction, length in hull.edges),
    )


def _apply(U, v, point):
    return tuple(
        sum(U[i][j] * point[j] for j in range(len(point))) + v[i]
        for i in range(len(U))
    )


def _cycle_edges(vertices):
    """The vectors from each vertex of a hull to the next, closing the cycle."""
    nxt = vertices[1:] + vertices[:1]
    return [tuple(map(sub, b, a)) for a, b in zip(vertices, nxt)]


def _solve_map(e0, e1, f0, f1):
    """Integer U with U e0 = f0 and U e1 = f1, if it exists and is unimodular.

    e0 and e1 must be linearly independent.  Every caller passes two
    consecutive edges of a strict hull, never parallel, or a direction d and
    its `_completion`, with det[d c] = 1.
    """
    (p0, q0), (p1, q1) = e0, e1
    det = p0 * q1 - q0 * p1
    # U = [f0 f1] * adj([e0 e1]) / det, with columns e_i, f_i
    (r0, s0), (r1, s1) = f0, f1
    a, b = r0 * q1 - r1 * q0, r1 * p0 - r0 * p1
    c, d = s0 * q1 - s1 * q0, s1 * p0 - s0 * p1
    if a % det or b % det or c % det or d % det:
        return None
    a, b, c, d = a // det, b // det, c // det, d // det
    if abs(a * d - b * c) != 1:
        return None
    return (a, b), (c, d)


def _completion(d):
    """A vector c with det[d c] = 1, for a primitive vector d in Z^2."""
    p, q = d
    # extended gcd: old_s * p + old_t * q == old_r == +-1
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
    return (-old_t, old_s)


def _pad(point):
    return tuple(point) + (0,) * (2 - len(point))


def iter_affine_maps(p1, p2):
    """All affine maps x -> U x + v with unimodular U taking hull p1 onto p2.

    The one source of candidate maps, for points, segments and polygons of
    equal dimension.  A point maps by the identity plus a translation.  A
    segment maps by one unimodular lift per orientation: lifts differ only
    off the segment's line.  A polygon map sends vertices to vertices
    respecting cyclic adjacency, so it is pinned down by where one ordered
    vertex/edge pair goes; candidates run over the target's edges in both
    orientations.  Each candidate is checked on the full vertex sets.

    Hulls of rank < 2 are padded to Z^2 with zero coordinates and each map is
    cut back to their ranks: rank 1 gets U = ((1,),) and ((-1,),), rank 0 the
    empty map, and hulls of different ranks compare by lattice shape alone.
    Rank-2 maps, and the padded maps of lower ranks, are solved, applied to
    the vertices and checked in straight-line integer arithmetic; ``_apply``
    serves only ``equivalence``, for terms of rank < 2 and ``apply_witness``.
    """
    if p1.dimension != p2.dimension:
        return []
    source = [_pad(p) for p in p1.vertices]
    target = [_pad(q) for q in p2.vertices]
    # (U, x, y): the map sends source vertex x to target vertex y
    anchored = []
    if p1.dimension == 0:
        anchored.append((((1, 0), (0, 1)), source[0], target[0]))
    elif p1.dimension == 1:
        d1, d2 = _pad(p1.edges[0][0]), _pad(p2.edges[0][0])
        c1 = _completion(d1)
        for d, y in ((d2, target[0]), (tuple(-c for c in d2), target[1])):
            anchored.append((_solve_map(d1, c1, d, _completion(d)), source[0], y))
    else:
        f = _cycle_edges(target)
        for cycle in (source, source[::-1]):
            e = _cycle_edges(cycle)
            for j in range(len(target)):
                U = _solve_map(e[0], e[1], f[j], f[(j + 1) % len(f)])
                if U is not None:
                    anchored.append((U, cycle[0], target[j]))
    r1, r2 = len(p1.vertices[0]), len(p2.vertices[0])
    target_set = set(target)
    found = []
    seen = set()
    for U, (sx, sy), (tx, ty) in anchored:
        (a, b), (c, d) = U
        v = s, t = tx - a * sx - b * sy, ty - c * sx - d * sy
        if {(a * p + b * q + s, c * p + d * q + t) for p, q in source} != target_set:
            continue
        key = (tuple(row[:r1] for row in U[:r2]), v[:r2])
        if key not in seen:
            seen.add(key)
            found.append(key)
    return found


def hull_mismatch(p1, p2):
    """The first unimodular-affine invariant on which two hulls differ, or None.

    The invariants are checked in the order dimension, edge lattice lengths,
    area.  A lattice-point count would add nothing: by Pick's formula it is
    fixed by the area and the boundary length.
    """
    if p1.dimension != p2.dimension:
        return "hull_dimension"
    if p1.edge_length_multiset() != p2.edge_length_multiset():
        return "edge_length_multiset"
    if p1.doubled_area() != p2.doubled_area():
        return "normalized_area"
    return None


def polygon_affine_equivalent(p1, p2):
    """Whether a unimodular affine map takes one hull exactly onto the other.

    Hulls in lattices of different ranks are never equivalent: no unimodular
    map exists between Z^r and Z^s for r != s.  In one rank any two points
    are equivalent, as are any two lattice segments of equal length.
    """
    if len(p1.vertices[0]) != len(p2.vertices[0]):
        return False
    return hull_mismatch(p1, p2) is None and bool(iter_affine_maps(p1, p2))
