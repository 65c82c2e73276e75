"""Supports, lattice hulls in rank <= 2, and unimodular-affine polygon equivalence.

"Side length" throughout means lattice length: the number of primitive lattice
steps along an edge.  Unlike Euclidean length it is invariant under unimodular
affine maps, which is what makes the integer side-length ratios meaningful.
"""

import math
from dataclasses import dataclass

from .abelian import integer_rank
from .errors import RankUnsupported, ZeroTorsion


@dataclass(frozen=True)
class SupportSet:
    """The exponent vectors carrying nonzero coefficients."""

    rank: int
    points: frozenset


def support(t):
    """Support of a nonzero torsion class."""
    if t.is_zero:
        raise ZeroTorsion("the zero class has empty support")
    return SupportSet(t.rank, t.support_points())


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
    lattice length) of the edge from ``vertices[i]`` to the next vertex.
    Segments store both endpoints and the two opposite edge records, so the
    zero-sum edge invariant holds in every dimension.
    """

    dimension: int
    vertices: tuple
    edges: tuple

    @property
    def vertex_count(self):
        return len(self.vertices)

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
        """Number of lattice points in the hull (boundary included), via Pick."""
        if self.dimension == 0:
            return 1
        boundary = sum(length for _, length in self.edges)
        if self.dimension == 1:
            return boundary // 2 + 1
        return (self.doubled_area() + boundary + 2) // 2


def _primitive(vector):
    g = math.gcd(*(abs(c) for c in vector))
    return tuple(c // g for c in vector), g


def _hull_2d(points):
    """Andrew's monotone chain; returns counterclockwise extreme points."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def newton_polytope(support_set):
    """Convex hull of a support with primitive-edge annotations (rank <= 2)."""
    rank = support_set.rank
    points = [tuple(p) for p in support_set.points]
    if not points:
        raise ZeroTorsion("empty support has no hull")
    if rank > 2:
        raise RankUnsupported(
            f"structured hulls are only computed in rank <= 2 (got rank {rank})"
        )
    unique = sorted(set(points))
    if len(unique) == 1:
        return LatticePolygon(0, (unique[0],), ())
    if rank == 1:
        lo, hi = unique[0][0], unique[-1][0]
        length = hi - lo
        return LatticePolygon(
            1, ((lo,), (hi,)), (((1,), length), ((-1,), length))
        )
    if affine_dimension(unique) == 1:
        lo, hi = unique[0], unique[-1]
        direction, length = _primitive((hi[0] - lo[0], hi[1] - lo[1]))
        neg = tuple(-c for c in direction)
        return LatticePolygon(1, (lo, hi), ((direction, length), (neg, length)))
    verts = _hull_2d(unique)
    start = verts.index(min(verts))
    verts = tuple(verts[start:] + verts[:start])
    edges = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        direction, length = _primitive((w[0] - v[0], w[1] - v[1]))
        edges.append((direction, length))
    return LatticePolygon(2, verts, tuple(edges))


def sfh_polytope(t, hull=None):
    """Hull of the support with all coordinates doubled (the Chern-class scaling).

    Since hull(2S) = 2 hull(S), only the vertices of the Newton polygon are
    doubled; pass ``hull`` when the caller has already built it.
    """
    if hull is None:
        hull = newton_polytope(support(t))
    doubled = SupportSet(
        t.rank, frozenset(tuple(2 * c for c in p) for p in hull.vertices)
    )
    return newton_polytope(doubled)


def _apply(U, v, point):
    return tuple(
        sum(U[i][j] * point[j] for j in range(len(point))) + v[i]
        for i in range(len(U))
    )


def transform_polygon(polygon, U, v):
    """Hull of the image of the vertices under x -> U x + v."""
    pts = frozenset(_apply(U, v, p) for p in polygon.vertices)
    return newton_polytope(SupportSet(len(v), pts))


def _cycle_edges(vertices):
    n = len(vertices)
    return [
        (
            vertices[(i + 1) % n][0] - vertices[i][0],
            vertices[(i + 1) % n][1] - vertices[i][1],
        )
        for i in range(n)
    ]


def _solve_map(e0, e1, f0, f1):
    """Integer U with U e0 = f0 and U e1 = f1, if it exists and is unimodular."""
    det = e0[0] * e1[1] - e0[1] * e1[0]
    if det == 0:
        return None
    # U = [f0 f1] * adj([e0 e1]) / det, with columns e_i, f_i
    raw = (
        (f0[0] * e1[1] - f1[0] * e0[1], -f0[0] * e1[0] + f1[0] * e0[0]),
        (f0[1] * e1[1] - f1[1] * e0[1], -f0[1] * e1[0] + f1[1] * e0[0]),
    )
    if any(c % det for row in raw for c in row):
        return None
    U = tuple(tuple(c // det for c in row) for row in raw)
    if abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) != 1:
        return None
    return U


def iter_affine_maps(p1, p2):
    """All affine maps x -> U x + v with unimodular U taking polygon p1 onto p2.

    Any such map sends vertices to vertices respecting cyclic adjacency, so it
    is pinned down by where one ordered vertex/edge pair goes; candidates are
    enumerated over the target's edges in both orientations and verified on the
    full vertex sets.  Both polygons must have dimension 2.
    """
    if p1.dimension != 2 or p2.dimension != 2:
        raise ValueError("map enumeration needs two-dimensional polygons")
    if len(p1.vertices) != len(p2.vertices):
        return []
    target_vertices = set(p2.vertices)
    f = _cycle_edges(list(p2.vertices))
    found = []
    seen = set()
    for source in (list(p1.vertices), list(p1.vertices[::-1])):
        e = _cycle_edges(source)
        for j in range(len(p2.vertices)):
            U = _solve_map(e[0], e[1], f[j], f[(j + 1) % len(f)])
            if U is None:
                continue
            v = tuple(
                p2.vertices[j][i] - _apply(U, (0, 0), source[0])[i] for i in range(2)
            )
            if {_apply(U, v, p) for p in source} != target_vertices:
                continue
            key = (U, v)
            if key not in seen:
                seen.add(key)
                found.append(key)
    return found


def polygon_affine_equivalent(p1, p2):
    """Whether a unimodular affine map takes one hull exactly onto the other.

    Degenerate hulls are compared by dimension and then lattice length; any
    two lattice segments of equal length are equivalent, as are any two points.
    """
    if p1.dimension != p2.dimension:
        return False
    if p1.dimension == 0:
        return True
    if p1.dimension == 1:
        return p1.edges[0][1] == p2.edges[0][1]
    if (
        p1.vertex_count != p2.vertex_count
        or p1.doubled_area() != p2.doubled_area()
        or p1.edge_length_multiset() != p2.edge_length_multiset()
    ):
        return False
    return bool(iter_affine_maps(p1, p2))


def find_affine_map(p1, p2):
    """One witness map for polygon_affine_equivalent, or None."""
    if p1.dimension != 2 or p2.dimension != 2:
        return None
    maps = iter_affine_maps(p1, p2)
    return maps[0] if maps else None
