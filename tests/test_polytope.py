import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import LaurentPoly, TorsionClass, newton_polytope, sfh_polytope, support
from foxtorsion.abelian import smith_normal_form
from foxtorsion.lyon import expected_torsion
from foxtorsion.polytope import (
    SupportSet,
    affine_dimension,
    hull_mismatch,
    iter_affine_maps,
    polygon_affine_equivalent,
)
from foxtorsion.errors import RankUnsupported, ZeroTorsion

from helpers import monomial, random_laurent, random_unimodular, reference_affine_maps


def poly2(terms):
    return LaurentPoly(2, terms)


def transform_polygon(polygon, U, v):
    """Hull of the image of the vertices under x -> U x + v."""
    pts = frozenset(
        tuple(sum(U[i][j] * p[j] for j in range(len(p))) + v[i] for i in range(len(v)))
        for p in polygon.vertices
    )
    return newton_polytope(SupportSet(len(v), pts))


TAU_M1 = expected_torsion(-1, "S")  # (a + u^3)(1 + u^2 + u^4)
TAU_PM1 = expected_torsion(-1, "Sprime")  # (1 + b)(1 + x + x^2)


# -- supports -----------------------------------------------------------------


def test_support_of_minus_one_case():
    assert support(TAU_M1).points == frozenset(
        {(1, 0), (1, 2), (1, 4), (0, 3), (0, 5), (0, 7)}
    )


def test_support_of_primed_minus_one_case():
    assert support(TAU_PM1).points == frozenset(
        {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)}
    )


def test_support_of_monomial():
    assert support(TorsionClass(monomial((2, -1), 7))).points == frozenset(
        {(0, 0)}
    )


def test_support_of_zero_raises():
    with pytest.raises(ZeroTorsion):
        support(TorsionClass(LaurentPoly.zero(2)))
    with pytest.raises(ZeroTorsion):
        newton_polytope(SupportSet(2, frozenset()))


@st.composite
def point_sets(draw):
    """Integer point sets in ranks 1-4: generic ones, and ones spanned by one
    or two random directions (collinear and coplanar sets) from a base point."""
    rank = draw(st.integers(1, 4))
    coord = st.integers(-20, 20)
    vector = st.tuples(*[coord] * rank)
    count = draw(st.integers(1, 12))
    span = draw(st.integers(0, rank))
    if span == rank:
        return [draw(vector) for _ in range(count)]
    base = draw(vector)
    directions = [draw(vector) for _ in range(span)]
    small = st.integers(-5, 5)
    points = []
    for _ in range(count):
        steps = [draw(small) for _ in directions]
        points.append(
            tuple(
                base[i] + sum(s * d[i] for s, d in zip(steps, directions))
                for i in range(rank)
            )
        )
    return points


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_affine_dimension_matches_smith_normal_form(points):
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    if diffs:
        factors, _ = smith_normal_form(diffs)
        expected = sum(1 for d in factors if d)
    else:
        expected = 0
    assert affine_dimension(points) == expected
    if len(base) <= 2:
        hull = newton_polytope(SupportSet(len(base), frozenset(points)))
        assert hull.dimension == expected


# -- hulls --------------------------------------------------------------------


def _reference_hull(rank, points):
    """(dimension, vertices, edges) of a point set in rank <= 2, from the
    all-points monotone chain over every sorted point and a brute-force
    collinearity test, independent of ``newton_polytope``."""
    unique = sorted(set(points))
    if len(unique) == 1:
        return 0, (unique[0],), ()
    lo, hi = unique[0], unique[-1]
    dimension = 1
    if rank == 1 or all(
        (hi[0] - lo[0]) * (p[1] - lo[1]) == (hi[1] - lo[1]) * (p[0] - lo[0])
        for p in unique
    ):
        vertices = (lo, hi)
    else:
        dimension = 2

        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        def half(seq):
            out = []
            for p in seq:
                while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                    out.pop()
                out.append(p)
            return out

        vertices = tuple(half(unique)[:-1] + half(unique[::-1])[:-1])
    edges = []
    for i, v in enumerate(vertices):
        step = [b - a for a, b in zip(v, vertices[(i + 1) % len(vertices)])]
        g = math.gcd(*(abs(c) for c in step))
        edges.append((tuple(c // g for c in step), g))
    return dimension, vertices, tuple(edges)


@st.composite
def hull_inputs(draw):
    """Rank 1-2 point sets with negative coordinates: generic sets in a small
    box, so that columns hold many points; single columns and single rows;
    sets on one random line; and a few columns that are tall."""
    rank = draw(st.integers(1, 2))
    coord = st.integers(-6, 6)
    count = draw(st.integers(1, 30))
    if rank == 1:
        return 1, [(draw(st.integers(-40, 40)),) for _ in range(count)]
    shape = draw(st.sampled_from(("box", "column", "row", "line", "few_columns")))
    if shape == "box":
        return 2, [(draw(coord), draw(coord)) for _ in range(count)]
    if shape in ("column", "row"):
        fixed = draw(coord)
        cells = [(fixed, draw(st.integers(-40, 40))) for _ in range(count)]
        return 2, cells if shape == "column" else [(y, x) for x, y in cells]
    if shape == "line":
        base = (draw(coord), draw(coord))
        d = (draw(coord), draw(coord))
        steps = [draw(st.integers(-5, 5)) for _ in range(count)]
        return 2, [(base[0] + t * d[0], base[1] + t * d[1]) for t in steps]
    xs = draw(st.lists(coord, min_size=1, max_size=3))
    return 2, [(draw(st.sampled_from(xs)), draw(st.integers(-40, 40))) for _ in range(count)]


@settings(max_examples=500, deadline=None)
@given(hull_inputs())
def test_hull_matches_the_all_points_chain(case):
    rank, points = case
    hull = newton_polytope(SupportSet(rank, frozenset(points)))
    dimension, vertices, edges = _reference_hull(rank, points)
    assert hull.dimension == dimension
    assert hull.vertices == vertices
    assert hull.edges == edges


def test_hull_keeps_the_ends_of_the_first_and_last_columns():
    points = {(0, 0), (0, 1), (0, 3), (2, -1), (2, 4), (2, 2), (1, 5), (1, -2)}
    hull = newton_polytope(SupportSet(2, frozenset(points)))
    assert hull.vertices == ((0, 0), (1, -2), (2, -1), (2, 4), (1, 5), (0, 3))
    column = newton_polytope(SupportSet(2, frozenset({(4, -1), (4, 2), (4, 0)})))
    assert column.vertices == ((4, -1), (4, 2))


def test_parallelogram_hulls_at_minus_one():
    hull = newton_polytope(support(TAU_M1))
    assert hull.dimension == 2
    assert hull.edge_length_multiset() == (1, 1, 4, 4)
    hull_primed = newton_polytope(support(TAU_PM1))
    assert hull_primed.edge_length_multiset() == (1, 1, 2, 2)


def test_point_hull():
    hull = newton_polytope(SupportSet(2, frozenset({(3, 5)})))
    assert hull.dimension == 0
    assert hull.vertices == ((3, 5),)
    assert hull.lattice_point_count() == 1


def test_segment_hull():
    hull = newton_polytope(SupportSet(2, frozenset({(0, 0), (2, 4), (1, 2)})))
    assert hull.dimension == 1
    assert hull.vertices == ((0, 0), (2, 4))
    assert hull.edges[0] == ((1, 2), 2)
    assert hull.lattice_point_count() == 3


def test_rank_one_hull():
    hull = newton_polytope(SupportSet(1, frozenset({(-1,), (3,)})))
    assert hull.dimension == 1
    assert hull.edge_length_multiset() == (4, 4)


@st.composite
def supports_up_to_rank_two(draw):
    """Supports in ranks 0-2 with coordinates in [-4, 4], except that a third
    of the rank-2 draws are base + t * step on one line, with base, step and
    t in [-4, 4]; so points and segments are common in every rank."""
    rank = draw(st.integers(0, 2))
    vector = st.tuples(*[st.integers(-4, 4)] * rank)
    count = draw(st.integers(1, 12))
    if rank == 2 and draw(st.integers(0, 2)) == 0:
        base, step = draw(vector), draw(vector)
        ts = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
        return 2, [(base[0] + t * step[0], base[1] + t * step[1]) for t in ts]
    return rank, [draw(vector) for _ in range(count)]


def _lattice_points_in_hull(rank, points):
    """Lattice points of the hull, enumerated over the bounding box: inside a
    polygon means on the left of or on every counterclockwise edge of
    ``_reference_hull``; on a segment, collinear with its ends."""
    if rank == 0:
        return 1
    if rank == 1:
        return max(points)[0] - min(points)[0] + 1
    dimension, vertices, _ = _reference_hull(rank, points)
    if dimension == 0:
        return 1
    box = [range(min(c), max(c) + 1) for c in zip(*points)]
    sides = list(zip(vertices, vertices[1:] + vertices[:1]))
    return sum(
        all(
            (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= 0
            for a, b in sides
        )
        for x in box[0]
        for y in box[1]
    )


@settings(max_examples=400, deadline=None)
@given(supports_up_to_rank_two())
def test_lattice_point_count_matches_enumeration(case):
    rank, points = case
    hull = newton_polytope(SupportSet(rank, frozenset(points)))
    assert hull.lattice_point_count() == _lattice_points_in_hull(rank, points)


def test_hexagon_slopes_and_lengths():
    # plotted with the second variable horizontal: slopes -2/3, -1/6, 0 with
    # lattice lengths 1, 1, 4 at family parameter 1
    hull = newton_polytope(support(expected_torsion(1, "S")))
    assert hull.dimension == 2
    assert len(hull.edges) == 6
    described = set()
    for direction, length in hull.edges:
        da, du = direction
        slope = Fraction(da, du) if du else None
        described.add((slope, length))
    assert described == {
        (Fraction(0), 4),
        (Fraction(-2, 3), 1),
        (Fraction(-1, 6), 1),
    }


def test_rank_three_hull_unsupported():
    with pytest.raises(RankUnsupported):
        newton_polytope(SupportSet(3, frozenset({(0, 0, 0), (1, 0, 0)})))


def test_edge_vectors_close_up():
    rng = random.Random(67)
    for _ in range(50):
        p = random_laurent(rng, nonzero=True)
        hull = newton_polytope(support(TorsionClass(p)))
        total = [0, 0] if p.rank == 2 else [0]
        for direction, length in hull.edges:
            for i, d in enumerate(direction):
                total[i] += d * length
        assert not any(total)


# -- affine equivalence -------------------------------------------------------


def test_lyon_parallelograms_not_equivalent():
    h1 = newton_polytope(support(TAU_M1))
    h2 = newton_polytope(support(TAU_PM1))
    assert polygon_affine_equivalent(h1, h2) is False


def test_square_vs_triangle():
    square = newton_polytope(
        SupportSet(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    )
    triangle = newton_polytope(SupportSet(2, frozenset({(0, 0), (1, 0), (0, 1)})))
    assert polygon_affine_equivalent(square, triangle) is False


def test_hulls_that_differ_only_in_area():
    # every edge of both is primitive, but the doubled areas are 2 and 4
    square = newton_polytope(SupportSet(2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})))
    slanted = newton_polytope(SupportSet(2, frozenset({(0, 0), (1, 0), (1, 2), (2, 2)})))
    assert hull_mismatch(square, slanted) == "normalized_area"


def test_hulls_in_different_ranks_are_not_equivalent():
    def hull(rank, points):
        return newton_polytope(SupportSet(rank, frozenset(points)))

    points = [hull(0, {()}), hull(1, {(3,)}), hull(2, {(1, -1)})]
    segments = [hull(1, {(0,), (2,)}), hull(2, {(0, 0), (2, 0)})]
    for group in (points, segments):
        for h1 in group:
            for h2 in group:
                assert polygon_affine_equivalent(h1, h2) is (h1 is h2)
    assert polygon_affine_equivalent(points[2], hull(2, {(5, 7)}))
    assert polygon_affine_equivalent(segments[0], hull(1, {(-4,), (-2,)}))


def test_transformed_polygon_is_equivalent():
    rng = random.Random(71)
    for _ in range(100):
        p = random_laurent(rng, nonzero=True)
        hull = newton_polytope(support(TorsionClass(p)))
        U = random_unimodular(rng)
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        moved = transform_polygon(hull, U, v)
        assert polygon_affine_equivalent(hull, moved)
        assert polygon_affine_equivalent(moved, hull)
        assert polygon_affine_equivalent(hull, hull)


def test_unimodular_invariants_preserved():
    rng = random.Random(73)
    for _ in range(100):
        p = random_laurent(rng, nonzero=True)
        hull = newton_polytope(support(TorsionClass(p)))
        U = random_unimodular(rng)
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        moved = transform_polygon(hull, U, v)
        assert moved.dimension == hull.dimension
        assert len(moved.vertices) == len(hull.vertices)
        assert moved.doubled_area() == hull.doubled_area()
        assert moved.edge_length_multiset() == hull.edge_length_multiset()
        assert moved.lattice_point_count() == hull.lattice_point_count()


def test_decision_consistent_with_invariants():
    rng = random.Random(79)
    for _ in range(60):
        h1 = newton_polytope(support(TorsionClass(random_laurent(rng, nonzero=True))))
        h2 = newton_polytope(support(TorsionClass(random_laurent(rng, nonzero=True))))
        if (
            h1.dimension != h2.dimension
            or len(h1.vertices) != len(h2.vertices)
            or h1.doubled_area() != h2.doubled_area()
            or h1.edge_length_multiset() != h2.edge_length_multiset()
            or h1.lattice_point_count() != h2.lattice_point_count()
        ):
            assert polygon_affine_equivalent(h1, h2) is False


def _random_hull(rng, rank):
    """A point, segment or polygon hull in the given rank."""
    shape = rng.randrange(3 if rank == 2 else 2)
    if shape == 0:
        points = {tuple(rng.randint(-3, 3) for _ in range(rank))}
    elif shape == 1:
        d = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (3, -2)])[:rank]
        points = {tuple(t * c for c in d) for t in range(rng.randint(1, 4))}
        points.add((0,) * rank)
    else:
        points = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 7))}
    return newton_polytope(SupportSet(rank, frozenset(points)))


def test_maps_carry_vertices_and_decide_equivalence():
    rng = random.Random(211)
    nonempty = 0
    for _ in range(300):
        rank = rng.choice((1, 2))
        h1 = _random_hull(rng, rank)
        if rng.random() < 0.5:
            U = random_unimodular(rng) if rank == 2 else ((rng.choice((1, -1)),),)
            v = tuple(rng.randint(-4, 4) for _ in range(rank))
            h2 = transform_polygon(h1, U, v)
        else:
            h2 = _random_hull(rng, rank)
        maps = iter_affine_maps(h1, h2)
        nonempty += bool(maps)
        for U, v in maps:
            image = {
                tuple(sum(U[i][j] * p[j] for j in range(rank)) + v[i] for i in range(rank))
                for p in h1.vertices
            }
            assert image == set(h2.vertices)
            assert abs(U[0][0] * U[1][1] - U[0][1] * U[1][0] if rank == 2 else U[0][0]) == 1
        assert polygon_affine_equivalent(h1, h2) == (
            hull_mismatch(h1, h2) is None and bool(maps)
        )
    assert nonempty > 100


@st.composite
def hull_pairs(draw):
    """Two point sets of ranks 0-2, each as (rank, points): a set against
    itself, against its image under a random unimodular map plus a
    translation, or against an unrelated set of any of those ranks.  Half the
    sets lie on one line, so segments are common in rank 2."""

    def points(rank):
        vector = st.tuples(*[st.integers(-6, 6)] * rank)
        count = draw(st.integers(1, 12))
        if draw(st.booleans()):
            return [draw(vector) for _ in range(count)]
        base, step = draw(vector), draw(vector)
        ts = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
        return [tuple(b + t * c for b, c in zip(base, step)) for t in ts]

    rank = draw(st.integers(0, 2))
    first = points(rank)
    kind = draw(st.sampled_from(("self", "image", "other")))
    if kind == "other":
        other = draw(st.integers(0, 2))
        return kind, (rank, first), (other, points(other))
    if kind == "self":
        return kind, (rank, first), (rank, first)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    U = random_unimodular(rng) if rank == 2 else ((rng.choice((1, -1)),),)[:rank]
    v = [draw(st.integers(-9, 9)) for _ in range(rank)]
    image = [
        tuple(sum(U[i][j] * p[j] for j in range(rank)) + v[i] for i in range(rank))
        for p in first
    ]
    return kind, (rank, first), (rank, image)


@settings(max_examples=400, deadline=None)
@given(hull_pairs())
def test_affine_maps_equal_the_reference_in_order(case):
    """The straight-line enumerator gives the reference's maps in its order,
    on hulls whose edges match the all-points reference."""
    kind, *sets = case
    hulls = []
    for rank, points in sets:
        hull = newton_polytope(SupportSet(rank, frozenset(points)))
        assert (hull.dimension, hull.vertices, hull.edges) == _reference_hull(
            rank, points
        )
        hulls.append(hull)
    maps = iter_affine_maps(*hulls)
    assert maps == reference_affine_maps(*hulls)
    assert maps or kind == "other"


# -- doubling -----------------------------------------------------------------


def test_sfh_polytope_doubles():
    base = newton_polytope(support(TAU_M1))
    doubled = sfh_polytope(base)
    assert doubled.edge_length_multiset() == (2, 2, 8, 8)
    assert doubled.doubled_area() == 4 * base.doubled_area()


def test_sfh_polytope_of_primed_case():
    doubled = sfh_polytope(newton_polytope(support(TAU_PM1)))
    assert doubled.edge_length_multiset() == (2, 2, 4, 4)


def test_sfh_polytope_of_monomial_is_point():
    t = TorsionClass(monomial((1, 1)))
    assert sfh_polytope(newton_polytope(support(t))).dimension == 0


def test_sfh_polytope_equals_hull_of_doubled_support():
    """The scaled hull against the hull of the doubled support, in every
    dimension branch: points, segments and polygons, in ranks 0, 1 and 2."""
    rng = random.Random(89)
    dimensions = set()
    for rank in (0, 1, 2):
        for _ in range(100):
            t = TorsionClass(random_laurent(rng, rank=rank, nonzero=True, max_terms=9))
            points = support(t).points
            doubled = SupportSet(
                rank, frozenset(tuple(2 * c for c in p) for p in points)
            )
            reference = newton_polytope(doubled)
            assert sfh_polytope(newton_polytope(support(t))) == reference
            dimensions.add((rank, reference.dimension))
    assert dimensions == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_doubling_preserves_length_ratios():
    rng = random.Random(83)
    for _ in range(50):
        t = TorsionClass(random_laurent(rng, nonzero=True))
        hull = newton_polytope(support(t))
        doubled = sfh_polytope(hull)
        assert doubled.edge_length_multiset() == tuple(
            2 * length for length in hull.edge_length_multiset()
        )


# -- the family's hexagon pattern ---------------------------------------------


def test_family_edge_length_multisets():
    for n in range(1, 6):
        hull = newton_polytope(support(expected_torsion(n, "S")))
        assert hull.edge_length_multiset() == tuple(sorted((n, 1, 4, n, 1, 4)))
        hull_primed = newton_polytope(support(expected_torsion(n, "Sprime")))
        assert hull_primed.edge_length_multiset() == tuple(sorted((n, 1, 2, n, 1, 2)))
