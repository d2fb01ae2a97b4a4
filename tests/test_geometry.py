import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyrefine import geometry
from polyrefine.geometry import (
    Polygon,
    PolygonError,
    area,
    area_centroid,
    centroid,
    corner_count,
    diameter,
    distance_to_boundary,
    edge_lengths,
    edge_midpoints,
    geom_tol,
    inscribed_radius,
    interior_angles,
    regular_polygon,
    segment_orientations,
    segments_straddle,
    points_strictly_inside,
)
from conftest import contains_many, is_convex, random_star_polygon, with_aligned_vertex


def perimeter(p: Polygon) -> float:
    return float(edge_lengths(p.coords).sum())


SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])
SPLIT_SQUARE = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
EQUILATERAL = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def test_polygon_validation():
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (1, 0)])
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])  # bowtie
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (1, 0), (2, 0)])  # zero area
    with pytest.raises(PolygonError):
        Polygon([(0, 0), (np.nan, 0), (0, 1)])
    # input that is not shaped (n, 2)
    with pytest.raises(PolygonError, match=r"\(n, 2\)"):
        Polygon([(0, 0, 9), (1, 0, 9), (0, 1, 9)])
    with pytest.raises(PolygonError, match=r"\(n, 2\)"):
        Polygon([(0,), (1,), (2,)])
    with pytest.raises(PolygonError, match=r"\(n, 2\)"):
        Polygon([(0, 0), (1, 0), (0,)])  # ragged


def test_cw_input_reversed():
    p = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    assert area(p) == pytest.approx(1.0)  # signed area positive after reversal
    assert set(map(tuple, p.coords.tolist())) == {(0, 0), (0, 1), (1, 1), (1, 0)}


def test_trusted_wraps_a_read_only_copy(rng):
    c = random_star_polygon(rng).coords.copy()  # counter-clockwise
    t = Polygon.trusted(c)
    assert np.array_equal(t.coords, Polygon(c).coords)
    assert t.coords.dtype == np.float64
    assert not t.coords.flags.writeable
    assert not np.shares_memory(t.coords, c)


def test_centroid_is_vertex_average():
    assert centroid(SQUARE) == pytest.approx((0.5, 0.5))
    assert centroid(TRIANGLE) == pytest.approx((1 / 3, 1 / 3))
    # aligned vertex shifts the vertex average (not the area centroid)
    assert centroid(SPLIT_SQUARE) == pytest.approx((0.5, 0.4))
    assert area_centroid(SPLIT_SQUARE) == pytest.approx((0.5, 0.5))


def test_area_perimeter_diameter():
    assert area(SQUARE) == pytest.approx(1.0)
    assert area(TRIANGLE) == pytest.approx(0.5)
    hexagon = Polygon(
        [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    )
    assert area(hexagon) == pytest.approx(3 * math.sqrt(3) / 2)
    assert perimeter(SQUARE) == pytest.approx(4.0)
    assert perimeter(TRIANGLE) == pytest.approx(2 + math.sqrt(2))
    assert perimeter(SPLIT_SQUARE) == pytest.approx(4.0)
    assert diameter(SQUARE) == pytest.approx(math.sqrt(2))
    thin = Polygon([(0, 0), (1, 0), (1, 0.01), (0, 0.01)])
    assert diameter(thin) == pytest.approx(math.sqrt(1 + 0.0001))
    assert diameter(EQUILATERAL) == pytest.approx(1.0)


def test_edge_midpoints():
    assert edge_midpoints(SQUARE).tolist() == [
        [0.5, 0.0],
        [1.0, 0.5],
        [0.5, 1.0],
        [0.0, 0.5],
    ]
    assert edge_midpoints(TRIANGLE).tolist() == [[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]]
    mids = edge_midpoints(SPLIT_SQUARE).tolist()
    assert len(mids) == 5
    assert [0.25, 0.0] in mids and [0.75, 0.0] in mids


def test_contains():
    # the last square point lies on the boundary, which counts as inside
    got = contains_many(SQUARE, [(0.5, 0.5), (1.5, 0.5), (1.0, 0.5)], geom_tol(SQUARE))
    assert got.tolist() == [True, False, True]
    assert contains_many(L_SHAPE, [(1.5, 1.5), (0.5, 0.5)], geom_tol(L_SHAPE)).tolist() == [False, True]


def _strictly_inside_reference(p, q, margin):
    """The two-call form: distance, then containment."""
    pt = np.asarray([[q[0], q[1]]], dtype=float)
    return bool(distance_to_boundary(p, pt)[0] > margin and contains_many(p, pt, tol=0.0)[0])


def test_strictly_inside_matches_the_two_call_form(rng):
    """`points_strictly_inside` of all points of a polygon at once. Points
    on, near and off the boundary, among them vertices, edge points, points a
    fraction or a multiple of the tolerance away along the edge normal, and
    far points; margins 0, the tolerance, three times it and negative."""
    polys = [SQUARE, SPLIT_SQUARE, L_SHAPE] + [random_star_polygon(rng) for _ in range(10)]
    for p in polys:
        tol = geom_tol(p)
        a, b = p.coords, np.roll(p.coords, -1, axis=0)
        normal = (b - a)[:, ::-1] * (1.0, -1.0) / np.hypot(*(b - a).T)[:, None]  # outward for CCW
        pts = [a, 0.5 * (a + b), 0.3 * a + 0.7 * b, p.coords.mean(axis=0)[None], p.coords.min(axis=0)[None] - 1.0]
        pts += [0.5 * (a + b) + s * tol * normal for s in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
        pts += [rng.uniform(p.coords.min(axis=0) - 0.1, p.coords.max(axis=0) + 0.1, size=(20, 2))]
        pts = np.concatenate(pts)
        for margin in (0.0, tol, 3.0 * tol, -1.0):
            want = [_strictly_inside_reference(p, q, margin) for q in pts]
            assert points_strictly_inside(p.coords, pts, margin).tolist() == want, margin


def test_is_convex():
    assert is_convex(SPLIT_SQUARE)  # aligned vertex does not break convexity
    assert not is_convex(L_SHAPE)
    pentagon = Polygon(
        [(math.cos(k * 2 * math.pi / 5), math.sin(k * 2 * math.pi / 5)) for k in range(5)]
    )
    assert is_convex(pentagon)


def test_min_inner_angle():
    assert interior_angles(SQUARE.coords).min() == pytest.approx(math.pi / 2)
    assert interior_angles(EQUILATERAL.coords).min() == pytest.approx(math.pi / 3)
    # the aligned vertex counts as a valid (straight) inner angle of pi,
    # while the minimum over all stored vertices stays at the corner value
    angles = interior_angles(SPLIT_SQUARE.coords)
    assert sorted(angles)[-1] == pytest.approx(math.pi)
    assert angles.min() == pytest.approx(math.pi / 2)
    angles = interior_angles(L_SHAPE.coords)
    assert max(angles) == pytest.approx(1.5 * math.pi)  # reflex corner


def test_corner_count():
    assert corner_count(SQUARE) == 4
    assert corner_count(SPLIT_SQUARE) == 4
    assert corner_count(L_SHAPE) == 6


def test_inscribed_radius():
    assert inscribed_radius(SQUARE) == pytest.approx(0.5, rel=1e-12)
    assert inscribed_radius(EQUILATERAL) == pytest.approx(1 / (2 * math.sqrt(3)), rel=1e-12)
    rect = Polygon([(0, 0), (1, 0), (1, 0.2), (0, 0.2)])
    assert inscribed_radius(rect) == pytest.approx(0.1, rel=1e-12)
    # centre on the diagonal, touching both outer edges and the reflex vertex
    assert inscribed_radius(L_SHAPE) == pytest.approx(2 - math.sqrt(2), rel=1e-12)
    # 41,664 line triples, scored in several chunks
    assert inscribed_radius(regular_polygon(64)) == pytest.approx(math.cos(math.pi / 64), rel=1e-12)


def _grid_oracle(p: Polygon, res: int = 200) -> tuple[float, float]:
    """Largest boundary distance over an interior grid (a lower bound on the
    inscribed radius) and the grid's diagonal step."""
    lo, hi = p.coords.min(axis=0), p.coords.max(axis=0)
    gx = lo[0] + (np.arange(res) + 0.5) * (hi[0] - lo[0]) / res
    gy = lo[1] + (np.arange(res) + 0.5) * (hi[1] - lo[1]) / res
    pts = np.column_stack([np.repeat(gx, res), np.tile(gy, res)])
    inside = contains_many(p, pts, tol=0.0)
    return float(distance_to_boundary(p, pts[inside]).max()), float(np.hypot(*(hi - lo))) / res


def test_inscribed_radius_properties(rng):
    long_rect = Polygon([(0, 0), (10, 0), (10, 1), (0, 1)])  # the maximum is a ridge
    polys = [long_rect] + [random_star_polygon(rng, reflex=k % 2 == 0) for k in range(199)]
    assert sum(not is_convex(p) for p in polys) >= 50
    assert inscribed_radius(long_rect) == pytest.approx(0.5, rel=1e-12)
    for p in polys:
        r = inscribed_radius(p)
        best, step = _grid_oracle(p)
        assert best - 1e-12 <= r <= best + step, (best, r, step)
        q = with_aligned_vertex(p, edge=int(rng.integers(0, p.n)), t=float(rng.uniform(0.2, 0.8)))
        assert inscribed_radius(q) == pytest.approx(r, rel=1e-9)
        for shift in (1e3, 1e6):
            assert inscribed_radius(Polygon(p.coords + shift)) == pytest.approx(r, rel=1e-9)
        for scale in (1e-6, 1e6):
            assert inscribed_radius(Polygon(p.coords * scale)) == pytest.approx(scale * r, rel=1e-9)


def test_rigid_motion_invariance(rng):
    for _ in range(25):
        p = random_star_polygon(rng)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        q = Polygon(p.coords @ rot.T + rng.uniform(-5, 5, size=2))
        assert area(q) == pytest.approx(area(p), rel=1e-12)
        assert perimeter(q) == pytest.approx(perimeter(p), rel=1e-12)
        assert diameter(q) == pytest.approx(diameter(p), rel=1e-12)


def test_scaling_laws(rng):
    for _ in range(25):
        p = random_star_polygon(rng)
        s = rng.uniform(0.2, 8.0)
        q = Polygon(p.coords * s)
        assert area(q) == pytest.approx(s * s * area(p), rel=1e-12)
        assert perimeter(q) == pytest.approx(s * perimeter(p), rel=1e-12)
        assert diameter(q) == pytest.approx(s * diameter(p), rel=1e-12)


def test_convex_polygon_contains_centroid(rng):
    for _ in range(25):
        p = random_star_polygon(rng, reflex=False)
        if is_convex(p):
            assert contains_many(p, centroid(p), geom_tol(p)).all()


def test_aligned_vertex_preserves_measures(rng):
    for _ in range(25):
        p = random_star_polygon(rng)
        q = with_aligned_vertex(p, edge=int(rng.integers(0, p.n)), t=float(rng.uniform(0.2, 0.8)))
        assert area(q) == pytest.approx(area(p), rel=1e-12)
        assert perimeter(q) == pytest.approx(perimeter(p), rel=1e-12)
        assert diameter(q) == pytest.approx(diameter(p), rel=1e-12)


# ---------------------------------------------------------------------------
# the segment-crossing predicate against exact arithmetic
# ---------------------------------------------------------------------------

_POINT = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
_EXACT = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _exact_meet(p1, p2, p3, p4, proper: bool) -> bool:
    """Whether closed segments (p1, p2) and (p3, p4) share a point, solved in
    rationals; proper=True asks for one crossing interior to both."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = [
        (Fraction(x), Fraction(y)) for x, y in (p1, p2, p3, p4)
    ]
    ux, uy, vx, vy, wx, wy = x2 - x1, y2 - y1, x4 - x3, y4 - y3, x3 - x1, y3 - y1
    den = ux * vy - uy * vx
    if den != 0:  # one intersection point of the lines, at p1 + t u = p3 + s v
        t, s = (wx * vy - wy * vx) / den, (wx * uy - wy * ux) / den
        if proper:
            return 0 < t < 1 and 0 < s < 1
        return 0 <= t <= 1 and 0 <= s <= 1
    if proper or wx * uy - wy * ux != 0:
        return False  # parallel lines
    # one line: overlap of the parameter intervals along (p1, p2)
    uu = ux * ux + uy * uy
    s3 = (wx * ux + wy * uy) / uu
    s4 = ((x4 - x1) * ux + (y4 - y1) * uy) / uu
    return max(min(s3, s4), 0) <= min(max(s3, s4), 1)


@_EXACT
@given(_POINT, _POINT, _POINT, _POINT)
@example((0, 0), (2, 0), (1, 0), (3, 0))  # collinear overlap
@example((0, 0), (1, 1), (1, 1), (2, 0))  # shared endpoint
@example((0, 0), (2, 0), (1, 0), (1, 1))  # T-junction
@example((0, 0), (2, 2), (0, 2), (2, 0))  # proper crossing
def test_crossing_predicate_is_exact_on_small_integers(p1, p2, p3, p4):
    # products of coordinates below 2**53 are exact, so the float
    # orientations must equal the rational ones
    assume(p1 != p2 and p3 != p4)
    pts = [tuple(map(float, q)) for q in (p1, p2, p3, p4)]
    d = segment_orientations(*pts)
    assert d == segment_orientations(*[tuple(map(Fraction, q)) for q in (p1, p2, p3, p4)])
    assert segments_straddle(d, 1e-13) == _exact_meet(p1, p2, p3, p4, proper=True)


@_EXACT
@given(st.lists(_POINT, min_size=3, max_size=7))
@example([(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)])  # T-junction: a vertex on an edge
@example([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)])  # a vertex visited twice
@example([(0, 0), (4, 0), (4, 2), (3, 0), (1, 0), (0, 2)])  # collinear overlap
@example([(0, 0), (2, 0), (2, 2), (0, 2)])  # simple
def test_is_simple_is_exact_on_small_integers(pts):
    n = len(pts)
    assume(all(pts[i] != pts[(i + 1) % n] for i in range(n)))
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    meet = any(
        _exact_meet(*edges[i], *edges[j], proper=False)
        for i in range(n)
        for j in range(i + 2, n - 1 if i == 0 else n)  # skip adjacent edges
    )
    assert geometry._is_simple(np.array(pts, dtype=float)) == (not meet)


def _compensated_sum(xs):
    """Neumaier's compensated float sum, as the built-in `sum` adds floats
    from Python 3.12 on."""
    s = c = 0.0
    for x in xs:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


def test_touch_eps_adds_the_mean_up_in_order(rng):
    # loops far from the origin, where a compensated sum of the coordinates
    # rounds apart from an in-order one
    apart = 0
    for _ in range(400):
        n = int(rng.integers(3, 40))
        c = rng.normal(size=(n, 2)) + rng.uniform(-1e6, 1e6, size=2)
        s = float(np.max(np.abs(c - c.mean(axis=0)))) + 1e-300
        assert geometry._touch_eps(c.tolist()) == 1e-13 * s * s
        m = np.array([_compensated_sum(c[:, 0].tolist()), _compensated_sum(c[:, 1].tolist())]) / n
        t = float(np.max(np.abs(c - m))) + 1e-300
        apart += 1e-13 * t * t != 1e-13 * s * s
    assert apart > 40


def test_loop_faults_of_a_stack_are_those_of_its_rows_and_of_polygon(rng):
    loops = []
    for k in range(60):
        c = random_star_polygon(rng, 6, 6).coords.copy()
        if k % 5 == 1:
            c = c[::-1]  # clockwise
        elif k % 5 == 2:
            c[3] = c[2] * (1 + 1e-15)  # repeated vertex
        elif k % 5 == 3:
            c[:, 1] = 2.0 * c[:, 0]  # zero area
        elif k % 5 == 4:
            c[k % 6, k % 2] = (np.nan, np.inf, -np.inf)[k % 3]
        loops.append(c)
    areas, faults = geometry.loop_faults(np.stack(loops))
    seen = set()
    for g, c in enumerate(loops):
        a, f = geometry.loop_faults(c)
        assert np.array_equal(a, areas[g], equal_nan=True)
        row = tuple(bool(x[g]) for x in faults)
        assert tuple(map(bool, f)) == row
        if any(row):
            message = geometry.LOOP_FAULTS[row.index(True)]
            seen.add(message)
            with pytest.raises(PolygonError, match=re.escape(message)):
                Polygon(c)
        else:
            assert np.array_equal(Polygon(c).coords, c if a > 0 else c[::-1])
    assert seen == set(geometry.LOOP_FAULTS)


def test_crossing_predicate_broadcasts_bit_identically(rng):
    # near-degenerate segments: small integers plus tiny noise
    seg = rng.integers(-3, 4, size=(200, 4)) + rng.normal(scale=1e-14, size=(200, 4))
    seg[::3] = np.round(seg[::3])
    a, b = seg.T[:, :, None], seg.T[:, None, :]
    d = segment_orientations(a[:2], a[2:], b[:2], b[2:])
    cross = segments_straddle(d, 1e-13)
    for i in range(0, 200, 7):
        for j in range(200):
            q = [tuple(seg[i, :2]), tuple(seg[i, 2:]), tuple(seg[j, :2]), tuple(seg[j, 2:])]
            dij = segment_orientations(*[tuple(map(float, p)) for p in q])
            assert dij == tuple(float(dk[i, j]) for dk in d)
            assert segments_straddle(dij, 1e-13) == cross[i, j]
