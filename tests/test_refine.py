import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import refine
from polyrefine.geometry import Polygon, _signed_area, area, edge_midpoints, regular_polygon
from polyrefine.refine import (
    Strategy,
    _boundary,
    corner_label,
    fallback_bisect,
    refine_element,
    refine_mp,
    refinement_points,
    select_representative_vertices,
    template_regular,
    template_triangle,
    validate_partition,
)
from conftest import random_star_polygon, with_aligned_vertex

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
TRIANGLE = Polygon([(0, 0), (1, 0), (0, 1)])
SPLIT_SQUARE = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def child_areas(result):
    return sorted(area(c) for c in result.children)


def hanging_nodes(result, p):
    """Rows of the hanging nodes: the odd indices below 2n the loops use."""
    used = {k for loop in result.loops for k in loop}
    return result.points[sorted(k for k in used if k < 2 * p.n and k % 2)]


def test_refine_mp_square():
    res = refine_mp(SQUARE)
    assert len(res.children) == 4
    assert child_areas(res) == pytest.approx([0.25] * 4)
    assert res.strategy_used == Strategy.MP
    assert np.array_equal(hanging_nodes(res, SQUARE), edge_midpoints(SQUARE))


def test_refine_mp_triangle():
    res = refine_mp(TRIANGLE)
    assert len(res.children) == 3
    assert child_areas(res) == pytest.approx([1 / 6] * 3)


def test_refine_mp_pentagon():
    res = refine_mp(regular_polygon(5))
    assert len(res.children) == 5


def test_select_representative_vertices_enumeration(rng):
    # square with an aligned vertex: corners maximize the pairwise-distance sum
    got = SPLIT_SQUARE.coords[select_representative_vertices(SPLIT_SQUARE, 4)]
    assert [(round(x, 9), round(y, 9)) for x, y in got] == [
        (0, 0), (1, 0), (1, 1), (0, 1),
    ]
    # equilateral triangle with all three midpoints inserted
    eq = Polygon(
        [(0, 0), (0.5, 0), (1, 0), (0.75, math.sqrt(3) / 4),
         (0.5, math.sqrt(3) / 2), (0.25, math.sqrt(3) / 4)]
    )
    got = eq.coords[select_representative_vertices(eq, 3)]
    assert [(round(x, 6), round(y, 6)) for x, y in got] == [
        (0, 0), (1, 0), (0.5, round(math.sqrt(3) / 2, 6)),
    ]
    # independent exhaustive oracle on random polygons
    for _ in range(10):
        p = random_star_polygon(rng, n_min=5, n_max=7)
        L = 4
        coords = p.coords
        best, best_sum = None, -1.0
        for combo in itertools.combinations(range(p.n), L):
            s = sum(
                np.hypot(*(coords[a] - coords[b]))
                for a, b in itertools.combinations(combo, 2)
            )
            if s > best_sum + 1e-12:
                best, best_sum = combo, s
        assert select_representative_vertices(p, L) == list(best)


def _subset_search_reference(p: Polygon, label: int) -> list[int]:
    """The per-combination loop that the stacked subset search replaced."""
    if label >= p.n:
        return list(range(p.n))
    c = p.coords
    dist = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
    best, best_sum = None, -1.0
    for combo in itertools.combinations(range(p.n), label):
        s = float(dist[np.ix_(combo, combo)].sum())
        if s > best_sum + 1e-15:
            best, best_sum = combo, s
    return list(best)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.integers(3, 12),
    st.sets(st.integers(0, 11), min_size=3),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.5, 0.25, 0.75])), max_size=3),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 0.1, 1.0, 30.0]),
    st.integers(3, 9),
)
def test_subset_search_matches_the_per_combination_loop(m, keep, aligned, phase, radius, label):
    """Corners of a regular m-gon, some dropped and some edges given an
    aligned vertex: symmetric shapes, so many subsets tie on their sum, up
    to rounding. On the small shapes 1e-15 spans many units in the last
    place of the sums, on the large ones less than one."""
    keep = sorted(k for k in keep if k < m)
    if len(keep) < 3:
        keep = list(range(m))
    p = Polygon(regular_polygon(m, radius, phase=phase).coords[keep])
    for edge, t in aligned:
        p = with_aligned_vertex(p, edge % p.n, t)
    assert select_representative_vertices(p, label) == _subset_search_reference(p, label)


@pytest.mark.parametrize("label", [5, 7, 8])
@pytest.mark.parametrize("inner", [0.3, 1.0])
def test_subset_search_over_several_chunks(label, inner):
    """16-gons with 4,368 to 12,870 subsets, so more than one gathered
    chunk: a regular one, where every rotation of the best subset ties, and
    one whose first eight corners lie on a smaller circle, where the best
    subsets come late."""
    ang = 2.0 * np.pi * np.arange(16) / 16
    radii = np.where(np.arange(16) < 8, inner, 1.0)
    p = Polygon(np.column_stack([radii * np.cos(ang), radii * np.sin(ang)]))
    assert math.comb(16, label) > refine._SUBSET_CHUNK
    assert select_representative_vertices(p, label) == _subset_search_reference(p, label)


def test_select_representative_all_when_label_large():
    got = select_representative_vertices(SQUARE, 7)
    assert len(got) == 4


def test_refinement_points_split_square():
    pts = _boundary(SPLIT_SQUARE)[refinement_points(SPLIT_SQUARE, 4)]
    expected = {(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)}
    assert {(round(x, 9), round(y, 9)) for x, y in pts} == expected


def test_refinement_points_regular():
    # a polygon already regular with L vertices selects its own midpoints
    pent = regular_polygon(5)
    pts = _boundary(pent)[refinement_points(pent, 5)]
    mids = edge_midpoints(pent)
    assert sorted(map(tuple, pts)) == sorted(map(tuple, mids))


def test_refinement_points_distorted_quad():
    quad = Polygon([(0, 0), (1.1, -0.05), (1.05, 0.9), (0.2, 1.0), (0.1, 0.5)])
    pts = _boundary(quad)[refinement_points(quad, 4)]
    assert len(pts) == 4
    from polyrefine.geometry import distance_to_boundary

    d = distance_to_boundary(quad, np.asarray(pts))
    assert (d < 1e-9).all()


def test_cnn_mp_square_matches_mp():
    res = refine_element(SQUARE, Strategy.CNN_MP, lambda p: 4)
    mp = refine_mp(SQUARE)
    got = sorted(sorted(map(tuple, c.coords)) for c in res.children)
    want = sorted(sorted(map(tuple, c.coords)) for c in mp.children)
    assert got == want


def test_cnn_mp_split_square_gives_four_children():
    res = refine_element(SPLIT_SQUARE, Strategy.CNN_MP, lambda p: 4)
    assert res.strategy_used == Strategy.CNN_MP
    assert len(res.children) == 4  # plain MP would give 5
    assert len(refine_mp(SPLIT_SQUARE).children) == 5
    assert sum(child_areas(res)) == pytest.approx(area(SPLIT_SQUARE))


def test_cnn_mp_pentagon_classified_as_quad():
    pent = Polygon([(0, 0), (1, 0), (1, 1), (0.5, 1.08), (0, 1)])
    res = refine_element(pent, Strategy.CNN_MP, lambda p: 4)
    assert len(res.children) == 4


def test_template_triangle():
    res = template_triangle(TRIANGLE, refinement_points(TRIANGLE, 3))
    assert len(res.children) == 4
    assert child_areas(res) == pytest.approx([0.125] * 4)
    eq = regular_polygon(3)
    res = template_triangle(eq, refinement_points(eq, 3))
    assert child_areas(res) == pytest.approx([area(eq) / 4] * 4)
    # the medial child is similar to the parent (half-scale edge lengths)
    from polyrefine.geometry import edge_lengths

    medial = res.children[-1]
    assert sorted(edge_lengths(medial.coords)) == pytest.approx(
        [l / 2 for l in sorted(edge_lengths(eq.coords))]
    )


def test_template_regular_counts():
    for n in (5, 6, 8):
        p = regular_polygon(n)
        res = template_regular(p, refinement_points(p, n))
        assert len(res.children) == n + 1
        assert sum(child_areas(res)) == pytest.approx(area(p))


def test_refine_cnn_rp_dispatch():
    res = refine_element(regular_polygon(6), Strategy.CNN_RP, lambda p: 6)
    assert len(res.children) == 7
    res = refine_element(regular_polygon(5), Strategy.CNN_RP, lambda p: 5)
    assert len(res.children) == 6
    res = refine_element(TRIANGLE, Strategy.CNN_RP, lambda p: 3)
    assert len(res.children) == 4
    res = refine_element(SQUARE, Strategy.CNN_RP, lambda p: 4)
    assert len(res.children) == 4


def test_refine_cnn_rp_label_clamped():
    # predicted label above the vertex count is clamped
    res = refine_element(TRIANGLE, Strategy.CNN_RP, lambda p: 6)
    assert validate_partition(TRIANGLE, res.children)


@pytest.mark.parametrize(
    "strategy,label",
    [(Strategy.MP, None)]
    + [(s, lab) for s in (Strategy.CNN_MP, Strategy.CNN_RP) for lab in (3, 4, 5, 6)],
)
def test_centroid_outside_falls_back(strategy, label):
    # the vertex average of this L-shape sits exactly on the reflex corner
    res = refine_element(L_SHAPE, strategy, lambda p: label)
    assert res.strategy_used == Strategy.FALLBACK_BISECT
    assert len(res.children) == 2
    assert validate_partition(L_SHAPE, res.children)


@pytest.mark.parametrize("strategy", [Strategy.MP, Strategy.CNN_MP, Strategy.CNN_RP])
@pytest.mark.parametrize("label", [3, 4, 5])
def test_invalid_partition_falls_back(strategy, label, monkeypatch):
    # the strategies do not check their children; refine_element does, once
    pent = regular_polygon(5)
    res = refine_element(pent, strategy, lambda p: label)
    assert res.strategy_used != Strategy.FALLBACK_BISECT
    calls = []
    monkeypatch.setattr(refine, "validate_partition", lambda p, c: calls.append(len(c)) or False)
    assert refine_element(pent, strategy, lambda p: label).strategy_used == Strategy.FALLBACK_BISECT
    assert calls[0] == len(res.children)


def test_classifier_errors_propagate():
    def broken(p):
        raise RuntimeError("classifier failed")

    for strategy in (Strategy.CNN_MP, Strategy.CNN_RP):
        with pytest.raises(RuntimeError, match="classifier failed"):
            refine_element(L_SHAPE, strategy, broken)
    with pytest.raises(TypeError):
        refine_element(SQUARE, Strategy.CNN_MP)


@pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_rho_outside_the_unit_interval_is_rejected(rho):
    # an out-of-range scale used to send every CNN-RP element to bisection
    for strategy in Strategy:
        with pytest.raises(ValueError, match="rho must lie strictly between 0 and 1"):
            refine_element(SQUARE, strategy, lambda p: 5, rho=rho)


def test_rp_square_three_levels_is_64():
    polys = [SQUARE]
    for _ in range(3):
        out = []
        for p in polys:
            res = refine_element(p, Strategy.CNN_RP, lambda q: 4)
            assert res.strategy_used == Strategy.CNN_RP
            out.extend(res.children)
        polys = out
    assert len(polys) == 64
    assert sum(area(p) for p in polys) == pytest.approx(1.0)


def test_fallback_bisect_square():
    res = fallback_bisect(SQUARE)
    assert child_areas(res) == pytest.approx([0.5, 0.5])
    assert hanging_nodes(res, SQUARE).shape == (0, 2)


def test_fallback_bisect_l_shape_oracle():
    res = fallback_bisect(L_SHAPE)
    assert child_areas(res) == pytest.approx([1.5, 1.5])
    # enumeration oracle: the (0,0)-(1,1) diagonal is the unique maximizer
    coords = L_SHAPE.coords
    pairs = {tuple(sorted(map(tuple, (coords[0], coords[3]))))}
    got = set(map(tuple, res.children[0].coords)) & set(map(tuple, res.children[1].coords))
    assert got == {(0.0, 0.0), (1.0, 1.0)}
    assert pairs == {tuple(sorted(got))}


def test_fallback_bisect_triangle():
    res = fallback_bisect(TRIANGLE)
    assert len(res.children) == 2
    assert child_areas(res) == pytest.approx([0.25, 0.25])
    assert hanging_nodes(res, TRIANGLE).tolist() == [[0.5, 0.5]]  # hypotenuse midpoint


def test_validate_partition_rejects_bad_partitions():
    res = refine_mp(SQUARE)
    assert validate_partition(SQUARE, res.children)
    # drop one child: area mismatch
    assert not validate_partition(SQUARE, res.children[:3])
    # overlapping children
    a = Polygon([(0, 0), (1, 0), (1, 0.7), (0, 0.7)])
    b = Polygon([(0, 0.3), (1, 0.3), (1, 1), (0, 1)])
    assert not validate_partition(SQUARE, [a, b])
    # child sticking out of the parent
    c = Polygon([(0, 0), (1.4, 0), (1.4, 1), (0, 1)])
    assert not validate_partition(SQUARE, [c])


def test_corner_label():
    assert corner_label(SPLIT_SQUARE) == 4
    assert corner_label(L_SHAPE) == 6
    assert corner_label(regular_polygon(8)) == 6  # clamped to max label


@pytest.mark.parametrize("strategy", [Strategy.MP, Strategy.CNN_MP, Strategy.CNN_RP])
def test_strategy_equivariance(strategy, rng):
    """Children of a translated/scaled polygon are the translated/scaled
    children (labels held fixed, so the classifier's raster invariance is
    not in play)."""
    for _ in range(10):
        p = random_star_polygon(rng)
        label = corner_label(p, 6)
        cls = lambda q: label
        base = refine_element(p, strategy, cls)
        shift = rng.uniform(-50, 50, size=2)
        scale = rng.uniform(0.25, 4.0)
        moved = Polygon(p.coords * scale + shift)
        res = refine_element(moved, strategy, cls)
        assert len(res.children) == len(base.children)
        for a, b in zip(base.children, res.children):
            assert b.coords == pytest.approx(a.coords * scale + shift, rel=1e-9, abs=1e-9)


# SHA-256 over the strategy used, every child's coordinates and the hanging
# nodes of the 1000 refinements in test_partition_validity_property
PARTITION_HASHES = {
    Strategy.MP: "4816b0d1b044ba9e1456a63b3689214ff12adb5a83f87457e4c722345fb6d344",
    Strategy.CNN_MP: "467d605e129ecbb55cf73f725cdb26790f2e20fd683335292d78814731bd46ea",
    Strategy.CNN_RP: "456c2f9c56d3bdc656e647f95934f0be1df52585b5b0b6a003d17b63e439bc74",
}


@pytest.mark.parametrize("strategy", [Strategy.MP, Strategy.CNN_MP, Strategy.CNN_RP])
def test_partition_validity_property(strategy, rng):
    """Acceptance: 1000 randomized polygons per strategy; every result is a
    valid partition (area conservation 1e-10 relative, no overlaps) of CCW
    index loops over the element's boundary rows, and the output bytes match
    the recorded hash."""
    labeler = lambda p: corner_label(p, 6)
    digest = hashlib.sha256()
    for i in range(1000):
        p = random_star_polygon(rng)
        if i % 5 == 0:
            # stress with an arbitrary (possibly wrong) label
            cls = lambda q, lab=int(rng.integers(3, 7)): lab
        else:
            cls = labeler
        res = refine_element(p, strategy, cls)
        # index contract: vertex i in row 2i, the midpoint of edge i in row 2i + 1
        assert np.array_equal(res.points[0 : 2 * p.n : 2], p.coords)
        assert np.array_equal(res.points[1 : 2 * p.n : 2], edge_midpoints(p))
        assert all(_signed_area(res.points[loop]) > 0 for loop in res.loops), (strategy, i)
        assert validate_partition(p, res.children), (strategy, i)
        total = sum(area(c) for c in res.children)
        assert total == pytest.approx(area(p), rel=1e-10)
        digest.update(res.strategy_used.value.encode())
        for c in res.children:
            digest.update(c.coords.tobytes())
        digest.update(hanging_nodes(res, p).tobytes())
    assert digest.hexdigest() == PARTITION_HASHES[strategy], digest.hexdigest()
