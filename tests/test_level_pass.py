"""The level-scheduled refinement pass and the stacked fallback search give
what the element-by-element code gives (`refine_reference`)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine.cnn import load_model
from polyrefine.geometry import Polygon, diameters, geom_tol, regular_polygon
from polyrefine import refine
from polyrefine.mesh import GRID_GENERATORS, dependency_levels, mark_fixed_fraction, refine_mesh_report
from polyrefine.refine import Strategy, corner_label, fallback_bisect
from conftest import CLASSIFIER, random_star_polygon, with_aligned_vertex
from refine_reference import _diagonal_is_interior, fallback_bisect_reference, refine_mesh_reference

STRATEGIES = ("mp", "cnn-mp", "cnn-rp")


def assert_same_pass(mesh, marks, strategy, classifier=corner_label):
    """One pass of each; returns the new mesh."""
    new, report = refine_mesh_report(mesh, marks, strategy, classifier)
    ref, created, counts = refine_mesh_reference(mesh, marks, strategy, classifier)
    assert new.vertices.tobytes() == ref.vertices.tobytes()
    assert new.elements == ref.elements
    assert report.created == created
    assert list(report.strategy_counts.items()) == list(counts.items())  # in marks order
    assert report.levels == len(dependency_levels(mesh, sorted(set(map(int, marks)))))
    return new


def assert_same_bisection(p):
    new, ref = fallback_bisect(p), fallback_bisect_reference(p)
    assert new.points.tobytes() == ref.points.tobytes()
    assert new.loops == ref.loops
    assert new.strategy_used == ref.strategy_used


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("grid", sorted(GRID_GENERATORS))
def test_uniform_passes_match_the_element_by_element_pass(grid, strategy):
    m = GRID_GENERATORS[grid]()
    for _ in range(3):
        m = assert_same_pass(m, range(m.n_elements), strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("grid", sorted(GRID_GENERATORS))
def test_adaptive_passes_match_the_element_by_element_pass(grid, strategy):
    m = GRID_GENERATORS[grid]()
    for _ in range(3):
        m = assert_same_pass(m, mark_fixed_fraction(m.per_element(diameters), 0.3), strategy)


@pytest.mark.parametrize("strategy", ["cnn-mp", "cnn-rp"])
def test_passes_with_the_committed_classifier_match(strategy):
    net = load_model(CLASSIFIER)
    for grid in sorted(GRID_GENERATORS):
        m = GRID_GENERATORS[grid]()
        for _ in range(2):
            m = assert_same_pass(m, range(m.n_elements), strategy, net)


_MESHES = {}


def _mesh(grid):
    """The grid after one MP pass: elements with hanging nodes, and fallbacks
    on the nonconvex grid."""
    if grid not in _MESHES:
        m = GRID_GENERATORS[grid]()
        _MESHES[grid] = refine_mesh_report(m, range(m.n_elements), "mp")[0]
    return _MESHES[grid]


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(sorted(GRID_GENERATORS)),
    strategy=st.sampled_from(STRATEGIES),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.05, 1.0),
)
def test_random_mark_subsets_match_the_element_by_element_pass(grid, strategy, seed, fraction):
    m = _mesh(grid)
    marks = np.flatnonzero(np.random.default_rng(seed).random(m.n_elements) < fraction).tolist()
    assert_same_pass(m, marks, strategy)
    # no two elements of a level share an edge, and an element's level is
    # the first after those of its earlier-marked edge neighbours
    levels = dependency_levels(m, marks)
    level = {eid: k for k, elems in enumerate(levels) for eid in elems}
    assert sorted(level) == marks and all(elems == sorted(elems) and elems for elems in levels)
    loops = [set(map(frozenset, zip(loop, loop[1:] + loop[:1]))) for loop in m.elements]
    for eid in marks:
        earlier = [level[f] for f in marks if f < eid and loops[f] & loops[eid]]
        assert level[eid] == max(earlier, default=-1) + 1


def _fallback_polygons():
    """The polygons two MP passes on the nonconvex grid bisect."""
    found = []

    def recording(p):
        found.append(p)
        return fallback_bisect(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refine, "fallback_bisect", recording)
        m = GRID_GENERATORS["nonconvex"]()
        for _ in range(2):
            m = refine_mesh_report(m, range(m.n_elements), "mp")[0]
    return found


def test_fallback_search_matches_on_the_nonconvex_fallbacks():
    polys = _fallback_polygons()
    assert len(polys) == 10 and {p.n for p in polys} == {5, 7, 12}
    for p in polys:
        assert_same_bisection(p)


@pytest.mark.parametrize("n", range(3, 13))
def test_fallback_search_matches_on_regular_polygons(n):
    # every diagonal of a regular polygon has a mirror image of equal balance
    for phase in (0.0, 0.3):
        assert_same_bisection(regular_polygon(n, 2.0, (0.5, -1.0), phase))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), aligned=st.lists(st.integers(0, 20), max_size=4))
def test_fallback_search_matches_on_star_polygons(seed, aligned):
    p = random_star_polygon(np.random.default_rng(seed), n_min=4, n_max=10)
    for edge in aligned:
        p = with_aligned_vertex(p, edge % p.n, 0.5)
    assert_same_bisection(p)


def test_a_vertex_at_rounding_distance_of_tol_is_decided_as_by_math_hypot():
    """A vertex whose distance to a diagonal rounds one unit apart under
    np.hypot and math.hypot, with tol set to one of the two: the stacked
    search and the per-diagonal test agree on every diagonal."""
    hits = 0
    for k in range(1, 4000):
        # vertex 3 sits just outside the diagonal (0, 2); nothing else is near it
        coords = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [3.0, 1.5 + k * 1.37e-7], [0.0, 2.0]])
        a, b, q = coords[0], coords[2], coords[3]
        ab = (b[0] - a[0], b[1] - a[1])
        t = min(1.0, max(0.0, ((q[0] - a[0]) * ab[0] + (q[1] - a[1]) * ab[1]) / (ab[0] * ab[0] + ab[1] * ab[1])))
        dx, dy = q[0] - (a[0] + t * ab[0]), q[1] - (a[1] + t * ab[1])
        if np.hypot(dx, dy) == math.hypot(dx, dy):
            continue
        hits += 1
        p = Polygon(coords)
        i, j = np.array([0, 0, 1, 1, 2]), np.array([2, 3, 3, 4, 4])
        for tol in (math.hypot(dx, dy), float(np.hypot(dx, dy))):
            want = [_diagonal_is_interior(p, a, b, tol) for a, b in zip(i.tolist(), j.tolist())]
            assert refine._interior_diagonals(p.coords, i, j, tol).tolist() == want
            assert want[0] == (math.hypot(dx, dy) > tol)
    assert hits >= 3
    assert geom_tol(p) < 1e-9  # the search's own tol sees vertex 3 off the diagonal
