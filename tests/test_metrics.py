import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import cnn
from polyrefine.geometry import Polygon, inscribed_radii, regular_polygon
from polyrefine.mesh import GRID_GENERATORS, refine_mesh
from polyrefine.metrics import (
    METRIC_NAMES,
    area_perimeter_ratio,
    circle_ratio,
    edge_ratio,
    element_metrics,
    min_angle,
    normalized_point_distance,
    quality_report,
)
import quality_reference
from conftest import CLASSIFIER, random_star_polygon, with_aligned_vertex


SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
EQUILATERAL = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
SPLIT_SQUARE = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])


def test_circle_ratio():
    assert circle_ratio(SQUARE) == pytest.approx(0.5 / (math.sqrt(2) / 2), rel=1e-12)
    assert circle_ratio(EQUILATERAL) == pytest.approx(
        (1 / (2 * math.sqrt(3))) / 0.5, rel=1e-12
    )
    thin = Polygon([(0, 0), (1, 0), (1, 0.1), (0, 0.1)])
    assert circle_ratio(thin) == pytest.approx(0.05 / (math.sqrt(1.01) / 2), rel=1e-12)
    right_iso = Polygon([(0, 0), (1, 0), (0, 1)])
    assert circle_ratio(right_iso) == pytest.approx(math.sqrt(2) - 1, rel=1e-12)


def test_area_perimeter_ratio():
    assert area_perimeter_ratio(SQUARE) == pytest.approx(math.pi / 4)
    hexagon = regular_polygon(6)
    assert area_perimeter_ratio(hexagon) == pytest.approx(math.pi * math.sqrt(3) / 6)
    sliver = Polygon([(0, 0), (1, 0), (1, 0.01), (0, 0.01)])
    assert area_perimeter_ratio(sliver) == pytest.approx(
        4 * math.pi * 0.01 / 2.02**2, abs=1e-4
    )


def test_min_angle():
    assert min_angle(SQUARE) == pytest.approx(0.5)
    assert min_angle(EQUILATERAL) == pytest.approx(1 / 3)
    right_iso = Polygon([(0, 0), (1, 0), (0, 1)])
    assert min_angle(right_iso) == pytest.approx(0.25)


def test_edge_ratio():
    assert edge_ratio(SQUARE) == pytest.approx(1.0)
    assert edge_ratio(SPLIT_SQUARE) == pytest.approx(0.5)
    tiny_edge = Polygon([(0, 0), (1, 0), (1.005, 0.005), (1, 1), (0, 1)])
    lengths = np.hypot(*(np.roll(tiny_edge.coords, -1, 0) - tiny_edge.coords).T)
    assert edge_ratio(tiny_edge) == pytest.approx(lengths.min() / lengths.max())


def test_normalized_point_distance():
    assert normalized_point_distance(SQUARE) == pytest.approx(1 / math.sqrt(2))
    assert normalized_point_distance(SPLIT_SQUARE) == pytest.approx(0.5 / math.sqrt(2))
    assert normalized_point_distance(EQUILATERAL) == pytest.approx(1.0)


def test_uniformity_factor():
    squares = [
        SQUARE,
        Polygon([(2, 0), (2.5, 0), (2.5, 0.5), (2, 0.5)]),
    ]
    assert quality_report(squares).values["UF"] == pytest.approx([1.0, 0.5])
    assert quality_report([SQUARE]).values["UF"] == pytest.approx([1.0])


def test_metrics_invariance(rng):
    for _ in range(10):
        p = random_star_polygon(rng)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        s = rng.uniform(0.3, 4.0)
        q = Polygon(s * (p.coords @ rot.T) + rng.uniform(-2, 2, size=2))
        for name in METRIC_NAMES:
            if name == "UF":
                continue
            a = element_metrics(p, 1.0)[name]
            b = element_metrics(q, 1.0)[name]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a)), name


def test_metric_ranges(rng):
    for _ in range(50):
        p = random_star_polygon(rng)
        for name, value in element_metrics(p, max(1.0, 10.0)).items():
            if name == "UF":
                continue
            assert 0.0 <= value <= 1.0, (name, value)


def test_quality_report_point_mass():
    # congruent regular polygons: every histogram concentrates in one bin
    cells = [
        Polygon(regular_polygon(6).coords + np.array([3.0 * k, 0.0])) for k in range(5)
    ]
    rep = quality_report(cells)
    for name in METRIC_NAMES:
        hist = rep.histograms[name]
        assert (hist > 0).sum() == 1
        assert hist.sum() == 5


def test_quality_report_csv(tmp_path, rng):
    cells = [random_star_polygon(rng) for _ in range(8)]
    rep = quality_report(cells)
    assert rep.n_elements == 8
    path = tmp_path / "quality.csv"
    rep.to_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["element", *METRIC_NAMES]
    assert [int(r[0]) for r in rows[1:]] == list(range(8))
    for j, name in enumerate(METRIC_NAMES, start=1):
        assert [float(r[j]) for r in rows[1:]] == rep.values[name].tolist()  # repr round-trips


def test_quality_report_of_no_elements_is_an_error():
    with pytest.raises(ValueError, match="the mesh has no elements"):
        quality_report([])


# ---------------------------------------------------------------------------
# the grouped kernels against the per-polygon reference, bit for bit
# ---------------------------------------------------------------------------

def _assert_matches_reference(polys):
    got = quality_report(polys).values
    want = quality_reference.quality_values(polys)
    for name in METRIC_NAMES:
        assert np.array_equal(got[name], want[name]), name


@pytest.fixture(scope="module")
def classifier():
    return cnn.load_model(CLASSIFIER).classify_polygon


@pytest.mark.parametrize("grid", sorted(GRID_GENERATORS))
def test_quality_report_matches_reference_on_refined_grids(grid, classifier):
    """The grid, the grid after three uniform MP passes and after one CNN-RP
    pass with the committed classifier."""
    m = GRID_GENERATORS[grid]()
    _assert_matches_reference(m.polygons())
    _assert_matches_reference(refine_mesh(m, range(m.n_elements), "cnn-rp", classifier).polygons())
    for _ in range(3):
        m = refine_mesh(m, range(m.n_elements), "mp")
    _assert_matches_reference(m.polygons())


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(3, 12), st.integers(0, 2**32 - 1), st.booleans(), st.integers(-1, 11)),
        min_size=1,
        max_size=12,
    )
)
def test_quality_report_matches_reference_on_mixed_star_polygons(draws):
    """Star polygons of mixed vertex counts, some with reflex corners and an
    aligned vertex (edge >= 0), in drawn order: each group's values must be
    written back to its elements."""
    polys = []
    for n, seed, reflex, edge in draws:
        rng = np.random.default_rng(seed)
        p = random_star_polygon(rng, n, n, reflex=reflex)
        polys.append(with_aligned_vertex(p, edge % n, float(rng.uniform(0.2, 0.8))) if edge >= 0 else p)
    _assert_matches_reference(polys)
    for p in polys[:3]:
        assert element_metrics(p, 2.0) == quality_reference.element_metrics(p, 2.0)


# a staircase L with three reflex corners and two aligned vertices
STAIRCASE = Polygon(
    [(0, 0), (2, 0), (4, 0), (4, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3), (1, 4), (0, 4), (0, 2)]
)


@pytest.mark.parametrize("p", [regular_polygon(48), STAIRCASE], ids=["regular48", "staircase12"])
def test_inscribed_radii_chunks_bound_memory(p):
    """20 copies of a 48-gon are 345,920 line triples; unchunked, one
    (loops, candidates, n, 2) array would take 265 MB."""
    tracemalloc.start()
    try:
        got = inscribed_radii(np.stack([p.coords] * 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [quality_reference.inscribed_radius(p)] * 20
    assert peak < 64 * 2**20, peak
