import math

import numpy as np
import pytest

from polyrefine.geometry import Polygon, regular_polygon
from polyrefine.metrics import (
    METRIC_NAMES,
    area_perimeter_ratio,
    circle_ratio,
    edge_ratio,
    element_metrics,
    load_quality_csv,
    min_angle,
    normalized_point_distance,
    quality_report,
    uniformity_factor,
)
from conftest import random_star_polygon

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
    uf = uniformity_factor(squares)
    assert uf == pytest.approx([1.0, 0.5])
    assert uniformity_factor([SQUARE]) == pytest.approx([1.0])


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
    back = load_quality_csv(path)
    for name in METRIC_NAMES:
        assert back[name] == pytest.approx(rep.values[name])
