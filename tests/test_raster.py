import numpy as np
import pytest

from polyrefine.geometry import Polygon, contains_many
from polyrefine.raster import MARGIN, RESOLUTION, BinaryImage, rasterize
from conftest import random_star_polygon, with_aligned_vertex

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def rasterize_oracle(p: Polygon) -> np.ndarray:
    """Reference: ray-crossing containment of every pixel centre in the
    normalized polygon."""
    lo = p.coords.min(axis=0)
    hi = p.coords.max(axis=0)
    scaled = Polygon(0.5 + (p.coords - 0.5 * (lo + hi)) * (1 - 2 * MARGIN) / (hi - lo))
    i, j = np.mgrid[0:RESOLUTION, 0:RESOLUTION]
    x, y = (j.ravel() + 0.5) / RESOLUTION, 1.0 - (i.ravel() + 0.5) / RESOLUTION
    centres = np.column_stack([x, y])
    return contains_many(scaled, centres).reshape(RESOLUTION, RESOLUTION).astype(np.uint8)


def test_square_lit_count():
    img = rasterize(SQUARE)
    assert img.lit_count == 62 * 62
    assert (img.pixels == rasterize_oracle(SQUARE)).all()


def test_matches_oracle_on_random_polygons(rng):
    for _ in range(5):
        p = random_star_polygon(rng)
        assert (rasterize(p).pixels == rasterize_oracle(p)).all()


def test_translation_and_scale_invariance_examples():
    img = rasterize(SQUARE)
    translated = rasterize(Polygon(SQUARE.coords + 100.0))
    scaled = rasterize(Polygon(SQUARE.coords * 7.0))
    assert (img.pixels == translated.pixels).all()
    assert (img.pixels == scaled.pixels).all()


def test_translation_and_scale_invariance_random(rng):
    # acceptance: bit-invariance on 200 random polygons
    for _ in range(200):
        p = random_star_polygon(rng)
        img = rasterize(p)
        assert (img.pixels == rasterize(Polygon(p.coords + 100.0)).pixels).all()
        assert (img.pixels == rasterize(Polygon(p.coords * 7.0)).pixels).all()


def test_aligned_vertices_do_not_change_image(rng):
    for _ in range(30):
        p = random_star_polygon(rng)
        q = with_aligned_vertex(p, edge=int(rng.integers(0, p.n)), t=float(rng.uniform(0.2, 0.8)))
        assert (rasterize(p).pixels == rasterize(q).pixels).all()


def test_lit_fraction_approximates_area(rng):
    from polyrefine.geometry import area

    for _ in range(20):
        p = random_star_polygon(rng, reflex=False)
        lo = p.coords.min(axis=0)
        hi = p.coords.max(axis=0)
        stretched = Polygon(
            0.5 + (p.coords - 0.5 * (lo + hi)) * (1 - 2 * MARGIN) / (hi - lo)
        )
        lit = rasterize(p).lit_count / RESOLUTION**2
        assert abs(lit - area(stretched)) < 0.05


def test_degenerate_input():
    p = Polygon([(0, 0), (1e-13, 0), (1e-13, 1e-13), (0, 1e-13)])
    with pytest.raises(ValueError, match="degenerate"):
        rasterize(p)


def test_binary_image_validation():
    with pytest.raises(ValueError):
        BinaryImage(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BinaryImage(np.full((RESOLUTION, RESOLUTION), 2))
    with pytest.raises(ValueError):
        BinaryImage(np.zeros((RESOLUTION, RESOLUTION)))


def test_pgm_round_trip(tmp_path, rng):
    img = rasterize(random_star_polygon(rng))
    path = tmp_path / "shape.pgm"
    img.save_pgm(path)
    back = BinaryImage.from_pgm(path)
    assert (back.pixels == img.pixels).all()
