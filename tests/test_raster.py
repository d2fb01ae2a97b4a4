import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine.cnn import generate_dataset
from polyrefine.geometry import Polygon, contains_many, geom_tol
from polyrefine.mesh import GRID_GENERATORS, refine_mesh
from polyrefine.raster import MARGIN, RESOLUTION, BinaryImage, rasterize
from polyrefine.refine import Strategy
from conftest import random_star_polygon, with_aligned_vertex

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

# Recorded from the per-pixel ray-test rasterizer: the bytes of every image
# of a fixed-seed dataset, and the PGM text of its first three images.
DATASET_PIXELS_SHA256 = "fc4eb9a778bb9e4fcae57092f8b9124582b6b4b30caa1d45529d0ac56416b088"
DATASET_PGM_SHA256 = "a60498bb0607389f1949192890569171a276aff95b0d0677bef6243b8be4d046"


def rasterize_oracle(p: Polygon, near_boundary: bool = True) -> np.ndarray:
    """Reference: ray-crossing containment of every pixel centre in the
    normalized polygon; with `near_boundary`, centres within its geometric
    tolerance of the boundary count as inside too, else the plain ray test."""
    lo = p.coords.min(axis=0)
    hi = p.coords.max(axis=0)
    scaled = Polygon(0.5 + (p.coords - 0.5 * (lo + hi)) * (1 - 2 * MARGIN) / (hi - lo))
    i, j = np.mgrid[0:RESOLUTION, 0:RESOLUTION]
    x, y = (j.ravel() + 0.5) / RESOLUTION, 1.0 - (i.ravel() + 0.5) / RESOLUTION
    centres = np.column_stack([x, y])
    inside = contains_many(scaled, centres, geom_tol(scaled) if near_boundary else -np.inf)
    return inside.reshape(RESOLUTION, RESOLUTION).astype(np.uint8)


def test_square_lit_count():
    img = rasterize(SQUARE)
    assert img.pixels.sum() == 62 * 62
    assert (img.pixels == rasterize_oracle(SQUARE)).all()


def test_dataset_matches_golden_hash():
    data = generate_dataset(6, 20, seed=0)
    pixels = np.stack([s.image.pixels for s in data])
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == DATASET_PIXELS_SHA256
    pgm = "".join(s.image.to_pgm() for s in data[:3])
    assert hashlib.sha256(pgm.encode()).hexdigest() == DATASET_PGM_SHA256


def test_matches_oracle_on_every_grid_element():
    """Every element of the four grids and of their once-refined meshes. The
    triangle grid's diagonals pass through pixel centres that only the
    near-boundary rule lights, so that rule is exercised here."""
    polys = []
    for make in GRID_GENERATORS.values():
        m = make()
        polys += m.polygons() + refine_mesh(m, range(m.n_elements), Strategy.MP).polygons()
    near_lit = 0
    for p in polys:
        want = rasterize_oracle(p)
        assert (rasterize(p).pixels == want).all()
        near_lit += int(want.sum() - rasterize_oracle(p, near_boundary=False).sum())
    assert near_lit > 0


def test_near_boundary_rule_on_edges_and_vertices_just_off_pixel_centres():
    """The normalized box (normalizing leaves it in place) with a notch from
    the top whose sides and bottom lie half a tolerance beyond pixel
    centres, a spike whose tip lies half a tolerance below one, and a
    shallow roof from the bottom that passes half a tolerance above one.
    Those centres are outside, and lit only by the near-boundary rule."""
    xs = (np.arange(RESOLUTION) + 0.5) / RESOLUTION
    ys = 1.0 - xs
    lo, hi = MARGIN, 1.0 - MARGIN
    delta = 0.5 * 1e-10 * np.hypot(hi - lo, hi - lo)  # half of geom_tol
    left, right, bottom = xs[20] - delta, xs[40] + delta, ys[30] - delta
    roof = lambda x: ys[62] + delta - 0.02 * (x - xs[10])  # the shallow edge's y at x
    p = Polygon([
        (lo, lo), (0.1, lo), (0.1, roof(0.1)), (xs[10] + (roof(xs[10]) - lo) / 0.02, lo),
        (hi, lo), (hi, hi), (right, hi), (right, bottom),
        (xs[30] + 0.005, bottom), (xs[30], ys[25] - delta), (xs[30] - 0.005, bottom),
        (left, bottom), (left, hi), (lo, hi),
    ])
    want = rasterize_oracle(p)
    assert (rasterize(p).pixels == want).all()
    near = want & ~rasterize_oracle(p, near_boundary=False)
    assert near[30, 20:30].all() and near[30, 31:41].all()  # column 30 is in the spike
    assert near[1:31, 20].all() and near[1:31, 40].all() and near[25, 30] and near[62, 10]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.05, 0.95))
def test_matches_oracle_on_random_polygons(seed, aligned, t):
    rng = np.random.default_rng(seed)
    p = random_star_polygon(rng)
    if aligned:
        p = with_aligned_vertex(p, edge=int(rng.integers(0, p.n)), t=t)
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
        lit = rasterize(p).pixels.sum() / RESOLUTION**2
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
