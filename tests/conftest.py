from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from polyrefine.geometry import Polygon, diameter

# the benchmark's committed classifier: a trained model the tests need not train
CLASSIFIER = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "classifier.bin"


def random_star_polygon(rng, n_min=3, n_max=9, reflex=True):
    """Random simple polygon, star-shaped about its construction center.

    Angular gaps are kept inside [0.15, 2.6] so no chord sweeps past the
    center (a gap above pi would allow self-intersection).
    """
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
        if gaps.min() >= 0.15 and gaps.max() <= 2.6:
            break
    radii = rng.uniform(0.35 if reflex else 0.75, 1.0, size=n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts += rng.uniform(-3.0, 3.0, size=2)
    return Polygon(pts)


def is_convex(p: Polygon) -> bool:
    """All turns are left turns up to a tolerance relative to the diameter;
    aligned vertices are fine."""
    prev, nxt = np.roll(p.coords, 1, axis=0), np.roll(p.coords, -1, axis=0)
    u, v = p.coords - prev, nxt - p.coords
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    lens = np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
    return bool(np.all(cross >= -1e-10 * diameter(p) * np.sqrt(lens + 1e-300)))


def with_aligned_vertex(p: Polygon, edge: int = 0, t: float = 0.5) -> Polygon:
    """Copy of p with one extra vertex dropped onto the given edge."""
    pts = list(map(tuple, p.coords))
    a = np.asarray(pts[edge])
    b = np.asarray(pts[(edge + 1) % len(pts)])
    pts.insert(edge + 1, tuple(a + t * (b - a)))
    return Polygon(pts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def edge_incidence(elements) -> dict[tuple[int, int], list[int]]:
    """Undirected edge -> incident element ids, walking the loops one by one:
    the reference that `PolyMesh.edges` is checked against."""
    inc: dict[tuple[int, int], list[int]] = {}
    for eid, loop in enumerate(elements):
        for a, b in zip(loop, loop[1:] + loop[:1]):
            inc.setdefault((min(a, b), max(a, b)), []).append(eid)
    return inc


def assert_loop_table_matches_loops(mesh):
    """The loop table of `mesh` equals the layout derived loop by loop."""
    loops = mesh.elements
    sizes = [len(loop) for loop in loops]
    assert mesh.offsets.tolist() == [0, *accumulate(sizes)]
    assert mesh.indices.tolist() == [v for loop in loops for v in loop]
    groups = mesh.vertex_count_groups()
    assert [g.shape[1] for _, g in groups] == sorted(set(sizes))
    for ids, g in groups:
        assert ids.tolist() == [e for e, n in enumerate(sizes) if n == g.shape[1]]
        assert g.tolist() == [loops[e] for e in ids]
    inc = edge_incidence(loops)
    assert mesh.edges.tolist() == [
        (a, b, e, len(inc[min(a, b), max(a, b)]))
        for e, loop in enumerate(loops)
        for a, b in zip(loop, loop[1:] + loop[:1])
    ]
    single = {v for key, elems in inc.items() if len(elems) == 1 for v in key}
    assert mesh.boundary_vertices().tolist() == sorted(single)
