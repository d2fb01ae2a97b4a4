"""Element-by-element refinement: the reference the level-scheduled pass and
the stacked fallback search are checked against.

A copy of the per-element code the library replaced: each marked element,
in element order, is refined against the mesh the earlier ones left, and
its children are checked one `Polygon` at a time before
`validate_partition_reference` checks the partition. The strategies, the
working mesh and the geometry kernels are the library's own.
"""
from __future__ import annotations

import math

import numpy as np

from polyrefine.geometry import (
    Polygon,
    PolygonError,
    _signed_area,
    area,
    boundary_distances,
    centroid,
    diameter,
    edge_lengths,
    geom_tol,
    odd_crossings,
    segment_orientations,
    segments_straddle,
)
from polyrefine.mesh import MeshError, _WorkingMesh
from polyrefine.refine import (
    CNN_STRATEGIES,
    RefinementError,
    RefinementResult,
    Strategy,
    _boundary,
    _build_children,
    classify,
)
from conftest import contains_many


def fallback_bisect_reference(p: Polygon) -> RefinementResult:
    """Both halves of every interior diagonal built as checked Polygons,
    sorted by (-min(half areas), i, j); the first pair passing the partition
    check, else the first pair."""
    n, bnd = p.n, _boundary(p)
    if n == 3:
        i = int(np.argmax(edge_lengths(p.coords)))
        a, b, c = 2 * i, (2 * i + 2) % 6, (2 * i + 4) % 6
        return RefinementResult(bnd, [[a, a + 1, c], [a + 1, b, c]], Strategy.FALLBACK_BISECT)
    tol = geom_tol(p)
    candidates = []
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if not _diagonal_is_interior(p, i, j, tol):
                continue
            try:
                a = Polygon(p.coords[i : j + 1])
                b = Polygon(np.vstack([p.coords[j:], p.coords[: i + 1]]))
            except PolygonError:
                continue
            candidates.append((min(area(a), area(b)), i, j, (a, b)))
    if not candidates:
        raise RefinementError("no valid interior diagonal")
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    _, i, j, _ = next((c for c in candidates if validate_partition_reference(p, c[3])), candidates[0])
    chain = list(range(2 * i, 2 * j + 1, 2))
    rest = [k % (2 * n) for k in range(2 * j, 2 * (n + i) + 1, 2)]
    return RefinementResult(bnd, [chain, rest], Strategy.FALLBACK_BISECT)


def strictly_inside(p: Polygon, q, margin: float | None = None) -> bool:
    """Inside and farther than `margin` (default `geom_tol`) from the boundary."""
    if margin is None:
        margin = geom_tol(p)
    pt = np.asarray([[q[0], q[1]]], dtype=float)
    d = boundary_distances(p.coords, pt)[0]
    return bool(d > margin and (d <= 0.0 or odd_crossings(p.coords, pt)[0]))


def point_on_segment(q, a, b, tol: float) -> bool:
    """q lies on segment (a, b) within distance tol."""
    ab = (b[0] - a[0], b[1] - a[1])
    ab2 = ab[0] * ab[0] + ab[1] * ab[1]
    if ab2 == 0.0:
        return math.hypot(q[0] - a[0], q[1] - a[1]) <= tol
    t = ((q[0] - a[0]) * ab[0] + (q[1] - a[1]) * ab[1]) / ab2
    t = min(1.0, max(0.0, t))
    px, py = a[0] + t * ab[0], a[1] + t * ab[1]
    return math.hypot(q[0] - px, q[1] - py) <= tol


def _diagonal_is_interior(p: Polygon, i: int, j: int, tol: float) -> bool:
    a, b = p.coords[i], p.coords[j]
    mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    if not strictly_inside(p, mid, margin=tol):
        return False
    for k in range(p.n):
        if k not in (i, j) and point_on_segment(p.coords[k], a, b, tol):
            return False
    seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
    eps = 1e-13 * seg_len * seg_len
    c = p.coords
    cross = segments_straddle(segment_orientations(a, b, c.T, np.concatenate((c[1:], c[:1])).T), eps)
    cross[[i - 1, i, j - 1, j]] = False
    return not cross.any()


def validate_partition_reference(parent: Polygon, children) -> bool:
    if not children:
        return False
    total = sum(area(c) for c in children)
    pa = area(parent)
    if abs(total - pa) > 1e-10 * pa:
        return False
    tol = geom_tol(parent)
    all_verts = np.vstack([c.coords for c in children])
    if not contains_many(parent, all_verts, tol=max(tol, 1e-9 * diameter(parent))).all():
        return False
    if not contains_many(parent, np.array([centroid(c) for c in children]), tol=tol).all():
        return False
    return not _any_child_edges_cross(children)


def _any_child_edges_cross(polys) -> bool:
    a = np.vstack([c.coords for c in polys])
    b = np.vstack([np.concatenate((c.coords[1:], c.coords[:1])) for c in polys])
    owner = np.repeat(np.arange(len(polys)), [c.n for c in polys])
    scale = float(np.abs(a).max()) + 1e-300
    eps = 1e-13 * scale * scale
    d = segment_orientations(a.T[:, :, None], b.T[:, :, None], a.T[:, None, :], b.T[:, None, :])
    return bool((segments_straddle(d, eps) & (owner[:, None] != owner[None, :])).any())


def refine_element_reference(p: Polygon, strategy, classifier=None, rho=0.5, label=None) -> RefinementResult:
    strategy = Strategy(strategy)
    if strategy in CNN_STRATEGIES:
        if label is None:
            (label,) = classify(classifier, [p])
        label = max(3, min(int(label), p.n))
    try:
        if strategy == Strategy.FALLBACK_BISECT:
            raise RefinementError("bisection requested")
        if not strictly_inside(p, centroid(p)):
            raise RefinementError("centroid not strictly inside")
        res = _build_children(p, strategy, label, rho)
        coords = [res.points[loop] for loop in res.loops]
        if any(_signed_area(c) < 0 for c in coords):
            raise RefinementError("clockwise child")
        if not validate_partition_reference(p, [Polygon(c) for c in coords]):
            raise RefinementError("children do not partition the element")
        return res
    except (RefinementError, PolygonError):
        return fallback_bisect_reference(p)


def refine_mesh_reference(mesh, marks, strategy, classifier=None, rho=0.5):
    """(new mesh, created, strategy_counts) of an element-by-element pass."""
    marks = sorted(set(map(int, marks)))
    if marks and (marks[0] < 0 or marks[-1] >= mesh.n_elements):
        raise MeshError("mark index out of range")
    labels = [None] * len(marks)
    if marks and Strategy(strategy) in CNN_STRATEGIES:
        labels = classify(classifier, [mesh.polygon(eid) for eid in marks])
    work = _WorkingMesh(mesh)
    counts: dict[str, int] = {}
    for eid, label in zip(marks, labels):
        res = refine_element_reference(work.polygon(eid), strategy, classifier, rho, label)
        work.replace(eid, res)
        counts[res.strategy_used.value] = counts.get(res.strategy_used.value, 0) + 1
    new_mesh, report = work.finish(mesh.n_elements)
    new_mesh._check_conformity()
    return new_mesh, report.created, counts
