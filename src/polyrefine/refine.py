"""Single-element refinement strategies for polygonal meshes.

A strategy (`refine_mp`, the CNN-MP fan, `template_triangle`,
`template_regular`) builds the children of one element or raises; it does
not check them. `refine_element` is the one place that classifies, tests the
centroid, validates the partition and falls back to bisection.

The classifier-driven strategies accept either a plain callable mapping a
Polygon to an integer label (3 = triangle, 4 = quad, ...) or any object with
a ``classify_polygon`` method (e.g. a trained Network).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    Point2,
    Polygon,
    PolygonError,
    area,
    centroid,
    contains,
    contains_many,
    corner_count,
    diameter,
    edge_lengths,
    edge_midpoints,
    geom_tol,
    point_on_segment,
    segment_orientations,
    segment_point,
    segments_straddle,
    strictly_inside,
)

# Enumeration cap for the representative-vertex subset search.
_MAX_SUBSETS = 200_000


class Strategy(str, Enum):
    MP = "mp"
    CNN_MP = "cnn-mp"
    CNN_RP = "cnn-rp"
    FALLBACK_BISECT = "fallback-bisect"


class RefinementError(ValueError):
    pass


@dataclass
class RefinementResult:
    children: list[Polygon]
    new_boundary_points: list[Point2]
    strategy_used: Strategy


@dataclass(frozen=True)
class _BoundaryPoint:
    s: float  # arc-length parameter along the loop
    point: Point2
    vertex_index: int | None  # index into the loop when the point is a vertex


def _as_classifier(obj):
    if obj is None:
        raise TypeError("a classifier is required for CNN strategies")
    method = getattr(obj, "classify_polygon", None)
    if method is not None:
        return method
    if callable(obj):
        return obj
    raise TypeError("classifier must be callable or expose classify_polygon()")


def _vertex_arcs(p: Polygon) -> tuple[np.ndarray, float]:
    lens = edge_lengths(p)
    starts = np.concatenate([[0.0], np.cumsum(lens)[:-1]])
    return starts, float(lens.sum())


# ---------------------------------------------------------------------------
# plain mid-point strategy
# ---------------------------------------------------------------------------

def refine_mp(p: Polygon) -> RefinementResult:
    """Connect every edge midpoint to the vertex-average centroid.

    Produces one quad per stored vertex; `refine_element` has checked that
    the centroid is strictly inside.
    """
    c = centroid(p)
    mids = edge_midpoints(p)
    verts = p.vertices
    children = [Polygon((verts[i], mids[i], c, mids[i - 1])) for i in range(p.n)]
    return RefinementResult(children, list(mids), Strategy.MP)


# ---------------------------------------------------------------------------
# refinement-point identification (shared by CNN-MP and CNN-RP)
# ---------------------------------------------------------------------------

def select_representative_vertices(p: Polygon, label: int) -> list[Point2]:
    """The label-sized vertex subset maximizing the sum of pairwise distances."""
    idx = _representative_indices(p, label)
    return [Point2(float(p.coords[i, 0]), float(p.coords[i, 1])) for i in idx]


def _representative_indices(p: Polygon, label: int) -> list[int]:
    n = p.n
    if label >= n:
        return list(range(n))
    dist = np.hypot(
        p.coords[:, None, 0] - p.coords[None, :, 0],
        p.coords[:, None, 1] - p.coords[None, :, 1],
    )
    if math.comb(n, label) <= _MAX_SUBSETS:
        best, best_sum = None, -1.0
        for combo in itertools.combinations(range(n), label):
            s = float(dist[np.ix_(combo, combo)].sum())
            if s > best_sum + 1e-15:
                best, best_sum = combo, s
        return list(best)
    # Greedy fallback for pathological vertex counts.
    i0, j0 = np.unravel_index(int(np.argmax(dist)), dist.shape)
    chosen = [int(i0), int(j0)]
    while len(chosen) < label:
        gains = dist[:, chosen].sum(axis=1)
        gains[chosen] = -np.inf
        chosen.append(int(np.argmax(gains)))
    return sorted(chosen)


def _candidate_points(p: Polygon) -> list[_BoundaryPoint]:
    starts, _ = _vertex_arcs(p)
    lens = edge_lengths(p)
    out = [
        _BoundaryPoint(float(starts[i]), Point2(float(p.coords[i, 0]), float(p.coords[i, 1])), i)
        for i in range(p.n)
    ]
    mids = edge_midpoints(p)
    out.extend(
        _BoundaryPoint(float(starts[i] + 0.5 * lens[i]), mids[i], None)
        for i in range(p.n)
    )
    return out


def _refinement_points(p: Polygon, label: int) -> list[_BoundaryPoint]:
    rep = _representative_indices(p, label)
    rep_pts = p.coords[rep]
    hat_mids = 0.5 * (rep_pts + np.roll(rep_pts, -1, axis=0))
    c = centroid(p)
    cands = _candidate_points(p)
    cxy = np.array([[bp.point.x, bp.point.y] for bp in cands])
    d_c = np.hypot(cxy[:, 0] - c.x, cxy[:, 1] - c.y)
    chosen: dict[float, _BoundaryPoint] = {}
    for m in hat_mids:
        d_m = np.hypot(cxy[:, 0] - m[0], cxy[:, 1] - m[1])
        # closest to the representative midpoint, then closest to c_P
        bp = cands[int(np.lexsort((d_c, d_m))[0])]
        chosen[bp.s] = bp
    return sorted(chosen.values(), key=lambda bp: bp.s)


def refinement_points(p: Polygon, label: int) -> list[Point2]:
    """Boundary points acting as edge midpoints of the approximating polygon."""
    return [bp.point for bp in _refinement_points(p, label)]


def _walk(p: Polygon, a: _BoundaryPoint, b: _BoundaryPoint) -> list[Point2]:
    """Points from a to b CCW along the boundary, inclusive of both ends."""
    starts, per = _vertex_arcs(p)
    eps = 1e-12 * per
    sb = b.s if b.s > a.s + eps else b.s + per
    inner = []
    for i in range(p.n):
        for base in (0.0, per):
            s = starts[i] + base
            if a.s + eps < s < sb - eps:
                inner.append((s, Point2(float(p.coords[i, 0]), float(p.coords[i, 1]))))
    inner.sort(key=lambda t: t[0])
    return [a.point] + [pt for _, pt in inner] + [b.point]


def _new_points(rps: list[_BoundaryPoint]) -> list[Point2]:
    """Refinement points that are not vertices: hanging nodes for neighbours."""
    return [bp.point for bp in rps if bp.vertex_index is None]


# ---------------------------------------------------------------------------
# CNN-enhanced mid-point strategy
# ---------------------------------------------------------------------------

def _fan(p: Polygon, rps: list[_BoundaryPoint], tag: Strategy) -> RefinementResult:
    """Join each boundary walk between consecutive refinement points to the
    centroid: CNN-MP, and CNN-RP's quad template."""
    if len(rps) < 3:
        raise RefinementError("fan needs at least 3 refinement points")
    c = centroid(p)
    k = len(rps)
    children = [Polygon(_walk(p, rps[j], rps[(j + 1) % k]) + [c]) for j in range(k)]
    return RefinementResult(children, _new_points(rps), tag)


# ---------------------------------------------------------------------------
# reference-polygon templates
# ---------------------------------------------------------------------------

def template_triangle(p: Polygon, rps: list[_BoundaryPoint]) -> RefinementResult:
    """Connect three refinement points (from `_refinement_points`) into four
    triangle-like children."""
    if len(rps) != 3:
        raise RefinementError("triangle template needs exactly 3 points")
    loops = []
    for j in range(3):
        walk = _walk(p, rps[j], rps[(j + 1) % 3])
        if len(walk) < 3:
            raise RefinementError("empty boundary walk between refinement points")
        loops.append(walk)
    loops.append([rps[0].point, rps[1].point, rps[2].point])
    return RefinementResult([Polygon(loop) for loop in loops], _new_points(rps), Strategy.CNN_RP)


def template_regular(p: Polygon, rps: list[_BoundaryPoint], rho: float = 0.5) -> RefinementResult:
    """Inner scaled polygon plus one boundary pentagon per refinement point
    (from `_refinement_points`)."""
    k = len(rps)
    if k < 3:
        raise RefinementError("regular template needs at least 3 points")
    c = centroid(p)
    inner = [
        Point2(c.x + rho * (bp.point.x - c.x), c.y + rho * (bp.point.y - c.y))
        for bp in rps
    ]
    loops = [list(inner)]
    for j in range(k):
        walk = _walk(p, rps[j - 1], rps[j])
        loops.append(walk + [inner[j], inner[j - 1]])
    return RefinementResult([Polygon(loop) for loop in loops], _new_points(rps), Strategy.CNN_RP)


# ---------------------------------------------------------------------------
# fallback bisection
# ---------------------------------------------------------------------------

def fallback_bisect(p: Polygon) -> RefinementResult:
    """Split into two comparable children along an interior diagonal."""
    if p.n == 3:
        lens = edge_lengths(p)
        i = int(np.argmax(lens))
        v = p.vertices
        m = segment_point(v[i], v[(i + 1) % 3], 0.5)
        children = [
            Polygon((v[i], m, v[(i + 2) % 3])),
            Polygon((m, v[(i + 1) % 3], v[(i + 2) % 3])),
        ]
        return RefinementResult(children, [m], Strategy.FALLBACK_BISECT)

    n = p.n
    tol = geom_tol(p)
    candidates = []
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent through the wrap
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
    # most balanced split first; prefer pairs passing the partition checks
    # (a strongly non-convex chain child can put its vertex average outside)
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    for _, _, _, pair in candidates:
        if validate_partition(p, pair):
            return RefinementResult(list(pair), [], Strategy.FALLBACK_BISECT)
    return RefinementResult(list(candidates[0][3]), [], Strategy.FALLBACK_BISECT)


def _diagonal_is_interior(p: Polygon, i: int, j: int, tol: float) -> bool:
    a, b = p.coords[i], p.coords[j]
    mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    if not strictly_inside(p, mid, margin=tol):
        return False
    n = p.n
    for k in range(n):
        if k not in (i, j) and point_on_segment(p.coords[k], a, b, tol):
            return False
    seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
    eps = 1e-13 * seg_len * seg_len
    c = p.coords
    cross = segments_straddle(segment_orientations(a, b, c.T, np.roll(c, -1, axis=0).T), eps)
    cross[[i - 1, i, j - 1, j]] = False  # the edges that end at a or b
    return not cross.any()


# ---------------------------------------------------------------------------
# partition validity
# ---------------------------------------------------------------------------

def validate_partition(parent: Polygon, children: list[Polygon]) -> bool:
    """The children (simple CCW polygons) have their vertices and centroids
    inside the parent, no proper edge crossings between children, and areas
    summing to the parent's."""
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
    for c in children:
        if not contains(parent, centroid(c)):
            return False
    return not _any_child_edges_cross(children)


def _any_child_edges_cross(polys: list[Polygon]) -> bool:
    a = np.vstack([c.coords for c in polys])
    b = np.vstack([np.roll(c.coords, -1, axis=0) for c in polys])
    owner = np.repeat(np.arange(len(polys)), [c.n for c in polys])
    scale = float(np.abs(a).max()) + 1e-300
    eps = 1e-13 * scale * scale
    # every pair of edges at once, masked to pairs from different children
    d = segment_orientations(a.T[:, :, None], b.T[:, :, None], a.T[:, None, :], b.T[:, None, :])
    return bool((segments_straddle(d, eps) & (owner[:, None] != owner[None, :])).any())


# ---------------------------------------------------------------------------
# strategy dispatch
# ---------------------------------------------------------------------------

def refine_element(
    p: Polygon,
    strategy: Strategy | str,
    classifier=None,
    rho: float = 0.5,
) -> RefinementResult:
    """Refine one element with the requested strategy, falling back to
    bisection whenever the strategy cannot produce a valid partition.

    The classifier runs first (its errors propagate) and its label is
    clamped to [3, p.n]. Then the centroid must be strictly inside, the
    strategy builds the children, and the children must partition p.
    """
    strategy = Strategy(strategy)
    label = None
    if strategy in (Strategy.CNN_MP, Strategy.CNN_RP):
        label = max(3, min(int(_as_classifier(classifier)(p)), p.n))
    try:
        if strategy == Strategy.FALLBACK_BISECT:
            raise RefinementError("bisection requested")
        if not strictly_inside(p, centroid(p)):
            raise RefinementError("centroid not strictly inside")
        res = _build_children(p, strategy, label, rho)
        if not validate_partition(p, res.children):
            raise RefinementError("children do not partition the element")
        return res
    except (RefinementError, PolygonError):
        return fallback_bisect(p)


def _build_children(
    p: Polygon, strategy: Strategy, label: int | None, rho: float
) -> RefinementResult:
    """CNN-RP dispatches on the label: 3 -> triangles, 4 -> quad fan,
    >= 5 -> inner regular polygon with boundary pentagons."""
    if strategy == Strategy.MP:
        return refine_mp(p)
    rps = _refinement_points(p, label)
    if strategy == Strategy.CNN_RP and label == 3:
        return template_triangle(p, rps)
    if strategy == Strategy.CNN_RP and label >= 5:
        return template_regular(p, rps, rho)
    return _fan(p, rps, strategy)


def corner_label(p: Polygon, max_label: int = 6, angle_tol: float = 1e-6) -> int:
    """Geometric stand-in classifier: count non-straight corners, clamped."""
    return max(3, min(max_label, corner_count(p, angle_tol)))
