"""Single-element refinement strategies for polygonal meshes.

A strategy (`refine_mp`, the CNN-MP fan, `template_triangle`,
`template_regular`) builds the children of one element or raises; it does
not check them. `refine_element` is the one place that classifies, tests the
centroid, checks the children, validates the partition and falls back to
bisection.

Index contract. A result's `points` start with the element's boundary
points in boundary order, vertex i in row 2i and the midpoint of edge i in
row 2i + 1 (`_boundary`), followed by its interior points (centroid, inner
polygon); each child is a CCW loop of row indices. So a refinement point is
one integer, the walk between two refinement points is both ends plus the
even indices between them, and the odd indices below 2n that the loops use
are the hanging nodes for the neighbours: a mesh refinement pass maps an
even index to the element's vertex, an odd one to a new vertex on the
element's edge, and an interior row to a new vertex, without comparing
coordinates.

The classifier-driven strategies take a classifier (see `classify`): an
object with a batch method ``classify_polygons`` (a trained Network), or a
callable mapping one Polygon to an integer label (3 = triangle, 4 = quad,
...), such as `corner_label` or a Network's ``classify_polygon``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    Polygon,
    PolygonError,
    _signed_area,
    area,
    centroid,
    contains_many,
    corner_count,
    diameter,
    edge_lengths,
    edge_midpoints,
    geom_tol,
    point_on_segment,
    segment_orientations,
    segments_straddle,
    strictly_inside,
)

# Enumeration cap for the representative-vertex subset search, and the
# subsets whose distance blocks are gathered at once.
_MAX_SUBSETS = 200_000
_SUBSET_CHUNK = 4096


class Strategy(str, Enum):
    MP = "mp"
    CNN_MP = "cnn-mp"
    CNN_RP = "cnn-rp"
    FALLBACK_BISECT = "fallback-bisect"


CNN_STRATEGIES = (Strategy.CNN_MP, Strategy.CNN_RP)


class RefinementError(ValueError):
    pass


@dataclass
class RefinementResult:
    points: np.ndarray  # (2n + m, 2): `_boundary` rows, then interior points
    loops: list[list[int]]  # one CCW loop of `points` rows per child
    strategy_used: Strategy

    @property
    def children(self) -> list[Polygon]:
        """The child polygons, as a view of `points` and `loops`."""
        return [Polygon.trusted(self.points[loop]) for loop in self.loops]


def classify(classifier, polys: list[Polygon]) -> list[int]:
    """The classifier's label of each polygon: one `classify_polygons(polys)`
    call if it has that method, else one call of the classifier per polygon."""
    if classifier is None:
        raise TypeError("a classifier is required for CNN strategies")
    batch = getattr(classifier, "classify_polygons", None)
    if batch is not None:
        return [int(label) for label in batch(polys)]
    if not callable(classifier):
        raise TypeError("classifier must be callable or expose classify_polygons()")
    return [int(classifier(p)) for p in polys]


# ---------------------------------------------------------------------------
# plain mid-point strategy
# ---------------------------------------------------------------------------

def refine_mp(p: Polygon) -> RefinementResult:
    """Connect every edge midpoint to the vertex-average centroid.

    Produces one quad per stored vertex; `refine_element` has checked that
    the centroid is strictly inside.
    """
    n = p.n
    points = np.vstack([_boundary(p), centroid(p)])
    loops = [[2 * i, 2 * i + 1, 2 * n, (2 * i - 1) % (2 * n)] for i in range(n)]
    return RefinementResult(points, loops, Strategy.MP)


# ---------------------------------------------------------------------------
# refinement-point identification (shared by CNN-MP and CNN-RP)
# ---------------------------------------------------------------------------

def select_representative_vertices(p: Polygon, label: int) -> list[int]:
    """Sorted indices of the label-sized vertex subset maximizing the sum of
    pairwise distances."""
    n = p.n
    if label >= n:
        return list(range(n))
    dist = np.hypot(
        p.coords[:, None, 0] - p.coords[None, :, 0],
        p.coords[:, None, 1] - p.coords[None, :, 1],
    )
    if math.comb(n, label) <= _MAX_SUBSETS:
        combos = _combinations(n, label)
        # each subset's (label, label) block of `dist`, summed as one row in row-major order
        sums = np.concatenate([
            dist[c[:, :, None], c[:, None, :]].reshape(len(c), -1).sum(axis=1)
            for c in np.split(combos, range(_SUBSET_CHUNK, len(combos), _SUBSET_CHUNK))
        ])
        # The first subset beating the best so far by more than 1e-15 becomes
        # the best; such a subset beats every earlier sum, so only the strict
        # running maxima need the scan.
        record = np.flatnonzero(sums > np.maximum.accumulate(np.concatenate(([-np.inf], sums[:-1]))))
        best, best_sum = None, -1.0
        for i, s in zip(record.tolist(), sums[record].tolist()):
            if s > best_sum + 1e-15:
                best, best_sum = i, s
        return combos[best].tolist()
    # Greedy fallback for pathological vertex counts.
    i0, j0 = np.unravel_index(int(np.argmax(dist)), dist.shape)
    chosen = [int(i0), int(j0)]
    while len(chosen) < label:
        gains = dist[:, chosen].sum(axis=1)
        gains[chosen] = -np.inf
        chosen.append(int(np.argmax(gains)))
    return sorted(chosen)


@functools.lru_cache(maxsize=32)
def _combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) as a read-only (comb(n, k), k) array, in
    `itertools.combinations` order, in the smallest unsigned dtype."""
    combos = itertools.combinations(range(n), k)
    out = np.array(list(combos), dtype=np.min_scalar_type(n)).reshape(-1, k)
    out.setflags(write=False)
    return out


def _boundary(p: Polygon) -> np.ndarray:
    """The (2n, 2) boundary candidates in boundary order: vertex i in row 2i,
    the midpoint of edge i in row 2i + 1."""
    out = np.empty((2 * p.n, 2))
    out[0::2], out[1::2] = p.coords, edge_midpoints(p)
    return out


def refinement_points(p: Polygon, label: int) -> list[int]:
    """Sorted, unique `_boundary` rows of the boundary points acting as edge
    midpoints of the approximating polygon: for each edge midpoint of the
    representative polygon, the nearest candidate (then the nearest to the
    centroid; then vertices before midpoints, by index)."""
    rep_pts = p.coords[select_representative_vertices(p, label)]
    hat_mids = 0.5 * (rep_pts + np.concatenate((rep_pts[1:], rep_pts[:1])))
    bnd, c = _boundary(p), centroid(p)
    d_c = np.hypot(bnd[:, 0] - c[0], bnd[:, 1] - c[1])
    odd = np.arange(2 * p.n) % 2
    chosen = set()
    for m in hat_mids:
        d_m = np.hypot(bnd[:, 0] - m[0], bnd[:, 1] - m[1])
        chosen.add(int(np.lexsort((odd, d_c, d_m))[0]))
    return sorted(chosen)


def _walk(m: int, a: int, b: int) -> list[int]:
    """`_boundary` rows (m of them) from index a to index b CCW along the
    boundary: both ends and the vertices (even indices) strictly between."""
    steps = (b - a - 1) % m + 1
    return [a] + [i % m for i in range(a + 1, a + steps) if i % 2 == 0] + [b]


# ---------------------------------------------------------------------------
# CNN-enhanced mid-point strategy
# ---------------------------------------------------------------------------

def _fan(p: Polygon, rps: list[int], tag: Strategy) -> RefinementResult:
    """Join each boundary walk between consecutive refinement points to the
    centroid: CNN-MP, and CNN-RP's quad template."""
    if len(rps) < 3:
        raise RefinementError("fan needs at least 3 refinement points")
    m, k = 2 * p.n, len(rps)
    loops = [_walk(m, rps[j], rps[(j + 1) % k]) + [m] for j in range(k)]
    return RefinementResult(np.vstack([_boundary(p), centroid(p)]), loops, tag)


# ---------------------------------------------------------------------------
# reference-polygon templates
# ---------------------------------------------------------------------------

def template_triangle(p: Polygon, rps: list[int]) -> RefinementResult:
    """Connect three refinement points (from `refinement_points`) into four
    triangle-like children."""
    if len(rps) != 3:
        raise RefinementError("triangle template needs exactly 3 points")
    loops = []
    for j in range(3):
        walk = _walk(2 * p.n, rps[j], rps[(j + 1) % 3])
        if len(walk) < 3:
            raise RefinementError("empty boundary walk between refinement points")
        loops.append(walk)
    loops.append(list(rps))
    return RefinementResult(_boundary(p), loops, Strategy.CNN_RP)


def template_regular(p: Polygon, rps: list[int], rho: float = 0.5) -> RefinementResult:
    """Inner scaled polygon plus one boundary pentagon per refinement point
    (from `refinement_points`)."""
    k = len(rps)
    if k < 3:
        raise RefinementError("regular template needs at least 3 points")
    bnd, c, m = _boundary(p), centroid(p), 2 * p.n
    inner = list(range(m, m + k))  # rows of the inner polygon's vertices
    loops = [inner] + [_walk(m, rps[j - 1], rps[j]) + [inner[j], inner[j - 1]] for j in range(k)]
    return RefinementResult(np.vstack([bnd, c + rho * (bnd[rps] - c)]), loops, Strategy.CNN_RP)


# ---------------------------------------------------------------------------
# fallback bisection
# ---------------------------------------------------------------------------

def fallback_bisect(p: Polygon) -> RefinementResult:
    """Split into two comparable children along an interior diagonal; a
    triangle at the midpoint of its longest edge."""
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
    _, i, j, _ = next((c for c in candidates if validate_partition(p, c[3])), candidates[0])
    chain = list(range(2 * i, 2 * j + 1, 2))  # vertices i..j, as even rows
    rest = [k % (2 * n) for k in range(2 * j, 2 * (n + i) + 1, 2)]  # vertices j..n-1, 0..i
    return RefinementResult(bnd, [chain, rest], Strategy.FALLBACK_BISECT)


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
    cross = segments_straddle(segment_orientations(a, b, c.T, np.concatenate((c[1:], c[:1])).T), eps)
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
    if not contains_many(parent, np.array([centroid(c) for c in children]), tol=tol).all():
        return False
    return not _any_child_edges_cross(children)


def _any_child_edges_cross(polys: list[Polygon]) -> bool:
    a = np.vstack([c.coords for c in polys])
    b = np.vstack([np.concatenate((c.coords[1:], c.coords[:1])) for c in polys])
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
    label: int | None = None,
) -> RefinementResult:
    """Refine one element with the requested strategy, falling back to
    bisection whenever the strategy cannot produce a valid partition.

    `rho`, the CNN-RP inner-polygon scale, must lie strictly between 0 and
    1 (ValueError). A CNN strategy takes `label` if given (a refinement pass
    classifies its marked elements at once), else the classifier's label of
    p (see `classify`; its errors propagate), and clamps it to [3, p.n].
    Then the centroid must be strictly inside, the strategy builds the
    children, each child loop must be a simple CCW polygon (the one check of
    template output), and the children must partition p.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
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
        if not validate_partition(p, [Polygon(c) for c in coords]):
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
    rps = refinement_points(p, label)
    if strategy == Strategy.CNN_RP and label == 3:
        return template_triangle(p, rps)
    if strategy == Strategy.CNN_RP and label >= 5:
        return template_regular(p, rps, rho)
    return _fan(p, rps, strategy)


def corner_label(p: Polygon, max_label: int = 6, angle_tol: float = 1e-6) -> int:
    """Geometric stand-in classifier: count non-straight corners, clamped."""
    return max(3, min(max_label, corner_count(p, angle_tol)))
