"""Single-element refinement strategies for polygonal meshes.

A strategy (`refine_mp`, the CNN-MP fan, `template_triangle`,
`template_regular`) builds the children of one element or raises; it does
not check them. `refine_elements` is the one place that classifies, tests the
centroid, checks the children, validates the partition and falls back to
bisection, for any number of elements at once: the centroid tests and the
checks of every child run as stacked kernels per vertex-count group.
`refine_element` is its one-element case, and `validate_partition` that of
its partition check.

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

from . import geometry
from .geometry import (
    REL_TOL,
    Polygon,
    PolygonError,
    _next,
    _signed_area,
    boundary_distances,
    centroid,
    corner_count,
    diameters,
    edge_lengths,
    edge_midpoints,
    geom_tol,
    loop_faults,
    odd_crossings,
    points_strictly_inside,
    segment_orientations,
    segments_straddle,
    signed_areas,
)

# Enumeration cap for the representative-vertex subset search, and the
# subsets whose distance blocks are gathered at once.
_MAX_SUBSETS = 200_000
_SUBSET_CHUNK = 4096
# Bound on the (parents, edges, edges) arrays of the child-edge crossing test.
_CROSS_ENTRIES = 2**16


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

    Produces one quad per stored vertex; `refine_elements` has checked that
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
    triangle at the midpoint of its longest edge.

    Every diagonal is tested at once (`_interior_diagonals`). The survivors
    are tried most balanced first, by (-min(half areas), i, j), and their
    halves are built as checked Polygons one pair at a time: the first pair
    that partitions p wins, else the first pair that built (a strongly
    non-convex chain half can put its vertex average outside).
    """
    n, bnd = p.n, _boundary(p)
    if n == 3:
        i = int(np.argmax(edge_lengths(p.coords)))
        a, b, c = 2 * i, (2 * i + 2) % 6, (2 * i + 4) % 6
        return RefinementResult(bnd, [[a, a + 1, c], [a + 1, b, c]], Strategy.FALLBACK_BISECT)

    i, j = np.triu_indices(n, 2)
    wrap = (i == 0) & (j == n - 1)  # adjacent through the wrap
    i, j = i[~wrap], j[~wrap]
    keep = _interior_diagonals(p.coords, i, j, geom_tol(p))
    halves = {
        (a, b): (p.coords[a : b + 1], np.vstack([p.coords[b:], p.coords[: a + 1]]))
        for a, b in zip(i[keep].tolist(), j[keep].tolist())
    }
    balance = {ij: min(_signed_area(h) for h in pair) for ij, pair in halves.items()}
    chosen = None
    for ij in sorted(halves, key=lambda ij: (-balance[ij], *ij)):
        try:
            pair = [Polygon(h) for h in halves[ij]]
        except PolygonError:
            continue
        chosen = chosen or ij
        if validate_partition(p, pair):
            chosen = ij
            break
    if chosen is None:
        raise RefinementError("no valid interior diagonal")
    i, j = chosen
    chain = list(range(2 * i, 2 * j + 1, 2))  # vertices i..j, as even rows
    rest = [k % (2 * n) for k in range(2 * j, 2 * (n + i) + 1, 2)]  # vertices j..n-1, 0..i
    return RefinementResult(bnd, [chain, rest], Strategy.FALLBACK_BISECT)


def _interior_diagonals(coords: np.ndarray, i: np.ndarray, j: np.ndarray, tol: float) -> np.ndarray:
    """Which diagonals (i[r], j[r]) of a CCW loop are interior: the midpoint
    lies inside, farther than tol from the boundary; no other vertex lies
    within tol of the diagonal; no edge crosses it properly."""
    a, b = coords[i], coords[j]
    ok = points_strictly_inside(coords, 0.5 * (a + b), tol)
    # distance from each vertex to each diagonal
    ab = b - a
    ab2 = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]
    t = (coords[:, 0] - a[:, None, 0]) * ab[:, None, 0] + (coords[:, 1] - a[:, None, 1]) * ab[:, None, 1]
    t = np.clip(t / ab2[:, None], 0.0, 1.0)
    dx = coords[:, 0] - (a[:, None, 0] + t * ab[:, None, 0])
    dy = coords[:, 1] - (a[:, None, 1] + t * ab[:, None, 1])
    dist = np.hypot(dx, dy)
    # np.hypot and math.hypot may round one unit apart; this close to tol,
    # math.hypot decides, as in the element-by-element search that made the
    # recorded meshes
    for r, k in zip(*np.nonzero(np.abs(dist - tol) <= 1e-15 * tol)):
        dist[r, k] = math.hypot(dx[r, k], dy[r, k])
    rows = np.arange(len(i))
    on = dist <= tol
    on[rows, i] = on[rows, j] = False
    seg = np.array([math.hypot(x, y) for x, y in ab.tolist()])
    eps = 1e-13 * seg * seg
    c, nxt = coords.T[:, None, :], _next(coords).T[:, None, :]
    cross = segments_straddle(segment_orientations(a.T[:, :, None], b.T[:, :, None], c, nxt), eps[:, None])
    for k in (i - 1, i, j - 1, j):  # the edges that end at a or b
        cross[rows, k] = False
    return ok & ~on.any(axis=1) & ~cross.any(axis=1)


# ---------------------------------------------------------------------------
# child and partition checks, stacked per vertex-count group
# ---------------------------------------------------------------------------

def _by_vertex_count(loops: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each vertex count among the (n, 2) loops: their positions and
    their (G, n, 2) stack."""
    by_n: dict[int, list[int]] = {}
    for k, c in enumerate(loops):
        by_n.setdefault(len(c), []).append(k)
    return [(np.array(ids), np.stack([loops[k] for k in ids])) for ids in by_n.values()]


def _loop_stats(loops: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed area, vertex mean and verdict of each (n, 2) loop: none of
    the `loop_faults` (the checks of `Polygon` but the simplicity test) and
    counter-clockwise."""
    areas, means, good = np.empty(len(loops)), np.empty((len(loops), 2)), np.empty(len(loops), bool)
    for ids, c in _by_vertex_count(loops):
        s, faults = loop_faults(c)
        areas[ids], means[ids], good[ids] = s, c.mean(axis=1), ~np.any(faults, axis=0) & (s > 0)
    return areas, means, good


def _partitions_valid(
    groups: list[tuple[np.ndarray, np.ndarray]],
    diam: np.ndarray,
    children: list[list[np.ndarray]],
    areas: np.ndarray,
    means: np.ndarray,
) -> np.ndarray:
    """Whether the children of each parent loop partition it: their areas
    sum to the parent's, their vertices and vertex means lie inside it, and
    no edges of two children cross properly. `groups` is `_by_vertex_count`
    of the parent loops, `diam` their diameters; children are coordinate
    loops, and `areas` and `means` their `_loop_stats`, parent by parent. A
    parent without children fails."""
    counts = np.fromiter(map(len, children), np.intp, len(children))
    ok = counts > 0
    loops = [c for ch in children for c in ch]
    if not loops:
        return ok
    first = np.cumsum(counts) - counts  # each parent's first child
    listed = areas.tolist()
    total = np.array([sum(listed[f : f + c]) for f, c in zip(first.tolist(), counts.tolist())])  # in child order
    # rows start[k]:start[k] + size[k] of `verts` hold every child vertex of
    # parent k, and row n_verts + i the vertex mean of child i; `nxt` is the
    # row of the next vertex in the same child, `child` the child of a row
    sizes = np.fromiter(map(len, loops), np.intp, len(loops))
    ends = np.cumsum(sizes)
    n_verts = int(ends[-1])
    bounds = np.concatenate(([0], ends))
    start, size = bounds[first], bounds[first + counts] - bounds[first]
    verts = np.concatenate(loops + [means])
    nxt = np.arange(1, n_verts + 1)
    nxt[ends - 1] -= sizes
    child = np.repeat(np.arange(len(loops)), sizes)
    # the points to contain, row k for parent k: its child vertices, within
    # max(tol, 1e-9 diam) of the boundary counting as inside, then the
    # vertex means of its children, within tol; padding (row 0) passes
    tol = REL_TOL * diam
    col = np.arange((size + counts).max())
    is_vert, real = col < size[:, None], col < (size + counts)[:, None]
    at = np.where(real, np.where(is_vert, start[:, None], n_verts + first[:, None] - size[:, None]) + col, 0)
    lim = np.where(real, np.where(is_vert, np.maximum(tol, 1e-9 * diam)[:, None], tol[:, None]), np.inf)
    for ids, coords in groups:
        pa = signed_areas(coords)
        pts = verts[at[ids]]
        inside = (odd_crossings(coords, pts) | (boundary_distances(coords, pts) <= lim[ids])).all(axis=1)
        ok[ids] &= inside & ~(np.abs(total[ids] - pa) > 1e-10 * pa)
    # every pair of edges of each remaining parent's children; shorter
    # parents are padded with zero-length edges at their first vertex, which
    # cross nothing
    rows = np.flatnonzero(ok)
    if not len(rows):
        return ok
    col = np.arange(size[rows].max())
    step = max(1, _CROSS_ENTRIES // (len(col) * len(col)))
    for part in (rows[i : i + step] for i in range(0, len(rows), step)):
        real = col < size[part, None]
        at = start[part, None] + np.where(real, col, 0)
        a, b, own = verts[at], verts[np.where(real, nxt[at], at)], child[at]
        scale = np.abs(a).max(axis=(1, 2)) + 1e-300
        d = segment_orientations(
            (a[..., 0, None], a[..., 1, None]),
            (b[..., 0, None], b[..., 1, None]),
            (a[:, None, :, 0], a[:, None, :, 1]),
            (b[:, None, :, 0], b[:, None, :, 1]),
        )
        cross = segments_straddle(d, (1e-13 * scale * scale)[:, None, None])
        ok[part] &= ~(cross & (own[:, :, None] != own[:, None, :])).any(axis=(1, 2))
    return ok


def validate_partition(parent: Polygon, children: list[Polygon]) -> bool:
    """The children (simple CCW polygons) have their vertices and vertex
    means inside the parent, no proper edge crossings between children, and
    areas summing to the parent's: `_partitions_valid` of one parent."""
    loops = [c.coords for c in children]
    areas, means, _ = _loop_stats(loops)
    groups = _by_vertex_count([parent.coords])
    return bool(_partitions_valid(groups, diameters(parent.coords[None]), [loops], areas, means)[0])


def _children_valid(
    groups: list[tuple[np.ndarray, np.ndarray]], diam: np.ndarray, results: list[RefinementResult | None]
) -> np.ndarray:
    """Whether each result (None fails) has children that pass `_loop_stats`
    and `_is_simple` and partition their parent (`_partitions_valid`, with
    `groups` and `diam` of the parents). The simplicity test runs last, once
    per child of a result that passed the rest, through the geometry module
    (its one definition)."""
    children = [[] if res is None else [res.points[loop] for loop in res.loops] for res in results]
    areas, means, good = _loop_stats([c for ch in children for c in ch])
    ok = _partitions_valid(groups, diam, children, areas, means)
    ok[np.repeat(np.arange(len(children)), [len(ch) for ch in children])[~good]] = False  # a child failed
    for k in np.flatnonzero(ok).tolist():
        ok[k] = all(geometry._is_simple(c) for c in children[k])
    return ok


# ---------------------------------------------------------------------------
# strategy dispatch
# ---------------------------------------------------------------------------

def refine_elements(
    polys: list[Polygon],
    strategy: Strategy | str,
    classifier=None,
    rho: float = 0.5,
    labels: list[int] | None = None,
) -> list[RefinementResult]:
    """Refine each polygon with the requested strategy, falling back to
    bisection wherever the strategy cannot produce a valid partition.

    `rho`, the CNN-RP inner-polygon scale, must lie strictly between 0 and
    1 (ValueError). A CNN strategy takes `labels` if given (a refinement pass
    classifies its marked elements at once), else the classifier's labels
    of polys (see `classify`; its errors propagate), and clamps each to
    [3, n]. Then each centroid must be strictly inside, the strategy builds
    the children, each child loop must be a simple CCW polygon (the one check
    of template output), and the children must partition their polygon. The
    centroid tests and the checks of all children run stacked, per
    vertex-count group; the templates are built one polygon at a time.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly between 0 and 1, got {rho}")
    strategy = Strategy(strategy)
    if strategy in CNN_STRATEGIES:
        if labels is None:
            labels = classify(classifier, polys)
        labels = [max(3, min(int(label), p.n)) for p, label in zip(polys, labels)]
    else:
        labels = [None] * len(polys)
    results, ok = [None] * len(polys), np.zeros(len(polys), bool)
    if strategy != Strategy.FALLBACK_BISECT and polys:
        groups = _by_vertex_count([p.coords for p in polys])
        diam, inside = np.empty(len(polys)), np.empty(len(polys), bool)
        for ids, coords in groups:
            diam[ids] = diameters(coords)
            inside[ids] = points_strictly_inside(coords, coords.mean(axis=1)[:, None], REL_TOL * diam[ids, None])[:, 0]
        for k in np.flatnonzero(inside).tolist():
            try:
                results[k] = _build_children(polys[k], strategy, labels[k], rho)
            except RefinementError:
                pass
        ok = _children_valid(groups, diam, results)
    return [results[k] if ok[k] else fallback_bisect(p) for k, p in enumerate(polys)]


def refine_element(
    p: Polygon,
    strategy: Strategy | str,
    classifier=None,
    rho: float = 0.5,
    label: int | None = None,
) -> RefinementResult:
    """`refine_elements` of one polygon, with `label` its label if given."""
    return refine_elements([p], strategy, classifier, rho, None if label is None else [label])[0]


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
