"""2D geometric kernel for simple polygons.

A point is a row of a float64 (k, 2) array. Vertex loops are stored
counter-clockwise; clockwise input is reversed on construction. Aligned
(collinear) vertices are legal and preserved, since meshes with hanging
nodes rely on them. `Polygon(...)` checks its input (`loop_faults`, the
stacked checks a refinement pass also runs on its children, then
`_is_simple`); `Polygon.trusted(...)` wraps coordinates derived from
checked geometry. Measures are kernels over (..., n, 2) loop stacks; a
one-polygon function is their one-row case.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

# Relative geometric tolerance: absolute tolerances are REL_TOL * diameter.
REL_TOL = 1e-10


class PolygonError(ValueError):
    """Vertex loop does not describe a valid simple polygon."""


def _next(coords: np.ndarray) -> np.ndarray:
    """Vertex i + 1 of each loop in row i of a (..., n, 2) stack."""
    return np.concatenate((coords[..., 1:, :], coords[..., :1, :]), axis=-2)


def signed_areas(coords: np.ndarray) -> np.ndarray:
    """Shoelace signed area of each loop in a (..., n, 2) stack."""
    x, y, nxt = coords[..., 0], coords[..., 1], _next(coords)
    return 0.5 * (x * nxt[..., 1] - nxt[..., 0] * y).sum(-1)


def _signed_area(coords: np.ndarray) -> float:
    return float(signed_areas(coords))


def segment_orientations(p1, p2, p3, p4):
    """Twice the signed areas of the triangles (p3, p4, p1), (p3, p4, p2),
    (p1, p2, p3) and (p1, p2, p4): positive where the point lies left of the
    other segment's direction.

    Plain arithmetic on p[0] and p[1], so a point may be a pair of floats, a
    coordinate row, or a pair of broadcasting arrays (one test per element).
    """
    d43x, d43y = p4[0] - p3[0], p4[1] - p3[1]
    d21x, d21y = p2[0] - p1[0], p2[1] - p1[1]
    return (
        d43x * (p1[1] - p3[1]) - d43y * (p1[0] - p3[0]),
        d43x * (p2[1] - p3[1]) - d43y * (p2[0] - p3[0]),
        d21x * (p3[1] - p1[1]) - d21y * (p3[0] - p1[0]),
        d21x * (p4[1] - p1[1]) - d21y * (p4[0] - p1[0]),
    )


def segments_straddle(d, eps: float):
    """Given `segment_orientations`, each segment's endpoints lie on opposite
    sides of the other's line by more than eps: a proper crossing."""
    d1, d2, d3, d4 = d
    return (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & (
        ((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps))
    )


def _touch_eps(pts: list) -> float:
    """1e-13 times the square of the largest coordinate offset from the
    vertex mean of a loop of [x, y] pairs. The mean is added up in order, as
    numpy adds an (n, 2) array along its first axis, so the bits are those
    of `np.abs(coords - coords.mean(axis=0)).max()` (the built-in `sum`
    compensates its rounding from Python 3.12 on)."""
    mx = my = 0.0
    for x, y in pts:
        mx += x
        my += y
    mx, my = mx / len(pts), my / len(pts)
    scale = max(max(abs(x - mx), abs(y - my)) for x, y in pts) + 1e-300
    return 1e-13 * scale * scale


def _is_simple(coords: np.ndarray) -> bool:
    """No two non-adjacent edges cross or touch. An endpoint touches the
    other edge when it is within eps of that edge's line and inside its
    bounding box widened by eps."""
    n = len(coords)
    pts = coords.tolist()
    eps = _touch_eps(pts)

    def in_box(c, a, b):
        return (
            min(a[0], b[0]) - eps <= c[0] <= max(a[0], b[0]) + eps
            and min(a[1], b[1]) - eps <= c[1] <= max(a[1], b[1]) + eps
        )

    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        # edges i + 1 and i - 1 share an endpoint with edge i
        for j in range(i + 2, n - 1 if i == 0 else n):
            b1, b2 = pts[j], pts[(j + 1) % n]
            d1, d2, d3, d4 = d = segment_orientations(a1, a2, b1, b2)
            if segments_straddle(d, eps) or (
                (abs(d1) <= eps and in_box(a1, b1, b2))
                or (abs(d2) <= eps and in_box(a2, b1, b2))
                or (abs(d3) <= eps and in_box(b1, a1, a2))
                or (abs(d4) <= eps and in_box(b2, a1, a2))
            ):
                return False
    return True


LOOP_FAULTS = ("non-finite vertex coordinates", "degenerate polygon (zero area)", "repeated consecutive vertices")


def loop_faults(coords: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Signed area and faults of each loop in a (..., n, 2) stack. Fault k,
    a (...) mask, is LOOP_FAULTS[k]: a non-finite coordinate, |area| <=
    1e-14 diag^2, or an edge no longer than 1e-13 diag, where diag is the
    diagonal of the loop's bounding box; a loop's first fault names it.
    These are the checks of `Polygon` but the simplicity test (`_is_simple`)."""
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite loop
        span = coords.max(axis=-2) - coords.min(axis=-2)
        diag = np.hypot(span[..., 0], span[..., 1]) + 1e-300
        areas = signed_areas(coords)
        short = edge_lengths(coords) <= (1e-13 * diag)[..., None]
    finite = np.isfinite(coords).all(axis=(-2, -1))
    return areas, (~finite, np.abs(areas) <= 1e-14 * diag * diag, short.any(axis=-1))


class Polygon:
    """Simple CCW polygon over an immutable (n, 2) float64 coordinate array."""

    __slots__ = ("coords",)

    def __init__(self, vertices: Sequence) -> None:
        try:
            arr = np.array(vertices, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise PolygonError(f"vertices are not an (n, 2) array of numbers: {e}") from None
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise PolygonError(f"vertices must be shaped (n, 2), not {arr.shape}")
        if arr.shape[0] < 3:
            raise PolygonError("polygon needs at least 3 vertices")
        signed, faults = loop_faults(arr)
        for fault, message in zip(faults, LOOP_FAULTS):
            if fault:
                raise PolygonError(message)
        if signed < 0:
            arr = arr[::-1].copy()
        if not _is_simple(arr):
            raise PolygonError("self-intersecting loop")
        arr.setflags(write=False)
        self.coords = arr

    @classmethod
    def trusted(cls, coords) -> "Polygon":
        """Wrap a read-only float64 copy of coordinates already known to form
        a simple CCW loop (an element of a validated mesh, an orientation-
        preserving affine image of a Polygon) without checking them again."""
        p = cls.__new__(cls)
        p.coords = np.array(coords, dtype=np.float64)
        p.coords.setflags(write=False)
        return p

    @property
    def n(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"Polygon({self.n} vertices)"


def centroid(p: Polygon) -> np.ndarray:
    """Arithmetic mean of the vertex coordinates (not the area centroid)."""
    return p.coords.mean(axis=0)


def area_centroid(p: Polygon) -> np.ndarray:
    """Center of mass of the enclosed region (used by Lloyd smoothing)."""
    x, y = p.coords[:, 0], p.coords[:, 1]
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return np.array([cx, cy])


def area(p: Polygon) -> float:
    return _signed_area(p.coords)


def diameters(coords: np.ndarray) -> np.ndarray:
    """Max pairwise vertex distance of each loop in a (..., n, 2) stack
    (attained at vertices for a polygon)."""
    d = coords[..., :, None, :] - coords[..., None, :, :]
    return np.sqrt((d * d).sum(axis=-1).max(axis=(-2, -1)))


def diameter(p: Polygon) -> float:
    return float(diameters(p.coords))


def edge_lengths(coords: np.ndarray) -> np.ndarray:
    """Length of edge i (vertex i to i + 1) of each loop in a (..., n, 2) stack."""
    d = _next(coords) - coords
    return np.hypot(d[..., 0], d[..., 1])


def edge_midpoints(p: Polygon) -> np.ndarray:
    """Midpoint of edge i (from vertex i to vertex i + 1) in row i."""
    return 0.5 * (p.coords + _next(p.coords))


def geom_tol(p: Polygon) -> float:
    return REL_TOL * diameter(p)


def boundary_distances(coords: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Min distance from each point of a (..., m, 2) stack to the boundary of
    the matching loop of a (..., n, 2) stack, shaped (..., m)."""
    a = coords[..., None, :, :]  # (..., 1, n, 2)
    ab = _next(coords)[..., None, :, :] - a
    ap = pts[..., :, None, :] - a  # (..., m, n, 2)
    t = np.clip((ap * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    d = pts[..., :, None, :] - (a + t[..., None] * ab)
    return np.hypot(d[..., 0], d[..., 1]).min(axis=-1)


def odd_crossings(coords: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """A rightward ray from each point of a (..., m, 2) stack crosses the
    matching loop of a (..., n, 2) stack an odd number of times: (..., m)."""
    a, b = coords[..., None, :, :], _next(coords)[..., None, :, :]
    x, y = pts[..., 0:1], pts[..., 1:2]  # (..., m, 1)
    x1, y1, x2, y2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]  # (..., 1, n)
    straddle = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return ((straddle & (xcross > x)).sum(axis=-1) % 2) == 1


def distance_to_boundary(p: Polygon, pts: np.ndarray) -> np.ndarray:
    """Min distance from each point (m, 2) to the polygon boundary."""
    return boundary_distances(p.coords, np.atleast_2d(np.asarray(pts, dtype=float)))


def points_strictly_inside(coords: np.ndarray, pts: np.ndarray, margin) -> np.ndarray:
    """Each point of a (..., m, 2) stack lies inside the matching loop of a
    (..., n, 2) stack and farther than `margin` (broadcast to (..., m)) from
    its boundary: (..., m). Past the margin the ray test decides, and a
    boundary distance <= 0 counts as inside (only for a negative margin)."""
    d = boundary_distances(coords, pts)
    return (d > margin) & ((d <= 0.0) | odd_crossings(coords, pts))


def interior_angles(coords: np.ndarray) -> np.ndarray:
    """Interior angle at each vertex of each loop in a (..., n, 2) stack, in
    (0, 2*pi); aligned vertices give pi."""
    u = coords - np.concatenate((coords[..., -1:, :], coords[..., :-1, :]), axis=-2)  # incoming edge
    v = _next(coords) - coords  # outgoing edge direction
    return np.pi - np.arctan2(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0], (u * v).sum(axis=-1))


def corner_count(p: Polygon, angle_tol: float = 1e-6) -> int:
    """Number of vertices whose interior angle differs from pi (true corners)."""
    return int(np.sum(np.abs(interior_angles(p.coords) - np.pi) > angle_tol))


def _solve(system: np.ndarray, rhs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Stacked 3x3 solves; a system outside `ok` gives NaN."""
    system[~ok] = np.eye(3)
    x = np.linalg.solve(system, rhs[..., None])[..., 0]
    x[~ok] = np.nan
    return x


def _equidistant_centres(c: np.ndarray, b: np.ndarray, m: int, tri: np.ndarray) -> np.ndarray:
    """Points (x, y, r) that satisfy the three feature equations of each triple.

    Row g of c (G, f, 3) and b (G, f) holds the features of loop g; the
    triples tri (t, 3) are shared, and the result is (G, t' <= 2t, 3).
    Feature f reads s_f * (|x|^2 - r^2) + c_f . (x, y, r) = b_f: m lines
    (s = 0), then points (s = 1). Three lines are one linear solve. Else the
    last feature is a point; subtracting its equation from the other two
    leaves two planes, whose line of intersection p0 + t * d meets it at the
    roots of a quadratic in t. Near-singular triples give NaN.
    """
    lin, quad = tri[tri[:, 2] < m], tri[tri[:, 2] >= m]
    system = c[:, lin]  # parallel lines: no centre
    out = [_solve(system, b[:, lin], np.abs(np.linalg.det(system)) > 1e-12)]
    if not len(quad):
        return out[0]
    k, ij = quad[:, 2], quad[:, :2]
    ck, bk = c[:, k], b[:, k]
    rows, beta = c[:, ij] - (ij >= m)[:, :, None] * ck[:, :, None, :], b[:, ij] - (ij >= m) * bk[..., None]
    d = np.cross(rows[..., 0, :], rows[..., 1, :])
    ok = (d * d).sum(axis=-1) > 1e-24 * (rows * rows).sum(axis=-1).prod(axis=-1)
    system = np.concatenate([rows, d[..., None, :]], axis=-2)  # det = |d|^2
    p0 = _solve(system, np.concatenate([beta, np.zeros_like(bk)[..., None]], axis=-1), ok)
    sig = np.array([1.0, 1.0, -1.0])  # |x|^2 - r^2
    qa = (sig * d * d).sum(axis=-1)
    qb = 2.0 * (sig * p0 * d).sum(axis=-1) + (ck * d).sum(axis=-1)
    qc = (sig * p0 * p0).sum(axis=-1) + (ck * p0).sum(axis=-1) - bk
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    return np.concatenate(out + [p0 + t[..., None] * d for t in (q / qa, qc / q)], axis=-2)


def inscribed_radii(coords: np.ndarray) -> np.ndarray:
    """Radius of the largest inscribed circle of each loop in a (G, n, 2)
    stack, exact up to rounding.

    The features are the supporting lines of the edges and the reflex
    vertices. The distance to the boundary peaks at a vertex of the medial
    axis, which is equidistant from three features, so the candidates are
    the equidistant centres of every triple of features. The result is the
    largest boundary distance of a candidate inside the loop: a true
    boundary distance, hence never above the exact radius. Computed in a
    frame centred on the vertex mean and scaled by the diameter; the cost
    grows as the cube of the vertex count. Loops with the same numbers of
    corner lines and reflex vertices share one triple list, solved and
    tested as stacked (loops, candidates, n) arrays in chunks of at most
    2**18 // n (loop, triple) pairs.
    """
    scale = diameters(coords)
    a = (coords - coords.mean(axis=-2, keepdims=True)) / scale[:, None, None]
    u = _next(a) - a
    u /= np.hypot(u[..., 0], u[..., 1])[..., None]  # unit edge directions
    up = np.concatenate((u[:, -1:], u[:, :-1]), axis=1)
    sine = up[..., 0] * u[..., 1] - up[..., 1] * u[..., 0]  # turn at each vertex
    corner, reflex = np.abs(sine) > 1e-12, sine < -1e-12  # collinear edges (an aligned vertex) share one line
    n_corner, n_reflex = corner.sum(1), reflex.sum(1)
    best, step = np.zeros(len(a)), 1 + 2**18 // a.shape[1]  # bounds the (loops, candidates, n) arrays
    for m, r in sorted(set(zip(n_corner.tolist(), n_reflex.tolist()))):
        rows = np.flatnonzero((n_corner == m) & (n_reflex == r))
        edge = u[rows][corner[rows]].reshape(len(rows), m, 2)
        normal = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)
        pts = a[rows][reflex[rows]].reshape(len(rows), r, 2)
        # lines n . x - r = n . a_i (inward unit n), points |x - v|^2 = r^2
        c = np.zeros((len(rows), m + r, 3))
        c[:, :m, :2], c[:, :m, 2], c[:, m:, :2] = normal, -1.0, -2.0 * pts
        b = np.concatenate([(normal * a[rows][corner[rows]].reshape(len(rows), m, 2)).sum(-1), -(pts * pts).sum(-1)], axis=1)
        tri = np.array(list(itertools.combinations(range(m + r), 3)), dtype=np.intp)
        n_rows = max(1, step // len(tri))  # a loop with more than `step` triples is split
        for i, j in itertools.product(range(0, len(rows), n_rows), range(0, len(tri), step)):
            loops = rows[i : i + n_rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                x = _equidistant_centres(c[i : i + n_rows], b[i : i + n_rows], m, tri[j : j + step])
                # finite candidates within the diameter of the vertex mean, inside the loop
                ok = np.isfinite(x).all(axis=-1) & (x[..., 0] ** 2 + x[..., 1] ** 2 <= 1.0)
                d = boundary_distances(a[loops], x[..., :2])
                inside = ok & (odd_crossings(a[loops], x[..., :2]) | (d <= 0.0))
            best[loops] = np.maximum(best[loops], np.where(inside, d, 0.0).max(axis=-1))
    return scale * best


def inscribed_radius(p: Polygon) -> float:
    """`inscribed_radii` of one polygon."""
    return float(inscribed_radii(p.coords[None])[0])


def regular_polygon(n: int, radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> Polygon:
    """Regular n-gon with given circumradius, centered at `center`."""
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])
    return Polygon(pts)
