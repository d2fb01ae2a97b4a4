"""2D geometric kernel for simple polygons.

A point is a row of a float64 (k, 2) array. Vertex loops are stored
counter-clockwise; clockwise input is reversed on construction. Aligned
(collinear) vertices are legal and preserved, since meshes with hanging
nodes rely on them. `Polygon(...)` checks its input; `Polygon.trusted(...)`
wraps coordinates derived from checked geometry.
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

# Relative geometric tolerance: absolute tolerances are REL_TOL * diameter.
REL_TOL = 1e-10


class PolygonError(ValueError):
    """Vertex loop does not describe a valid simple polygon."""


def signed_areas(coords: np.ndarray) -> np.ndarray:
    """Shoelace signed area of each loop in a (..., n, 2) stack."""
    x, y = coords[..., 0], coords[..., 1]
    nxt = np.concatenate((coords[..., 1:, :], coords[..., :1, :]), axis=-2)
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


def _is_simple(coords: np.ndarray) -> bool:
    """No two non-adjacent edges cross or touch. An endpoint touches the
    other edge when it is within eps of that edge's line and inside its
    bounding box widened by eps."""
    n = len(coords)
    scale = float(np.max(np.abs(coords - coords.mean(axis=0)))) + 1e-300
    eps = 1e-13 * scale * scale
    pts = coords.tolist()

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
        if not np.isfinite(arr).all():
            raise PolygonError("non-finite vertex coordinates")
        diag = float(np.hypot(*(arr.max(axis=0) - arr.min(axis=0)))) + 1e-300
        signed = _signed_area(arr)
        if abs(signed) <= 1e-14 * diag * diag:
            raise PolygonError("degenerate polygon (zero area)")
        if signed < 0:
            arr = arr[::-1].copy()
        gaps = np.hypot(*(np.concatenate((arr[1:], arr[:1])) - arr).T)
        if np.any(gaps <= 1e-13 * diag):
            raise PolygonError("repeated consecutive vertices")
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


def perimeter(p: Polygon) -> float:
    return float(np.sum(edge_lengths(p)))


def diameters(coords: np.ndarray) -> np.ndarray:
    """Max pairwise vertex distance of each loop in a (..., n, 2) stack
    (attained at vertices for a polygon)."""
    d = coords[..., :, None, :] - coords[..., None, :, :]
    return np.sqrt((d * d).sum(axis=-1).max(axis=(-2, -1)))


def diameter(p: Polygon) -> float:
    return float(diameters(p.coords))


def edge_lengths(p: Polygon) -> np.ndarray:
    return np.hypot(*(np.concatenate((p.coords[1:], p.coords[:1])) - p.coords).T)


def edge_midpoints(p: Polygon) -> np.ndarray:
    """Midpoint of edge i (from vertex i to vertex i + 1) in row i."""
    return 0.5 * (p.coords + np.concatenate((p.coords[1:], p.coords[:1])))


def geom_tol(p: Polygon) -> float:
    return REL_TOL * diameter(p)


def distance_to_boundary(p: Polygon, pts: np.ndarray) -> np.ndarray:
    """Min distance from each point (m, 2) to the polygon boundary."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = p.coords
    b = np.concatenate((a[1:], a[:1]))
    ab = b - a  # (n, 2)
    ab2 = (ab * ab).sum(axis=1)  # (n,)
    ap = pts[:, None, :] - a[None, :, :]  # (m, n, 2)
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / ab2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.hypot(*(pts[:, None, :] - proj).transpose(2, 0, 1))
    return d.min(axis=1)


def contains_many(p: Polygon, pts: np.ndarray, tol: float) -> np.ndarray:
    """Ray-crossing containment for points (m, 2); within tol of the boundary is inside."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = p.coords
    b = np.concatenate((a[1:], a[:1]))
    x, y = pts[:, 0:1], pts[:, 1:2]  # (m, 1)
    y1, y2 = a[None, :, 1], b[None, :, 1]
    x1, x2 = a[None, :, 0], b[None, :, 0]
    straddle = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    hits = straddle & (xcross > x)
    inside = (hits.sum(axis=1) % 2) == 1
    near = distance_to_boundary(p, pts) <= tol
    return inside | near


def strictly_inside(p: Polygon, q, margin: float | None = None) -> bool:
    """Inside and farther than `margin` from the boundary."""
    if margin is None:
        margin = geom_tol(p)
    pt = np.asarray([[q[0], q[1]]], dtype=float)
    if distance_to_boundary(p, pt)[0] <= margin:
        return False
    return bool(contains_many(p, pt, tol=0.0)[0])


def interior_angles(p: Polygon) -> np.ndarray:
    """Interior angle at each vertex, in (0, 2*pi); aligned vertices give pi."""
    prev = np.concatenate((p.coords[-1:], p.coords[:-1]))
    nxt = np.concatenate((p.coords[1:], p.coords[:1]))
    u = p.coords - prev  # incoming edge direction
    v = nxt - p.coords  # outgoing edge direction
    turn = np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0], (u * v).sum(axis=1))
    return np.pi - turn


def min_inner_angle(p: Polygon) -> float:
    return float(interior_angles(p).min())


def corner_count(p: Polygon, angle_tol: float = 1e-6) -> int:
    """Number of vertices whose interior angle differs from pi (true corners)."""
    return int(np.sum(np.abs(interior_angles(p) - np.pi) > angle_tol))


def is_convex(p: Polygon) -> bool:
    """All turns are left turns up to tolerance; aligned vertices are fine."""
    prev = np.concatenate((p.coords[-1:], p.coords[:-1]))
    nxt = np.concatenate((p.coords[1:], p.coords[:1]))
    u = p.coords - prev
    v = nxt - p.coords
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    lens = np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
    return bool(np.all(cross >= -REL_TOL * diameter(p) * np.sqrt(lens + 1e-300)))


def _equidistant_centres(c: np.ndarray, b: np.ndarray, m: int, tri: np.ndarray) -> np.ndarray:
    """Points (x, y, r) that satisfy the three feature equations of each triple.

    Feature f reads s_f * (|x|^2 - r^2) + c_f . (x, y, r) = b_f: m lines
    (s = 0), then points (s = 1). Three lines are one linear solve. Else the
    last feature is a point; subtracting its equation from the other two
    leaves two planes, whose line of intersection p0 + t * d meets it at the
    roots of a quadratic in t. Near-singular triples are skipped.
    """
    lin, quad = tri[tri[:, 2] < m], tri[tri[:, 2] >= m]
    lin = lin[np.abs(np.linalg.det(c[lin])) > 1e-12]  # parallel lines: no centre
    out = [np.linalg.solve(c[lin], b[lin][:, :, None])[:, :, 0]]
    if len(quad):
        k, ij = quad[:, 2], quad[:, :2]
        rows, beta = c[ij] - (ij >= m)[:, :, None] * c[k][:, None, :], b[ij] - (ij >= m) * b[k][:, None]
        d = np.cross(rows[:, 0], rows[:, 1])
        ok = (d * d).sum(axis=1) > 1e-24 * (rows * rows).sum(axis=2).prod(axis=1)
        rows, beta, d, k = rows[ok], beta[ok], d[ok], k[ok]
        system = np.concatenate([rows, d[:, None, :]], axis=1)  # det = |d|^2
        p0 = np.linalg.solve(system, np.column_stack([beta, np.zeros(len(d))])[:, :, None])[:, :, 0]
        sig = np.array([1.0, 1.0, -1.0])  # |x|^2 - r^2
        qa = (sig * d * d).sum(axis=1)
        qb = 2.0 * (sig * p0 * d).sum(axis=1) + (c[k] * d).sum(axis=1)
        qc = (sig * p0 * p0).sum(axis=1) + (c[k] * p0).sum(axis=1) - b[k]
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        with np.errstate(divide="ignore", invalid="ignore"):
            out += [p0 + t[:, None] * d for t in (q / qa, qc / q)]
    return np.vstack(out)


def inscribed_radius(p: Polygon) -> float:
    """Radius of the largest inscribed circle, exact up to rounding.

    The features are the supporting lines of the edges and the reflex
    vertices. The distance to the boundary peaks at a vertex of the medial
    axis, which is equidistant from three features, so the candidates are
    the equidistant centres of every triple of features. The result is the
    largest boundary distance of a candidate inside the polygon: a true
    boundary distance, hence never above the exact radius. Computed in a
    frame centred on the vertex mean and scaled by the diameter; the cost
    grows as the cube of the vertex count.
    """
    scale = diameter(p)
    a = (p.coords - p.coords.mean(axis=0)) / scale
    u = np.concatenate((a[1:], a[:1])) - a
    u /= np.hypot(u[:, 0], u[:, 1])[:, None]  # unit edge directions
    up = np.concatenate((u[-1:], u[:-1]))
    sine = up[:, 0] * u[:, 1] - up[:, 1] * u[:, 0]  # turn at each vertex
    corner = np.abs(sine) > 1e-12  # collinear edges (an aligned vertex) share one line
    normal = np.column_stack([-u[corner, 1], u[corner, 0]])
    reflex = a[sine < -1e-12]
    m = len(normal)
    # lines n . x - r = n . a_i (inward unit n), points |x - v|^2 = r^2
    c = np.zeros((m + len(reflex), 3))
    c[:m, :2], c[:m, 2], c[m:, :2] = normal, -1.0, -2.0 * reflex
    b = np.concatenate([(normal * a[corner]).sum(axis=1), -(reflex * reflex).sum(axis=1)])
    tri = np.array(list(itertools.combinations(range(len(b)), 3)), dtype=np.intp).reshape(-1, 3)
    local = Polygon.trusted(a)  # an affine image of p
    best, step = 0.0, 1 + 2**18 // len(a)  # bounds the (candidates, edges) arrays
    for start in range(0, len(tri), step):
        x = _equidistant_centres(c, b, m, tri[start : start + step])
        # finite candidates within the diameter of the vertex mean
        x = x[np.isfinite(x).all(axis=1) & (x[:, 0] ** 2 + x[:, 1] ** 2 <= 1.0), :2]
        d = distance_to_boundary(local, x[contains_many(local, x, tol=0.0)])
        best = max(best, float(d.max(initial=0.0)))
    return scale * best


def regular_polygon(n: int, radius: float = 1.0, center=(0.0, 0.0), phase: float = 0.0) -> Polygon:
    """Regular n-gon with given circumradius, centered at `center`."""
    ang = phase + 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])
    return Polygon(pts)


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
