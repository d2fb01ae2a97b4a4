"""Polygonal mesh container, initial-grid generators and refinement driver.

Meshes are conforming: a hanging node is an aligned vertex of every element
loop it touches, so no vertex lies strictly inside another element's edge.
`PolyMesh.validate` rejects a T-junction, naming the element and the vertex;
every loaded and generated mesh passes through it, and refinement relies on
it (a hanging node splits exactly one shared edge). A loop is checked once:
a refinement pass runs only the conformity half of `validate` over its
output, since `refine_element` has checked every child and the pass changes
other loops only by inserting edge midpoints.

Within one refinement pass the marked elements are processed sequentially:
each element is refined against the current mesh, so it sees the boundary
points inserted by elements processed earlier in the same pass (this is
what makes midpoint refinement counts grow the way they do on conforming
grids). The classifier is the exception: a CNN pass labels every marked
element once, before it refines any, from the loops as the pass found them
(see `refine_mesh_report`). The hanging nodes that earlier elements insert
are aligned vertices, which change neither the raster nor the corner count.

A `PolyMesh` lays its loops out once, in a loop table: CSR `offsets` into
the flat vertex ids `indices`, the vertex-count groups, and `edges`: each
loop position's directed edge (a, b), its `element` and how many elements
have that edge (`shared`). The conformity check, `h`, `total_area`,
`boundary_vertices` and the VEM kernels read the table, not the loops.

A refinement result names its children's vertices by index (see
`refine`): even index 2i is vertex i of the element's loop, odd index
2i + 1 is a new vertex that splits edge i in the neighbour still holding
it, and an interior row is a new vertex. The pass maps them to vertex ids
directly; it never compares coordinates.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import (
    Polygon,
    PolygonError,
    _signed_area,
    area_centroid,
    diameters,
    signed_areas,
)
from .refine import CNN_STRATEGIES, RefinementResult, Strategy, classify, refine_element


class MeshError(ValueError):
    pass


def _vertex_ids(eid: int, loop) -> list[int]:
    """The entries of element `eid`'s loop as ints; a float or a bool raises."""
    loop = list(loop)
    try:
        if bool not in map(type, loop):
            return list(map(operator.index, loop))
    except TypeError:  # an entry without __index__, such as a float
        pass
    bad = next(v for v in loop if isinstance(v, bool) or not isinstance(v, (int, np.integer)))
    raise MeshError(f"element {eid}: vertex index {bad!r} is not an integer")


def _vertex_array(vertices) -> np.ndarray:
    """The vertices as an (n, 2) float64 array of finite coordinates."""
    try:
        v = np.asarray(vertices, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise MeshError(f"vertices are not an (n, 2) array of numbers: {e}") from None
    if v.size == 0:
        return v.reshape(0, 2)
    if v.ndim != 2 or v.shape[1] != 2:
        raise MeshError(f"vertices must be shaped (n, 2), not {v.shape}")
    bad = ~np.isfinite(v).all(axis=1)
    if bad.any():
        raise MeshError(f"vertex {int(np.argmax(bad))}: non-finite coordinate")
    return v


def _loop_table(elements: list[list[int]], n_vertices: int):
    """The loop table of `elements` (see the module docstring)."""
    sizes = np.fromiter(map(len, elements), np.intp, len(elements))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.fromiter(chain.from_iterable(elements), np.intp, int(offsets[-1]))
    groups = [np.flatnonzero(sizes == n) for n in np.unique(sizes)]
    groups = [(ids, indices[offsets[ids, None] + np.arange(sizes[ids[0]])]) for ids in groups]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    start = offsets[owner]
    b = indices[start + (np.arange(len(indices)) - start + 1) % sizes[owner]]
    keys = np.minimum(indices, b) * n_vertices + np.maximum(indices, b)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    edges = np.rec.fromarrays((indices, b, owner, counts[inverse]), names="a,b,element,shared")
    return offsets, indices, groups, edges


class PolyMesh:
    """Vertices plus CCW vertex-index loops, one per element, and their loop table.

    `validate=True` checks the loops (see `validate`), so `polygon(i)` can
    wrap them without checking them again. With `validate=False` the caller
    vouches that every loop is simple and counter-clockwise.
    """

    def __init__(self, vertices, elements, validate: bool = True):
        self.vertices = _vertex_array(vertices)
        self.elements = [_vertex_ids(eid, loop) for eid, loop in enumerate(elements)]
        try:
            self.offsets, self.indices, self._groups, self.edges = _loop_table(self.elements, len(self.vertices))
        except OverflowError:  # a vertex id beyond int64, which _check_loops names
            self._check_loops()
        if validate:
            self.validate()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def polygon(self, i: int) -> Polygon:
        return Polygon.trusted(self.vertices[self.elements[i]])

    def polygons(self) -> list[Polygon]:
        return [self.polygon(i) for i in range(self.n_elements)]

    def vertex_count_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each vertex count n, in increasing order: the ids of the
        elements with n vertices (ascending) and their loops as a (G, n)
        index array, so `vertices[loops]` is a (G, n, 2) coordinate stack."""
        return self._groups

    def per_element(self, kernel) -> np.ndarray:
        """`kernel` (such as `diameters`) of each group's (G, n, 2) stack, in element order."""
        out = np.empty(self.n_elements)
        for ids, loops in self._groups:
            out[ids] = kernel(self.vertices[loops])
        return out

    @property
    def h(self) -> float:
        return float(self.per_element(diameters).max())

    def total_area(self) -> float:
        return sum(self.per_element(signed_areas).tolist())

    def boundary_vertices(self) -> np.ndarray:
        """Sorted ids of the vertices on an edge of exactly one element."""
        single = self.edges[self.edges["shared"] == 1]
        return np.unique(np.concatenate((single["a"], single["b"])))

    def validate(self) -> None:
        """Raise MeshError naming the element unless both checks below pass."""
        self._check_loops()
        self._check_conformity()

    def _check_loops(self) -> None:
        """Each loop on its own: at least 3 distinct in-range vertices,
        a simple polygon, counter-clockwise."""
        n = self.n_vertices
        for eid, loop in enumerate(self.elements):
            if len(loop) < 3:
                raise MeshError(f"element {eid}: fewer than 3 vertices")
            if any(v < 0 or v >= n for v in loop):
                raise MeshError(f"element {eid}: vertex index out of range")
            if len(set(loop)) != len(loop):
                raise MeshError(f"element {eid}: repeated vertex in loop")
            coords = self.vertices[loop]
            try:
                Polygon(coords)
            except PolygonError as e:
                raise MeshError(f"element {eid}: {e}") from e
            if _signed_area(coords) < 0:
                raise MeshError(f"element {eid}: clockwise loop")

    def _check_conformity(self) -> None:
        """How the loops meet: each directed edge once (so, as no loop
        repeats a vertex, no edge is in more than two elements), and no
        vertex strictly inside another element's edge."""
        e = self.edges
        keys = e["a"] * self.n_vertices + e["b"]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        dup = np.flatnonzero(first[inverse] != np.arange(len(e)))
        if len(dup):
            a, b, eid, _ = e[dup[0]].tolist()
            raise MeshError(f"element {eid}: duplicated directed edge {(a, b)}")
        # A T-junction leaves the edge that holds the vertex, and the edges
        # that meet at the vertex along it, with one incident element each:
        # scan only single-incidence edges, against their endpoints.
        single = e[e["shared"] == 1].tolist()
        if not single:
            return
        v = self.vertices
        tol = 1e-9 * float(np.hypot(*np.ptp(v, axis=0)))
        ends = self.boundary_vertices()
        ends = ends[np.argsort(v[ends, 0], kind="stable")]
        xs = v[ends, 0]
        for a, b, eid, _ in single:
            a, b = min(a, b), max(a, b)
            (xa, ya), (xb, yb) = v[a], v[b]
            lo = np.searchsorted(xs, min(xa, xb) - tol, "left")
            hi = np.searchsorted(xs, max(xa, xb) + tol, "right")
            near = ends[lo:hi]
            near = near[(v[near, 1] >= min(ya, yb) - tol) & (v[near, 1] <= max(ya, yb) + tol)]
            inside, _ = _inside_edge(v[a], v[b], v[near], tol)
            if inside.any():
                raise MeshError(
                    f"element {eid}: vertex {near[inside][0]} lies on edge ({a},{b})"
                    " but not in the loop"
                )


# ---------------------------------------------------------------------------
# vertex registry with tolerant lookup
# ---------------------------------------------------------------------------

class _VertexRegistry:
    """Tolerant point lookup for merging the near-equal corners of clipped
    cells: `add` returns the nearest registered point within tol (the lower
    id on a tie), or registers a new one."""

    def __init__(self, tol: float):
        self.tol = tol
        self.cell = max(tol * 8.0, 1e-300)
        self.points: list[tuple[float, float]] = []
        self.grid: dict[tuple[int, int], list[int]] = {}

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell)), int(math.floor(y / self.cell)))

    def add(self, x: float, y: float) -> int:
        kx, ky = self._key(x, y)
        near = [
            (math.hypot(self.points[vid][0] - x, self.points[vid][1] - y), vid)
            for ix in (kx - 1, kx, kx + 1)
            for iy in (ky - 1, ky, ky + 1)
            for vid in self.grid.get((ix, iy), ())
        ]
        d, vid = min(near, default=(math.inf, None))
        if d <= self.tol:
            return vid
        vid = len(self.points)
        self.points.append((x, y))
        self.grid.setdefault((kx, ky), []).append(vid)
        return vid


# ---------------------------------------------------------------------------
# refinement driver
# ---------------------------------------------------------------------------

@dataclass
class RefinePassReport:
    created: list[int] = field(default_factory=list)  # new-mesh element indices
    strategy_counts: dict[str, int] = field(default_factory=dict)


class _WorkingMesh:
    def __init__(self, mesh: PolyMesh):
        self.points: list[list[float]] = mesh.vertices.tolist()
        self.loops: list[list[int] | None] = [list(l) for l in mesh.elements]
        self.children_of: dict[int, list[int]] = {}
        self.edge_map: dict[tuple[int, int], set[int]] = {}
        for eid, loop in enumerate(mesh.elements):
            self._add_edges(eid, loop)

    # -- edge bookkeeping ---------------------------------------------------
    def _edge_key(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _add_edges(self, eid: int, loop: list[int]) -> None:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            self.edge_map.setdefault(self._edge_key(a, b), set()).add(eid)

    def _remove_edges(self, eid: int, loop: list[int]) -> None:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = self._edge_key(a, b)
            self.edge_map[key].discard(eid)
            if not self.edge_map[key]:
                del self.edge_map[key]

    # -- element replacement -------------------------------------------------
    def polygon(self, eid: int) -> Polygon:
        return Polygon.trusted([self.points[v] for v in self.loops[eid]])

    def replace(self, eid: int, res: RefinementResult) -> None:
        """Swap element eid for the children of `res`, a refinement of
        `polygon(eid)`. An even index 2i is vertex i of the old loop; any
        other row becomes a new vertex, and an odd one, 2i + 1, also splits
        edge i in the neighbour that holds it. The mesh is conforming, so that
        edge is still in `edge_map` unless it lies on the domain boundary."""
        old = self.loops[eid]
        n = len(old)
        self._remove_edges(eid, old)
        self.loops[eid] = None
        vid = {k: old[k // 2] for k in range(0, 2 * n, 2)}
        for k in sorted({k for loop in res.loops for k in loop}.difference(vid)):
            vid[k] = len(self.points)
            self.points.append(res.points[k].tolist())
            if k < 2 * n:  # the midpoint of edge k // 2
                key = self._edge_key(old[k // 2], old[(k // 2 + 1) % n])
                if key in self.edge_map:
                    self._split_edge(key, vid[k])
        ids = []
        for child in res.loops:
            cid = len(self.loops)
            self.loops.append([vid[k] for k in child])
            self._add_edges(cid, self.loops[cid])
            ids.append(cid)
        self.children_of[eid] = ids

    def _split_edge(self, key: tuple[int, int], vid: int) -> None:
        elems = self.edge_map.pop(key)
        a, b = key
        for eid in elems:
            loop = self.loops[eid]
            for k, (u, w) in enumerate(zip(loop, loop[1:] + loop[:1])):
                if (u, w) in ((a, b), (b, a)):
                    loop.insert(k + 1, vid)
                    break
            else:
                raise MeshError("edge not found in incident element loop")
            for half in ((a, vid), (vid, b)):
                self.edge_map.setdefault(self._edge_key(*half), set()).add(eid)

    # -- output ---------------------------------------------------------------
    def finish(self, n_original: int) -> tuple[PolyMesh, RefinePassReport]:
        """The new mesh, each refined element's children in its slot, with
        vertices numbered in order of first use."""
        slots = [c for eid in range(n_original) for c in self.children_of.get(eid, [eid])]
        used: dict[int, int] = {}
        elements = [[used.setdefault(v, len(used)) for v in self.loops[s]] for s in slots]
        mesh = PolyMesh(np.asarray([self.points[v] for v in used]), elements, validate=False)
        return mesh, RefinePassReport([k for k, s in enumerate(slots) if s >= n_original])


def refine_mesh_report(
    mesh: PolyMesh,
    marks,
    strategy: Strategy | str,
    classifier=None,
    rho: float = 0.5,
) -> tuple[PolyMesh, RefinePassReport]:
    """Refine the marked elements (integer element indices) sequentially.

    A CNN strategy labels the marked elements by one `refine.classify` call
    (one `classify_polygons` batch call for a Network, one call per element
    for a per-polygon callable) on their loops as the pass found them, then
    refines each with its label. `refine_element` has checked each child, so
    the pass checks only how the loops of the new mesh meet
    (`PolyMesh._check_conformity`)."""
    marks = list(marks)
    for m in marks:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise MeshError(f"mark {m!r} is not an element index")
    marks = sorted(set(map(int, marks)))
    if marks and (marks[0] < 0 or marks[-1] >= mesh.n_elements):
        raise MeshError("mark index out of range")
    labels = [None] * len(marks)
    if marks and Strategy(strategy) in CNN_STRATEGIES:
        labels = classify(classifier, [mesh.polygon(eid) for eid in marks])
    work = _WorkingMesh(mesh)
    strategy_counts: dict[str, int] = {}
    for eid, label in zip(marks, labels):
        res = refine_element(work.polygon(eid), strategy, classifier, rho, label)
        work.replace(eid, res)
        name = res.strategy_used.value
        strategy_counts[name] = strategy_counts.get(name, 0) + 1
    new_mesh, report = work.finish(mesh.n_elements)
    report.strategy_counts = strategy_counts
    new_mesh._check_conformity()
    return new_mesh, report


def refine_mesh(
    mesh: PolyMesh,
    marks,
    strategy: Strategy | str,
    classifier=None,
    rho: float = 0.5,
) -> PolyMesh:
    new_mesh, _ = refine_mesh_report(mesh, marks, strategy, classifier, rho)
    return new_mesh


def mark_fixed_fraction(errors, r: float):
    """Indices of the ceil(r*N) largest errors; ties go to the lower index."""
    errors = np.asarray(errors, dtype=float)
    n = len(errors)
    if not 0.0 < r <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    k = int(math.ceil(r * n))
    order = np.lexsort((np.arange(n), -errors))
    return sorted(int(i) for i in order[:k])


# ---------------------------------------------------------------------------
# initial grids on (0,1)^2
# ---------------------------------------------------------------------------

def generate_triangle_grid(n: int) -> PolyMesh:
    """Structured n x n grid of squares, each split along one diagonal."""
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: j * (n + 1) + i
    verts = [(x, y) for y in xs for x in xs]
    elements = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            elements.append([a, b, c])
            elements.append([a, c, d])
    return PolyMesh(np.asarray(verts), elements)


_UNIT_BOX = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _clip_halfplane(pts: np.ndarray, normal, offset: float) -> np.ndarray:
    """Keep the part of the polygon with normal . x <= offset."""
    out = []
    m = len(pts)
    d = pts @ np.asarray(normal) - offset
    for i in range(m):
        j = (i + 1) % m
        if d[i] <= 1e-14:
            out.append(pts[i])
        if (d[i] < -1e-14 and d[j] > 1e-14) or (d[i] > 1e-14 and d[j] < -1e-14):
            t = d[i] / (d[i] - d[j])
            out.append(pts[i] + t * (pts[j] - pts[i]))
    return np.asarray(out) if out else np.empty((0, 2))


def _voronoi_cells(seeds: np.ndarray) -> list[np.ndarray]:
    cells = []
    for i, s in enumerate(seeds):
        poly = _UNIT_BOX.copy()
        for j, t in enumerate(seeds):
            if i == j or len(poly) == 0:
                continue
            n = t - s
            c = float(n @ (0.5 * (s + t)))
            poly = _clip_halfplane(poly, n, c)
        if len(poly) < 3:
            raise MeshError("degenerate Voronoi cell; choose a different seed")
        keep = [
            k
            for k in range(len(poly))
            if np.hypot(*(poly[k] - poly[k - 1])) > 1e-12
        ]
        cells.append(poly[keep])
    return cells


def _mesh_from_cells(cells: list[np.ndarray]) -> PolyMesh:
    reg = _VertexRegistry(tol=1e-9)
    loops = []
    for cell in cells:
        loop = [reg.add(float(x), float(y)) for x, y in cell]
        loops.append([v for k, v in enumerate(loop) if v != loop[(k - 1) % len(loop)]])
    coords = np.asarray(reg.points)
    loops = _make_conforming(coords, loops, tol=1e-9)
    return PolyMesh(coords, loops)


def _inside_edge(pa: np.ndarray, pb: np.ndarray, pts: np.ndarray, tol: float):
    """Mask of the points (m, 2) strictly inside segment (pa, pb), that is
    within tol of it and projecting more than tol from either end; and the
    projection parameters t (0 at pa, 1 at pb)."""
    ab = pb - pa
    ab2 = float(ab @ ab)
    t = ((pts - pa) @ ab) / ab2
    proj = pa + np.clip(t, 0.0, 1.0)[:, None] * ab
    dist = np.hypot(*(pts - proj).T)
    eps_t = tol / math.sqrt(ab2)
    return (dist <= tol) & (t > eps_t) & (t < 1.0 - eps_t), t


def _make_conforming(coords: np.ndarray, loops: list[list[int]], tol: float) -> list[list[int]]:
    """Insert every vertex that falls strictly inside another element's edge."""
    out = []
    for loop in loops:
        rebuilt: list[int] = []
        n = len(loop)
        for k in range(n):
            a, b = loop[k], loop[(k + 1) % n]
            rebuilt.append(a)
            inside, t = _inside_edge(coords[a], coords[b], coords, tol)
            rebuilt.extend(sorted((int(h) for h in np.where(inside)[0]), key=lambda h: t[h]))
        out.append(rebuilt)
    return out


def generate_voronoi_grid(n_seeds: int, seed: int = 0) -> PolyMesh:
    rng = np.random.default_rng(seed)
    seeds = rng.uniform(0.08, 0.92, size=(n_seeds, 2))
    return _mesh_from_cells(_voronoi_cells(seeds))


def generate_smoothed_voronoi_grid(
    n_seeds: int, lloyd_iters: int = 20, seed: int = 0
) -> PolyMesh:
    rng = np.random.default_rng(seed)
    seeds = rng.uniform(0.08, 0.92, size=(n_seeds, 2))
    for _ in range(lloyd_iters):
        cells = _voronoi_cells(seeds)
        seeds = np.asarray([area_centroid(Polygon(c)) for c in cells])
    return _mesh_from_cells(_voronoi_cells(seeds))


def generate_nonconvex_grid() -> PolyMesh:
    """14 chevron-style non-convex cells tiling the unit square.

    Two columns of seven rows separated by sagging zigzag interfaces; every
    cell has exactly one reflex vertex (the ridge of a neighboring row poking
    into it) yet stays star-shaped about its vertex average, so the midpoint
    strategy refines it without falling back.
    """
    rows = 7
    h = 1.0 / rows
    d = h / 5.0  # ridge depth; keeps midpoint-fan children valid (see tests)

    def interface(x0: float, w: float, k: int) -> list[tuple[float, float]]:
        """Interior points of the boundary between rows k-1 and k, left to
        right. Rows 1-2 sag down, row 3 gets a W (one sag each way), rows
        4-6 sag up; each sag hands a reflex vertex to one adjacent row."""
        y = k * h
        if k <= 2:
            return [(x0 + 0.5 * w, y - d)]
        if k == 3:
            return [(x0 + 0.25 * w, y - d), (x0 + 0.5 * w, y), (x0 + 0.75 * w, y + d)]
        return [(x0 + 0.5 * w, y + d)]

    cells = []
    ncols = 2
    w = 1.0 / ncols
    for col in range(ncols):
        x0 = col * w
        for k in range(rows):
            bottom = [(x0, k * h)] + (interface(x0, w, k) if k > 0 else []) + [(x0 + w, k * h)]
            top = [(x0 + w, (k + 1) * h)] + (
                list(reversed(interface(x0, w, k + 1))) if k < rows - 1 else []
            ) + [(x0, (k + 1) * h)]
            cells.append(np.asarray(bottom + top))
    return _mesh_from_cells(cells)


GRID_GENERATORS = {
    "triangles": lambda seed=0: generate_triangle_grid(4),
    "voronoi": lambda seed=0: generate_voronoi_grid(9, seed=seed),
    "smoothed": lambda seed=0: generate_smoothed_voronoi_grid(10, seed=seed),
    "nonconvex": lambda seed=0: generate_nonconvex_grid(),
}


# ---------------------------------------------------------------------------
# mesh file format
# ---------------------------------------------------------------------------

def save_mesh(mesh: PolyMesh, path) -> None:
    lines = ["POLYMESH 1", f"{mesh.n_vertices} {mesh.n_elements}"]
    lines.extend(f"{repr(float(x))} {repr(float(y))}" for x, y in mesh.vertices)
    lines.extend(
        f"{len(loop)} " + " ".join(str(v) for v in loop) for loop in mesh.elements
    )
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> PolyMesh:
    """Read a POLYMESH 1 file; a malformed, truncated or overlong file raises
    MeshError naming its 1-based line, an invalid element names the element."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode().splitlines()
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise MeshError(f"line {line}: not UTF-8 text (byte {e.start})") from None
    rows = iter([(k, l.split()) for k, l in enumerate(lines, 1) if l.strip()])

    def fields(what: str, parse, ok) -> list:
        k, toks = next(rows, (len(lines) + 1, None))
        if toks is None:
            raise MeshError(f"line {k}: expected the {what}, found the end of the file")
        try:
            vals = [parse(t) for t in toks]
        except ValueError:
            raise MeshError(f"line {k}: non-numeric {what}") from None
        if not ok(vals):
            raise MeshError(f"line {k}: malformed {what}")
        return vals

    fields("POLYMESH 1 header", str, lambda v: v == ["POLYMESH", "1"])
    nv, ne = fields("vertex and element counts", int, lambda v: len(v) == 2 and min(v) >= 0)
    verts = [
        fields(f"vertex {i}", float, lambda v: len(v) == 2 and all(map(math.isfinite, v)))
        for i in range(nv)
    ]
    elements = [
        fields(f"element {i}", int, lambda v: len(v) == v[0] + 1)[1:] for i in range(ne)
    ]
    extra = next(rows, None)
    if extra is not None:
        raise MeshError(f"line {extra[0]}: unexpected content after the last element")
    return PolyMesh(np.asarray(verts), elements)
