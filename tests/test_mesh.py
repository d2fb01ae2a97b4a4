import numpy as np
import pytest
from conftest import assert_loop_table_matches_loops, edge_incidence, is_convex

from polyrefine import geometry
from polyrefine.geometry import PolygonError
from polyrefine.mesh import (
    GRID_GENERATORS,
    MeshError,
    PolyMesh,
    generate_nonconvex_grid,
    generate_smoothed_voronoi_grid,
    generate_triangle_grid,
    generate_voronoi_grid,
    load_mesh,
    mark_fixed_fraction,
    refine_mesh,
    refine_mesh_report,
    save_mesh,
)
from polyrefine.refine import Strategy, corner_label


def two_triangle_mesh():
    return PolyMesh(
        np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        [[0, 1, 2], [0, 2, 3]],
    )


def assert_conforming(mesh, unit_square=False):
    """Every edge has 1 or 2 incident elements; on unit-square meshes the
    single-incidence edges must lie on the domain boundary (an interior edge
    with one element would mean a missed hanging-node insertion)."""
    for (a, b), elems in edge_incidence(mesh.elements).items():
        assert len(elems) in (1, 2), (a, b, elems)
        if unit_square and len(elems) == 1:
            for v in (a, b):
                x, y = mesh.vertices[v]
                assert min(abs(x), abs(x - 1), abs(y), abs(y - 1)) < 1e-9


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_triangle_grid():
    m = generate_triangle_grid(4)
    assert m.n_elements == 32
    assert m.n_vertices == 25
    assert m.total_area() == pytest.approx(1.0)
    assert_conforming(m)


def test_voronoi_grid():
    m = generate_voronoi_grid(9, seed=0)
    assert m.n_elements == 9
    assert m.total_area() == pytest.approx(1.0, rel=1e-8)
    assert_conforming(m)


def test_smoothed_voronoi_grid():
    m = generate_smoothed_voronoi_grid(10, lloyd_iters=20, seed=0)
    assert m.n_elements == 10
    assert m.total_area() == pytest.approx(1.0, rel=1e-8)
    assert_conforming(m)
    # Lloyd smoothing rounds the cells: mean isoperimetric quality improves
    from polyrefine.metrics import area_perimeter_ratio

    rough = generate_voronoi_grid(10, seed=0)
    q_rough = np.mean([area_perimeter_ratio(p) for p in rough.polygons()])
    q_smooth = np.mean([area_perimeter_ratio(p) for p in m.polygons()])
    assert q_smooth > q_rough


def test_nonconvex_grid():
    m = generate_nonconvex_grid()
    assert m.n_elements == 14
    assert m.total_area() == pytest.approx(1.0, rel=1e-8)
    assert all(not is_convex(p) for p in m.polygons())
    assert_conforming(m)


def test_generators_registry():
    for name, gen in GRID_GENERATORS.items():
        m = gen(seed=1)
        assert m.total_area() == pytest.approx(1.0, rel=1e-8)
        # boundary edges lie on the unit-square boundary
        for (a, b), elems in edge_incidence(m.elements).items():
            if len(elems) == 1:
                for v in (a, b):
                    x, y = m.vertices[v]
                    assert min(abs(x), abs(x - 1), abs(y), abs(y - 1)) < 1e-9, name


TABLE_MESHES = [f"{g}{p}" for g in sorted(GRID_GENERATORS) for p in ("", "+mp", "+cnn-rp")]


@pytest.mark.parametrize("name", TABLE_MESHES)
def test_loop_table_matches_the_loops(name):
    grid, _, strategy = name.partition("+")
    m = GRID_GENERATORS[grid]()
    if strategy:
        m = refine_mesh(m, range(m.n_elements), strategy, corner_label)
    assert_loop_table_matches_loops(m)
    # the grouped per-element values are those of each polygon, bit for bit
    polys = m.polygons()
    assert m.per_element(geometry.diameters).tolist() == [geometry.diameter(p) for p in polys]
    assert m.h == max(geometry.diameter(p) for p in polys)
    assert m.total_area() == sum(geometry.area(p) for p in polys)


@pytest.mark.parametrize(
    "verts, message",
    [
        (np.array([[0, 0, 9], [1, 0, 9], [1, 1, 9], [0, 1, 9]], float),
         r"^vertices must be shaped \(n, 2\), not \(4, 3\)$"),
        ([0, 0, 1, 0, 1, 1], r"^vertices must be shaped \(n, 2\), not \(6,\)$"),
        ([(0, 0), (1, 0), (1, 1), (np.nan, np.inf)], "^vertex 3: non-finite coordinate$"),
        ([(0, 0), (1, 0), (1, -np.inf)], "^vertex 2: non-finite coordinate$"),
        ([(0, 0), (1,), (1, 1)], "^vertices are not an \\(n, 2\\) array of numbers"),
    ],
)
def test_mesh_rejects_vertices_not_shaped_n_by_2_or_not_finite(verts, message):
    with pytest.raises(MeshError, match=message):
        PolyMesh(verts, [[0, 1, 2]])


def test_mesh_names_the_element_of_a_vertex_id_beyond_int64(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text("POLYMESH 1\n3 2\n0 0\n1 0\n0 1\n3 0 1 2\n3 0 1 99999999999999999999\n")
    with pytest.raises(MeshError, match="^element 1: vertex index out of range$"):
        load_mesh(path)


def test_empty_mesh_has_n_by_2_vertices():
    for verts in ([], np.empty(0), np.empty((0, 2))):
        m = PolyMesh(verts, [])
        assert m.vertices.shape == (0, 2)
        assert m.n_elements == 0 and m.offsets.tolist() == [0] and len(m.edges) == 0


# ---------------------------------------------------------------------------
# refinement driver
# ---------------------------------------------------------------------------

def test_hanging_node_insertion():
    m = two_triangle_mesh()
    m2 = refine_mesh(m, [0], Strategy.MP)
    assert m2.n_elements == 4
    # the neighbor keeps the diagonal midpoint as an aligned vertex
    loops = {len(l) for l in m2.elements}
    assert loops == {4}
    assert m2.total_area() == pytest.approx(1.0)
    assert_conforming(m2)


@pytest.mark.parametrize("marks", [[0, 1], [0], [1]])
def test_unused_duplicate_vertex_does_not_renumber_the_mesh(tmp_path, marks):
    """An unused vertex on or next to a used one keeps its own id in the
    refinement pass, so the output is the mesh refined without it."""
    dup = PolyMesh([(0, 0), (0, 0), (1, 0), (1, 1), (0, 1)], [[0, 2, 3], [0, 3, 4]])
    grid = generate_triangle_grid(2)
    moved = PolyMesh(
        np.vstack([grid.vertices[:1] + 1e-12, grid.vertices]),
        [[v + 1 for v in loop] for loop in grid.elements],
    )
    for mesh, plain in ((dup, two_triangle_mesh()), (moved, grid)):
        save_mesh(refine_mesh(mesh, marks, Strategy.MP), tmp_path / "with.txt")
        save_mesh(refine_mesh(plain, marks, Strategy.MP), tmp_path / "without.txt")
        assert (tmp_path / "with.txt").read_bytes() == (tmp_path / "without.txt").read_bytes()


@pytest.mark.parametrize("e", [1e-9, 1e-10, 1e-12])
def test_refinement_does_not_depend_on_element_scale(e):
    """A tiny square in the corner of a unit L-shape refines like any other
    element: vertex identity comes from the templates, not from a tolerance
    tied to the largest element."""
    verts = [(0, 0), (e, 0), (e, e), (0, e), (1, 0), (1, 1), (0, 1)]
    m = PolyMesh(verts, [[1, 4, 5, 6, 3, 2], [0, 1, 2, 3]])
    assert refine_mesh(m, [1], Strategy.MP).n_elements == 5
    # the L-shape refined first leaves two hanging nodes on the square
    both = refine_mesh(m, [0, 1], Strategy.MP)
    assert both.n_elements == 12
    assert both.total_area() == pytest.approx(1.0, rel=1e-12)


def test_refine_mesh_area_conservation(rng):
    m = generate_voronoi_grid(7, seed=3)
    total = m.total_area()
    for strat in (Strategy.MP, Strategy.CNN_MP, Strategy.CNN_RP):
        mm = m
        for _ in range(2):
            marks = rng.choice(mm.n_elements, size=max(1, mm.n_elements // 2), replace=False)
            mm = refine_mesh(mm, marks, strat, corner_label)
            assert mm.total_area() == pytest.approx(total, rel=1e-10)
            assert_conforming(mm, unit_square=True)


def test_refine_mesh_element_counts_non_decreasing():
    m = generate_triangle_grid(2)
    counts = [m.n_elements]
    for _ in range(3):
        m = refine_mesh(m, range(m.n_elements), Strategy.CNN_RP, corner_label)
        counts.append(m.n_elements)
    assert counts == sorted(counts)


def test_refine_mesh_report_created():
    m = two_triangle_mesh()
    m2, rep = refine_mesh_report(m, [1], Strategy.MP)
    assert sorted(rep.created) == [1, 2, 3]  # children spliced at parent slot
    assert rep.strategy_counts == {"mp": 1}


def test_refine_mesh_rejects_bad_marks():
    m = two_triangle_mesh()
    with pytest.raises(MeshError):
        refine_mesh(m, [7], Strategy.MP)
    # a mask is not a list of indices: it would refine elements 0 and 1
    grid = generate_triangle_grid(2)
    mask = [k % 3 == 2 for k in range(grid.n_elements)]
    with pytest.raises(MeshError, match="^mark False is not an element index$"):
        refine_mesh(grid, mask, Strategy.MP)
    with pytest.raises(MeshError, match="is not an element index"):
        refine_mesh(grid, np.array(mask), Strategy.MP)
    with pytest.raises(MeshError, match="^mark 2.7 is not an element index$"):
        refine_mesh(grid, [2, 2.7], Strategy.MP)
    # numpy integers are indices
    assert refine_mesh(grid, np.flatnonzero(mask), Strategy.MP).n_elements == 12


def test_a_refinement_pass_checks_each_child_once(monkeypatch):
    """`refine_element` checks each child it creates; the pass checks no
    loop again, neither the children nor the elements it left alone."""
    m = generate_voronoi_grid(9, seed=0)
    calls = []
    is_simple = geometry._is_simple
    monkeypatch.setattr(geometry, "_is_simple", lambda c: calls.append(len(c)) or is_simple(c))
    created = 0
    for _ in range(3):
        m, report = refine_mesh_report(m, range(m.n_elements), Strategy.MP)
        created += len(report.created)
    assert created == 3448
    assert len(calls) == created


class _RecordingClassifier:
    """A batch classifier that keeps the polygons of each call."""

    def __init__(self, classify_polygons):
        self._classify = classify_polygons
        self.calls = []

    def classify_polygons(self, polys):
        labels = self._classify(polys)
        self.calls.append((list(polys), list(labels)))
        return labels


@pytest.fixture(scope="module")
def trained():
    from conftest import CLASSIFIER

    from polyrefine.cnn import load_model

    return load_model(CLASSIFIER)


@pytest.mark.parametrize("strategy", [Strategy.CNN_MP, Strategy.CNN_RP])
@pytest.mark.parametrize("grid", sorted(GRID_GENERATORS))
def test_a_pass_classifies_the_loops_it_found_with_the_rasters_of_refine_time(
    trained, monkeypatch, grid, strategy
):
    """Three uniform passes: each takes its labels in one batch call, before
    it refines an element, and every marked element's raster then equals
    the raster of the loop it has when it is refined (hanging nodes
    inserted by earlier elements of the pass included)."""
    from polyrefine import mesh as mesh_module
    from polyrefine.raster import rasterize

    refine_element = mesh_module.refine_element
    at_refine = []

    def recording(p, strategy, classifier=None, rho=0.5, label=None):
        at_refine.append((p, label))
        return refine_element(p, strategy, classifier, rho, label)

    monkeypatch.setattr(mesh_module, "refine_element", recording)
    m, grown = GRID_GENERATORS[grid](), 0
    for _ in range(3):
        classifier = _RecordingClassifier(trained.classify_polygons)
        at_refine.clear()
        new = refine_mesh(m, range(m.n_elements), strategy, classifier)
        ((found, labels),) = classifier.calls
        assert [q.coords.tolist() for q in found] == [m.vertices[loop].tolist() for loop in m.elements]
        assert [label for _, label in at_refine] == labels
        for before, (now, _) in zip(found, at_refine, strict=True):
            assert np.array_equal(rasterize(before).pixels, rasterize(now).pixels)
            grown += now.n > before.n
        m = new
    assert grown > 0  # some element had gained hanging nodes by its turn


def test_a_pass_with_a_network_runs_one_forward_per_chunk(trained, monkeypatch):
    from polyrefine.cnn import Network
    from polyrefine.cnn.network import CLASSIFY_CHUNK

    m = refine_mesh(generate_triangle_grid(4), range(32), Strategy.MP)
    n, batches = m.n_elements, []
    forward = Network.forward_logits
    monkeypatch.setattr(Network, "forward_logits", lambda self, x, train=False: batches.append(len(x)) or forward(self, x))
    new = refine_mesh(m, range(n), Strategy.CNN_RP, trained)
    assert batches == [min(CLASSIFY_CHUNK, n - i) for i in range(0, n, CLASSIFY_CHUNK)]
    assert len(batches) > 1
    monkeypatch.setattr(Network, "forward_logits", forward)
    per_polygon = refine_mesh(m, range(n), Strategy.CNN_RP, trained.classify_polygon)
    assert new.elements == per_polygon.elements and np.array_equal(new.vertices, per_polygon.vertices)


def test_uniform_rp_counts_on_triangle_grid():
    # acceptance anchor: with every label 3, counts go 32 -> 128 -> 512 -> 2048
    m = generate_triangle_grid(4)
    expected = [128, 512, 2048]
    for want in expected:
        m = refine_mesh(m, range(m.n_elements), Strategy.CNN_RP, lambda p: 3)
        assert m.n_elements == want


def test_mark_fixed_fraction():
    assert mark_fixed_fraction(np.arange(10), 1.0) == list(range(10))
    assert mark_fixed_fraction(np.arange(10), 0.3) == [7, 8, 9]
    assert mark_fixed_fraction(np.ones(10), 0.3) == [0, 1, 2]
    with pytest.raises(ValueError):
        mark_fixed_fraction(np.ones(4), 0.0)


def test_mesh_validation_catches_overlap():
    verts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    with pytest.raises(MeshError):
        PolyMesh(verts, [[0, 1, 2, 3], [0, 1, 2]])  # overlapping elements


def test_mesh_rejects_non_integer_vertex_indices():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(MeshError, match="^element 0: vertex index 1.7 is not an integer$"):
        PolyMesh(square, [[0, 1.7, 2.2], [0, 2, 3]])
    with pytest.raises(MeshError, match="^element 1: vertex index True is not an integer$"):
        PolyMesh(square, [[0, 1, 2], [0, 2, True]])
    # numpy integers are indices, stored as ints
    m = PolyMesh(square, [np.array([0, 1, 2]), np.array([0, 2, 3], dtype=np.int32)])
    assert m.elements == [[0, 1, 2], [0, 2, 3]]
    assert all(type(v) is int for loop in m.elements for v in loop)


def test_mesh_validation_rejects_clockwise_loops(tmp_path):
    m = generate_triangle_grid(2)
    cw = PolyMesh(m.vertices, [loop[::-1] for loop in m.elements], validate=False)
    save_mesh(cw, tmp_path / "cw.txt")
    with pytest.raises(MeshError, match="element 0: clockwise loop"):
        load_mesh(tmp_path / "cw.txt")


def t_junction_mesh(validate=True):
    """Two unit squares stacked on the left, one 1 x 2 rectangle on the right:
    vertex 2 = (1, 1) lies inside the rectangle's edge from (1, 0) to (1, 2)."""
    verts = [(0, 0), (1, 0), (1, 1), (0, 1), (1, 2), (0, 2), (2, 0), (2, 2)]
    return PolyMesh(verts, [[0, 1, 2, 3], [3, 2, 4, 5], [1, 6, 7, 4]], validate=validate)


def test_mesh_validation_rejects_t_junctions(tmp_path):
    message = "^element 2: vertex 2 lies on edge \\(1,4\\) but not in the loop$"
    with pytest.raises(MeshError, match=message):
        t_junction_mesh()
    save_mesh(t_junction_mesh(validate=False), tmp_path / "t.txt")
    with pytest.raises(MeshError, match=message):
        load_mesh(tmp_path / "t.txt")
    # once the rectangle carries vertex 2 the mesh is conforming
    fixed = t_junction_mesh(validate=False)
    PolyMesh(fixed.vertices, fixed.elements[:2] + [[1, 6, 7, 4, 2]])


_FAN = [(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)]
_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


@pytest.mark.parametrize(
    "verts, loops, message",
    [
        (_SQUARE, [[0, 1, 2], [0, 1, 2]], "element 1: duplicated directed edge (0, 1)"),
        # a third element on one edge repeats one of its two directions
        (_FAN, [[0, 1, 2], [1, 0, 3], [0, 1, 4]], "element 2: duplicated directed edge (0, 1)"),
        (_SQUARE, [[0, 1, 2], [0, 2]], "element 1: fewer than 3 vertices"),
        (_SQUARE, [[0, 1, 2], [0, 2, 4]], "element 1: vertex index out of range"),
        (_SQUARE, [[0, 1, 2, 1], [0, 2, 3]], "element 0: repeated vertex in loop"),
        # faults in two elements: the earlier element is named
        (_SQUARE, [[0, 1, 2], [0, 2], [0, 1, 2, 1]], "element 1: fewer than 3 vertices"),
        (_SQUARE, [[0, 1, 2], [2, 3, 0], [2, 3, 0], [0, 1, 2]],
         "element 2: duplicated directed edge (2, 3)"),
        (_SQUARE, [[0, 1, 2], [0, 1, 2], [0, 2, 7]], "element 2: vertex index out of range"),
        ([(0, 0), (1, 0), (1, 1), (0, 1), (1, 2), (0, 2), (2, 0), (2, 2), (-1, 0), (-1, 2)],
         [[0, 1, 2, 3], [3, 2, 4, 5], [1, 6, 7, 4], [8, 0, 5, 9]],
         "element 2: vertex 2 lies on edge (1,4) but not in the loop"),
    ],
)
def test_mesh_validation_messages_are_pinned(verts, loops, message):
    with pytest.raises(MeshError) as info:
        PolyMesh(np.array(verts, dtype=float), loops)
    assert str(info.value) == message


def test_refine_pass_output_is_checked_for_t_junctions():
    with pytest.raises(MeshError, match="lies on edge .* but not in the loop"):
        refine_mesh(t_junction_mesh(validate=False), [0], Strategy.MP)


_TRIANGLE_FILE = ["POLYMESH 1", "3 1", "0 0", "1 0", "0 1", "3 0 1 2"]


@pytest.mark.parametrize(
    "lines, line",
    [
        ([], 1),  # empty file
        (["POLYMESH 2"] + _TRIANGLE_FILE[1:], 1),
        (_TRIANGLE_FILE[:1], 2),  # ends before the counts
        (["POLYMESH 1", "3 one"] + _TRIANGLE_FILE[2:], 2),
        (_TRIANGLE_FILE[:4], 5),  # ends inside the vertex list
        (["POLYMESH 1", "", "3 1", "0 0", "1 zero", "0 1", "3 0 1 2"], 5),  # blank lines count
        (_TRIANGLE_FILE[:3] + ["1 0 0"] + _TRIANGLE_FILE[4:], 4),  # three coordinates
        (["POLYMESH 1", "4 1", "0 0", "1 0", "0 1", "nan inf", "3 0 1 2"], 6),  # unused, non-finite
        (_TRIANGLE_FILE[:5], 6),  # ends before the element
        (_TRIANGLE_FILE[:5] + ["4 0 1 2"], 6),  # fewer indices than announced
        (_TRIANGLE_FILE[:5] + ["3 0 1 2.0"], 6),
        (_TRIANGLE_FILE + ["3 0 1 2"], 7),  # content after the last element
    ],
)
def test_load_mesh_errors_name_the_line(tmp_path, lines, line):
    path = tmp_path / "mesh.txt"
    path.write_text("".join(l + "\n" for l in _TRIANGLE_FILE))
    assert load_mesh(path).elements == [[0, 1, 2]]  # the unbroken file loads
    path.write_text("".join(l + "\n" for l in lines))
    with pytest.raises(MeshError, match=f"^line {line}: "):
        load_mesh(path)


def test_load_mesh_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "mesh.txt"
    text = "".join(l + "\n" for l in _TRIANGLE_FILE).encode()
    path.write_bytes(text.replace(b"1 0\n", b"1 \xff\n"))
    with pytest.raises(MeshError, match="^line 4: not UTF-8 text"):
        load_mesh(path)


def test_load_mesh_names_the_element_of_a_bad_loop(tmp_path):
    path = tmp_path / "bowtie.txt"
    path.write_text("POLYMESH 1\n4 1\n0 0\n1 1\n1 0\n0 1\n4 0 1 2 3\n")
    with pytest.raises(MeshError, match="^element 0: degenerate polygon") as info:
        load_mesh(path)
    assert isinstance(info.value.__cause__, PolygonError)


def test_save_load_round_trip(tmp_path, rng):
    m = generate_voronoi_grid(6, seed=5)
    path = tmp_path / "mesh.txt"
    save_mesh(m, path)
    back = load_mesh(path)
    assert back.n_elements == m.n_elements
    assert (back.vertices == m.vertices).all()  # bit-exact coordinates
    assert back.elements == m.elements
    text = path.read_text().splitlines()
    assert text[0] == "POLYMESH 1"
    assert text[1] == f"{m.n_vertices} {m.n_elements}"
