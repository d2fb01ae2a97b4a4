import math

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import assert_loop_table_matches_loops, edge_incidence
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrefine import geometry, mesh as mesh_module, vem
from polyrefine.geometry import Polygon, area
from polyrefine.mesh import (
    GRID_GENERATORS,
    PolyMesh,
    generate_nonconvex_grid,
    generate_smoothed_voronoi_grid,
    generate_triangle_grid,
    generate_voronoi_grid,
    mark_fixed_fraction,
    refine_mesh,
)
from polyrefine.raster import rasterize
from polyrefine.refine import Strategy, corner_label

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def local_stiffness(p: Polygon) -> np.ndarray:
    """The element matrix of one polygon: the one-row case of the grouped kernels."""
    return vem._stiffness(*vem._projection(p.coords[None])[:3])[0]


def polygon_quadrature(p: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """Fan quadrature points (6n, 2) and weights (6n,) of one polygon."""
    pts, wts = vem._fan_quadrature(p.coords[None], p.coords.mean(axis=0)[None])
    return pts[0], wts[0]


def h1_error(mesh, u: np.ndarray, case) -> float:
    """The broken H1-like error: the root of the summed local errors."""
    return math.sqrt(float(vem.local_errors(mesh, u, case).sum()))


GRIDS = {
    "triangles": generate_triangle_grid(4),
    "voronoi": generate_voronoi_grid(9, seed=0),
    "smoothed": generate_smoothed_voronoi_grid(10, lloyd_iters=20, seed=0),
    "nonconvex": generate_nonconvex_grid(),
}


def test_local_stiffness_exact_on_linears():
    K = local_stiffness(SQUARE)
    vx = SQUARE.coords[:, 0]
    assert vx @ K @ vx == pytest.approx(1.0, abs=1e-12)  # energy of u = x
    assert np.abs(K @ np.ones(4)).max() < 1e-12  # constants in the kernel
    eq = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    vy = eq.coords[:, 1]
    assert vy @ local_stiffness(eq) @ vy == pytest.approx(area(eq), abs=1e-12)


def test_local_stiffness_symmetric_positive(rng):
    from conftest import random_star_polygon

    for _ in range(20):
        p = random_star_polygon(rng)
        K = local_stiffness(p)
        assert np.abs(K - K.T).max() < 1e-12
        # positive on the complement of constants
        w, _ = np.linalg.eigh(K)
        assert w[0] > -1e-12
        assert (w[1:] > 1e-12).all()


def test_quadrature_exact_on_polynomials(rng):
    from conftest import random_star_polygon

    for _ in range(10):
        p = random_star_polygon(rng)
        pts, wts = polygon_quadrature(p)
        assert wts.sum() == pytest.approx(area(p), rel=1e-12)
        # linear exactness against the shoelace-based area centroid
        from polyrefine.geometry import area_centroid

        c = area_centroid(p)
        assert np.sum(wts * pts[:, 0]) == pytest.approx(area(p) * c[0], rel=1e-10)


def test_global_matrix_symmetry():
    system = vem.assemble(GRIDS["voronoi"], vem.sine_case())
    A = system.matrix
    assert abs(A - A.T).max() < 1e-12


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_patch_test(name):
    """Linear solutions are reproduced to 1e-9 on every grid family."""
    case = vem.linear_case(1.7, -0.4, 0.25)
    mesh = GRIDS[name]
    u = vem.solve(vem.assemble(mesh, case))
    exact = np.array([case.exact(x, y) for x, y in mesh.vertices])
    assert np.abs(u - exact).max() < 1e-9
    assert h1_error(mesh, u, case) < 1e-9


def test_zero_solution():
    case = vem.ManufacturedCase(
        "zero",
        lambda x, y: 0.0 * np.asarray(x),
        lambda x, y: (0.0 * np.asarray(x), 0.0 * np.asarray(x)),
        lambda x, y: 0.0 * np.asarray(x),
    )
    mesh = GRIDS["triangles"]
    u = vem.solve(vem.assemble(mesh, case))
    assert np.abs(u).max() < 1e-12
    assert h1_error(mesh, u, case) == pytest.approx(0.0, abs=1e-12)


def test_first_order_error_ratio():
    """Two successive uniform refinements halve the H1-like error (+-15%)."""
    rec = vem.convergence_study(
        GRIDS["triangles"], Strategy.CNN_RP, corner_label, 1.0, 2, vem.sine_case()
    )
    ratio = rec.errors[1] / rec.errors[2]
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_local_errors_sum_matches_h1():
    mesh = GRIDS["voronoi"]
    case = vem.sine_case()
    u = vem.solve(vem.assemble(mesh, case))
    errs = vem.local_errors(mesh, u, case)
    assert len(errs) == mesh.n_elements
    assert (errs >= 0).all()
    assert math.sqrt(errs.sum()) == pytest.approx(h1_error(mesh, u, case))


def test_boundary_layer_case_consistency(rng):
    """Gradient and forcing of the layer case agree with finite differences."""
    case = vem.boundary_layer_case()
    h = 1e-6
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95, size=2)
        gx, gy = case.grad(x, y)
        fd_x = (case.exact(x + h, y) - case.exact(x - h, y)) / (2 * h)
        fd_y = (case.exact(x, y + h) - case.exact(x, y - h)) / (2 * h)
        assert gx == pytest.approx(fd_x, rel=1e-6, abs=1e-6)
        assert gy == pytest.approx(fd_y, rel=1e-6, abs=1e-6)
        lap = (
            case.exact(x + h, y)
            + case.exact(x - h, y)
            + case.exact(x, y + h)
            + case.exact(x, y - h)
            - 4 * case.exact(x, y)
        ) / (h * h)
        assert case.forcing(x, y) == pytest.approx(-lap, rel=1e-3, abs=1e-3)
    # boundary values vanish
    for t in np.linspace(0, 1, 7):
        for (x, y) in ((0, t), (1, t), (t, 0), (t, 1)):
            assert abs(case.exact(x, y)) < 1e-12


def test_convergence_record_csv(tmp_path):
    rec = vem.convergence_study(
        generate_triangle_grid(2), Strategy.MP, None, 1.0, 1, vem.sine_case()
    )
    path = tmp_path / "conv.csv"
    rec.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,dofs,h,error"
    assert len(lines) == 3  # header + initial + one refinement


def test_solver_cg_path_matches_direct(monkeypatch):
    mesh = GRIDS["triangles"]
    case = vem.sine_case()
    system = vem.assemble(mesh, case)
    direct = vem.solve(system)
    monkeypatch.setattr(vem, "_DIRECT_SOLVE_LIMIT", 1)
    iterative = vem.solve(system)
    assert iterative == pytest.approx(direct, abs=1e-8)


def test_derived_polygons_are_not_checked_again(monkeypatch):
    """Past the trust boundary (a validated mesh), assembly, error evaluation
    and rasterization never rerun the O(n^2) simplicity check."""
    mesh = refine_mesh(GRIDS["voronoi"], range(9), "mp")
    calls = []
    original = geometry._is_simple
    monkeypatch.setattr(geometry, "_is_simple", lambda c: calls.append(len(c)) or original(c))
    case = vem.sine_case()
    u = vem.solve(vem.assemble(mesh, case))
    vem.local_errors(mesh, u, case)
    for p in mesh.polygons():
        rasterize(p)
    assert calls == []
    Polygon(mesh.polygon(0).coords)  # the checking constructor is counted
    assert len(calls) == 1


# Recorded from the per-element assembly and error loop that the grouped
# kernels replaced: 3-step, r = 0.3 layer-case studies on the 4 x 4
# triangle grid. A flipped mark would change every later DoF count.
PINNED_STUDIES = {
    Strategy.MP: (
        [25, 73, 181, 452],
        [
            [1, 2, 8, 9, 10, 11, 16, 17, 24, 25],
            [0, 1, 3, 8, 9, 10, 11, 12, 16, 18, 19, 32, 36, 39, 46, 50, 53, 59],
            [0, 9, 10, 19, 42, 44, 48, 49, 50, 56, 57, 62, 71, 72, 73, 75, 78, 81, 82,
             83, 84, 87, 88, 89, 90, 91, 92, 97, 98, 100, 109, 112, 116, 117, 119, 124,
             125, 126, 127, 128],
        ],
        [1.165092531277233, 0.6144591150712897, 0.3699014274242122, 0.2440197415311468],
    ),
    Strategy.CNN_RP: (
        [25, 47, 88, 154],
        [
            [1, 2, 8, 9, 10, 11, 16, 17, 24, 25],
            [2, 3, 4, 10, 11, 12, 16, 19, 20, 21, 36, 39, 40, 41, 50, 53, 54, 55, 61],
            [0, 18, 31, 38, 39, 40, 41, 43, 44, 46, 47, 49, 60, 61, 64, 66, 70, 71, 72,
             73, 75, 76, 78, 79, 81, 84, 85, 87, 92, 99, 102, 104, 105, 107, 112, 113],
        ],
        [1.165092531277233, 0.7312603652257663, 0.4530727026208799, 0.3248344876008322],
    ),
}


@pytest.mark.parametrize("strategy", list(PINNED_STUDIES), ids=lambda s: s.value)
def test_adaptive_layer_study_is_pinned(strategy):
    dofs, marks, errors = PINNED_STUDIES[strategy]
    case = vem.boundary_layer_case()
    classifier = corner_label if strategy is Strategy.CNN_RP else None
    mesh, seen = generate_triangle_grid(4), []
    for step in range(3):
        u = vem.solve(vem.assemble(mesh, case))
        seen.append(mark_fixed_fraction(vem.local_errors(mesh, u, case), 0.3))
        mesh = refine_mesh(mesh, seen[-1], strategy, classifier)
    assert seen == marks
    rec = vem.convergence_study(generate_triangle_grid(4), strategy, classifier, 0.3, 3, case)
    assert rec.dofs == dofs
    assert rec.errors == pytest.approx(errors, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# grouped kernels against the per-element formulas they replaced
# ---------------------------------------------------------------------------

def _ref_parts(coords):
    n = len(coords)
    d = coords[:, None, :] - coords[None, :, :]
    h = float(np.sqrt((d * d).sum(axis=2).max()))
    xc, yc = coords.mean(axis=0)
    D = np.column_stack([np.ones(n), (coords[:, 0] - xc) / h, (coords[:, 1] - yc) / h])
    nxt = np.concatenate((coords[1:], coords[:1]))
    prv = np.concatenate((coords[-1:], coords[:-1]))
    d = 0.5 * np.column_stack([nxt[:, 1] - prv[:, 1], prv[:, 0] - nxt[:, 0]])
    B = np.vstack([np.full(n, 1.0 / n), d[:, 0] / h, d[:, 1] / h])
    G = B @ D
    return D, G, np.linalg.solve(G, B), h


def _ref_stiffness(coords):
    D, G, Pi, _ = _ref_parts(coords)
    Gt = G.copy()
    Gt[0, :] = 0.0
    stab = np.eye(len(D)) - D @ Pi
    K = Pi.T @ Gt @ Pi + stab.T @ stab
    return 0.5 * (K + K.T)


def _ref_quadrature(coords):
    c = coords.mean(axis=0)
    a = coords
    b = np.concatenate((a[1:], a[:1]))
    s = 0.5 * ((a[:, 0] - c[0]) * (b[:, 1] - c[1]) - (b[:, 0] - c[0]) * (a[:, 1] - c[1]))
    pts = (
        vem._QB[None, :, 0:1] * c[None, None, :]
        + vem._QB[None, :, 1:2] * a[:, None, :]
        + vem._QB[None, :, 2:3] * b[:, None, :]
    ).reshape(-1, 2)
    return pts, (s[:, None] * vem._QW[None, :]).reshape(-1)


def _ref_error_sq(coords, u_local, case):
    _, _, Pi, h = _ref_parts(coords)
    coef = Pi @ u_local
    pts, wts = _ref_quadrature(coords)
    gx, gy = case.grad(pts[:, 0], pts[:, 1])
    return float(np.sum(wts * ((coef[1] / h - gx) ** 2 + (coef[2] / h - gy) ** 2)))


def _ref_system(mesh, case):
    """Element by element: stiffness, the f(vertex mean) * |E| / n load, and
    the exact solution at the vertices of edges with one element."""
    nv = mesh.n_vertices
    rows, cols, vals, rhs = [], [], [], np.zeros(nv)
    for loop in mesh.elements:
        coords = mesh.vertices[loop]
        ii, jj = np.meshgrid(loop, loop, indexing="ij")
        rows.append(ii.ravel())
        cols.append(jj.ravel())
        vals.append(_ref_stiffness(coords).ravel())
        cx, cy = coords.mean(axis=0)
        x, y = coords.T
        shoelace = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        rhs[loop] += float(case.forcing(cx, cy)) * shoelace / len(loop)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nv, nv)
    )
    single = [e for e, elems in edge_incidence(mesh.elements).items() if len(elems) == 1]
    bidx = np.array(sorted({v for e in single for v in e}))
    bvals = np.array([float(case.exact(x, y)) for x, y in mesh.vertices[bidx]])
    return A, rhs, bidx, bvals


def _assert_close(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(initial=0.0))


def _assert_matches_reference(mesh):
    for case in (vem.sine_case(), vem.boundary_layer_case()):
        system = vem.assemble(mesh, case)
        A, rhs, bidx, bvals = _ref_system(mesh, case)
        _assert_close(system.matrix.toarray(), A.toarray())
        _assert_close(system.rhs, rhs)
        assert np.array_equal(system.dirichlet_index, bidx)
        _assert_close(system.dirichlet_values, bvals)
        u = vem.solve(system)
        ref = [_ref_error_sq(mesh.vertices[loop], u[loop], case) for loop in mesh.elements]
        _assert_close(vem.local_errors(mesh, u, case), ref)


EQUIVALENCE_MESHES = sorted(GRID_GENERATORS) + [f"{g}+mp" for g in sorted(GRID_GENERATORS)] + [
    "nonconvex+cnn-rp"
]


@pytest.mark.parametrize("name", EQUIVALENCE_MESHES)
def test_grouped_kernels_match_per_element_formulas(name):
    grid, _, strategy = name.partition("+")
    mesh = GRID_GENERATORS[grid]()
    if strategy:
        classifier = corner_label if strategy == "cnn-rp" else None
        mesh = refine_mesh(mesh, range(mesh.n_elements), strategy, classifier)
    _assert_matches_reference(mesh)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(3, 12), st.integers(0, 2**32 - 1)), min_size=1, max_size=10))
def test_grouped_kernels_match_on_mixed_star_polygons(draws):
    """Disjoint star polygons of mixed vertex counts in one mesh, in drawn
    order, so each group's results must be scattered back to its elements."""
    from conftest import random_star_polygon

    polys = [random_star_polygon(np.random.default_rng(seed), n, n) for n, seed in draws]
    for p in polys:
        _assert_close(local_stiffness(p), _ref_stiffness(p.coords))
        for new, ref in zip(polygon_quadrature(p), _ref_quadrature(p.coords)):
            _assert_close(new, ref)
    vertices = np.concatenate([p.coords + (10.0 * i, 0.0) for i, p in enumerate(polys)])
    sizes = [len(p.coords) for p in polys]
    starts = np.cumsum([0] + sizes)
    mesh = PolyMesh(vertices, [list(range(s, s + n)) for s, n in zip(starts, sizes)])
    assert_loop_table_matches_loops(mesh)
    _assert_matches_reference(mesh)


def test_a_study_step_groups_each_mesh_once(monkeypatch):
    """The loop table, vertex-count groups included, is built once per mesh:
    assemble, the boundary vertices, the local errors and h all read it."""
    built = []
    loop_table = mesh_module._loop_table
    monkeypatch.setattr(mesh_module, "_loop_table", lambda *a: built.append(a[0]) or loop_table(*a))
    m = generate_triangle_grid(4)
    assert m.vertex_count_groups() is m.vertex_count_groups()  # stored, not derived again
    rec = vem.convergence_study(m, Strategy.MP, None, 0.3, 3, vem.sine_case())
    assert len(rec.dofs) == 4
    # the initial grid and the mesh of each refinement pass, each once
    assert len(built) == 4 and len({id(loops) for loops in built}) == 4
