import math

import numpy as np
import pytest

from polyrefine import geometry, vem
from polyrefine.geometry import Polygon, area
from polyrefine.mesh import (
    generate_nonconvex_grid,
    generate_smoothed_voronoi_grid,
    generate_triangle_grid,
    generate_voronoi_grid,
    refine_mesh,
)
from polyrefine.raster import rasterize
from polyrefine.refine import Strategy, corner_label

SQUARE = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])

GRIDS = {
    "triangles": generate_triangle_grid(4),
    "voronoi": generate_voronoi_grid(9, seed=0),
    "smoothed": generate_smoothed_voronoi_grid(10, lloyd_iters=20, seed=0),
    "nonconvex": generate_nonconvex_grid(),
}


def test_local_stiffness_exact_on_linears():
    K = vem.local_stiffness(SQUARE)
    vx = SQUARE.coords[:, 0]
    assert vx @ K @ vx == pytest.approx(1.0, abs=1e-12)  # energy of u = x
    assert np.abs(K @ np.ones(4)).max() < 1e-12  # constants in the kernel
    eq = Polygon([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    vy = eq.coords[:, 1]
    assert vy @ vem.local_stiffness(eq) @ vy == pytest.approx(area(eq), abs=1e-12)


def test_local_stiffness_symmetric_positive(rng):
    from conftest import random_star_polygon

    for _ in range(20):
        p = random_star_polygon(rng)
        K = vem.local_stiffness(p)
        assert np.abs(K - K.T).max() < 1e-12
        # positive on the complement of constants
        w, _ = np.linalg.eigh(K)
        assert w[0] > -1e-12
        assert (w[1:] > 1e-12).all()


def test_quadrature_exact_on_polynomials(rng):
    from conftest import random_star_polygon

    for _ in range(10):
        p = random_star_polygon(rng)
        pts, wts = vem.polygon_quadrature(p)
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
    assert vem.h1_error(mesh, u, case) < 1e-9


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
    assert vem.h1_error(mesh, u, case) == pytest.approx(0.0, abs=1e-12)


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
    assert math.sqrt(errs.sum()) == pytest.approx(vem.h1_error(mesh, u, case))


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
