"""Lowest-order virtual element discretization of the Poisson problem.

Degrees of freedom are the mesh vertices. The local bilinear form is the
classical consistency term built from the elementwise projection onto
linear polynomials plus an identity ("dofi-dofi") stabilization on its
complement; the error is measured in the broken H1-like norm of the
projected gradients.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import diameters, signed_areas
from .mesh import PolyMesh, mark_fixed_fraction, refine_mesh

_DIRECT_SOLVE_LIMIT = 5000

# Degree-4 triangle quadrature (6 points, barycentric).
_QW = np.array(
    [0.223381589678011] * 3 + [0.109951743655322] * 3
)
_QB = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution (vanishing on the unit-square boundary), its gradient
    and the matching forcing term f = -laplacian(u). Each callable takes
    coordinate arrays x, y and broadcasts over them, returning arrays (a
    pair of arrays for `grad`) of their shape."""

    name: str
    exact: callable
    grad: callable
    forcing: callable


def sine_case() -> ManufacturedCase:
    pi = np.pi

    def u(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def grad(x, y):
        return (
            pi * np.cos(pi * x) * np.sin(pi * y),
            pi * np.sin(pi * x) * np.cos(pi * y),
        )

    def f(x, y):
        return 2.0 * pi * pi * np.sin(pi * x) * np.sin(pi * y)

    return ManufacturedCase("sine", u, grad, f)


def boundary_layer_case() -> ManufacturedCase:
    """Solution with a boundary layer along x = 0."""
    pi = np.pi

    def g(x):
        return (1.0 - np.exp(-10.0 * x)) * (x - 1.0)

    def gp(x):
        return 10.0 * np.exp(-10.0 * x) * (x - 1.0) + (1.0 - np.exp(-10.0 * x))

    def gpp(x):
        return np.exp(-10.0 * x) * (120.0 - 100.0 * x)

    def u(x, y):
        return g(x) * np.sin(pi * y)

    def grad(x, y):
        return (gp(x) * np.sin(pi * y), pi * g(x) * np.cos(pi * y))

    def f(x, y):
        return (pi * pi * g(x) - gpp(x)) * np.sin(pi * y)

    return ManufacturedCase("layer", u, grad, f)


CASES = {"sine": sine_case, "layer": boundary_layer_case}


def linear_case(a: float = 1.0, b: float = 0.0, c: float = 0.0) -> ManufacturedCase:
    """u = a*x + b*y + c with zero forcing (patch-test data; nonzero on the
    boundary, so Dirichlet values come from the exact solution)."""
    return ManufacturedCase(
        "linear",
        lambda x, y: a * x + b * y + c,
        lambda x, y: (a * np.ones_like(np.asarray(x, dtype=float)), b * np.ones_like(np.asarray(x, dtype=float))),
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


# ---------------------------------------------------------------------------
# local projection and stiffness, for a stack of m n-gons, (m, n, 2)
# ---------------------------------------------------------------------------

def _projection(xy: np.ndarray):
    """D (dof values of the scaled monomials, (m, n, 3)), G = B @ D with B
    their boundary pairings, the projector Pi = G^-1 B onto {1, mx, my}
    ((m, 3, n)), the diameters h and the vertex means c of a stack of CCW
    polygons."""
    n = xy.shape[1]
    h = diameters(xy)[:, None]
    c = xy.mean(axis=1)
    D = np.concatenate((np.ones(xy.shape[:2] + (1,)), (xy - c[:, None, :]) / h[:, :, None]), axis=2)
    nxt = np.concatenate((xy[:, 1:], xy[:, :1]), axis=1)
    prv = np.concatenate((xy[:, -1:], xy[:, :-1]), axis=1)
    # sum of the two incident outward normals times edge lengths, halved
    dx, dy = 0.5 * (nxt[:, :, 1] - prv[:, :, 1]), 0.5 * (prv[:, :, 0] - nxt[:, :, 0])
    B = np.stack((np.full(dx.shape, 1.0 / n), dx / h, dy / h), axis=1)
    G = B @ D
    return D, G, np.linalg.solve(G, B), h[:, 0], c


def _stiffness(D: np.ndarray, G: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """Symmetric PSD element matrices, exact on linears, kernel = constants."""
    Gt = G.copy()
    Gt[:, 0, :] = 0.0
    stab = np.eye(D.shape[1]) - D @ Pi
    K = Pi.swapaxes(1, 2) @ Gt @ Pi + stab.swapaxes(1, 2) @ stab
    return 0.5 * (K + K.swapaxes(1, 2))


def _fan_quadrature(xy: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points (m, 6n, 2) and weights (m, 6n) from a signed fan
    about each vertex mean c; exact to degree 4 for any simple polygon."""
    a = xy
    b = np.concatenate((a[:, 1:], a[:, :1]), axis=1)
    cx, cy = c[:, None, 0], c[:, None, 1]
    # signed triangle areas of (c, a_i, b_i)
    s = 0.5 * ((a[:, :, 0] - cx) * (b[:, :, 1] - cy) - (b[:, :, 0] - cx) * (a[:, :, 1] - cy))
    pts = _QB[:, 0:1] * c[:, None, None, :] + _QB[:, 1:2] * a[:, :, None, :] + _QB[:, 2:3] * b[:, :, None, :]
    return pts.reshape(len(xy), -1, 2), (s[:, :, None] * _QW).reshape(len(xy), -1)


# ---------------------------------------------------------------------------
# global system
# ---------------------------------------------------------------------------

@dataclass
class LinearSystem:
    matrix: sp.csr_matrix  # full DoF x DoF, symmetric
    rhs: np.ndarray
    dirichlet_index: np.ndarray
    dirichlet_values: np.ndarray

    @property
    def n_dofs(self) -> int:
        return len(self.rhs)


def assemble(mesh: PolyMesh, case: ManufacturedCase) -> LinearSystem:
    """Scatter local stiffness matrices; load by the element-average rule
    f(vertex mean) * area / n per vertex; Dirichlet data from the exact
    solution at boundary vertices. The elements are computed one vertex-count
    group at a time, but the COO triplets and load terms are laid out in
    element order, so every sum adds its terms in element order."""
    sq = np.diff(mesh.offsets) ** 2
    first_k = np.cumsum(sq) - sq  # where each element's n * n COO triplets start
    rows, cols = np.empty((2, int(sq.sum())), np.intp)
    vals, load = np.empty(len(rows)), np.empty(len(mesh.indices))
    for ids, loops in mesh.vertex_count_groups():
        n = loops.shape[1]
        xy = mesh.vertices[loops]
        D, G, Pi, _, c = _projection(xy)
        at = first_k[ids, None] + np.arange(n * n)
        rows[at], cols[at] = np.repeat(loops, n, axis=1), np.tile(loops, n)
        vals[at] = _stiffness(D, G, Pi).reshape(len(ids), -1)
        at = mesh.offsets[ids, None] + np.arange(n)
        load[at] = (case.forcing(c[:, 0], c[:, 1]) * signed_areas(xy) / n)[:, None]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_vertices,) * 2)
    bidx = mesh.boundary_vertices()
    x, y = mesh.vertices[bidx].T
    return LinearSystem(A, np.bincount(mesh.indices, load, mesh.n_vertices), bidx, case.exact(x, y))


def solve(system: LinearSystem) -> np.ndarray:
    """Vertex values: direct factorization for small systems, otherwise
    Jacobi-preconditioned CG to relative residual 1e-10."""
    n = system.n_dofs
    mask = np.ones(n, dtype=bool)
    mask[system.dirichlet_index] = False
    interior = np.where(mask)[0]
    u = np.zeros(n)
    u[system.dirichlet_index] = system.dirichlet_values
    if len(interior) == 0:
        return u
    A_i = system.matrix[interior]
    A_ii = A_i[:, interior].tocsc()
    rhs_i = system.rhs[interior] - A_i[:, system.dirichlet_index] @ system.dirichlet_values
    if len(interior) <= _DIRECT_SOLVE_LIMIT:
        u[interior] = spla.spsolve(A_ii, rhs_i)
    else:
        diag = A_ii.diagonal()
        M = sp.diags(1.0 / diag)
        x, info = spla.cg(A_ii, rhs_i, rtol=1e-10, atol=0.0, M=M, maxiter=5 * len(interior))
        if info != 0:
            raise RuntimeError(f"CG failed to converge (info={info})")
        u[interior] = x
    return u


# ---------------------------------------------------------------------------
# error evaluation
# ---------------------------------------------------------------------------

def local_errors(mesh: PolyMesh, u: np.ndarray, case: ManufacturedCase) -> np.ndarray:
    """Per-element squared L2 distance between the projected discrete
    gradient (a constant) and the exact gradient."""
    out = np.empty(mesh.n_elements)
    for ids, loops in mesh.vertex_count_groups():
        xy = mesh.vertices[loops]
        _, _, Pi, h, c = _projection(xy)
        coef = (Pi @ u[loops][:, :, None])[:, :, 0]
        gx_h, gy_h = coef[:, 1:2] / h[:, None], coef[:, 2:3] / h[:, None]
        pts, wts = _fan_quadrature(xy, c)
        gx, gy = case.grad(pts[:, :, 0], pts[:, :, 1])
        out[ids] = np.sum(wts * ((gx_h - gx) ** 2 + (gy_h - gy) ** 2), axis=1)
    return out


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRecord:
    steps: list[int]
    dofs: list[int]
    h: list[float]
    errors: list[float]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "dofs", "h", "error"])
            for s, d, h, e in zip(self.steps, self.dofs, self.h, self.errors):
                w.writerow([s, d, repr(h), repr(e)])

    def slope(self, first: int = -2, last: int = -1) -> float:
        """Log-log slope of error against DoF count between two records."""
        return (math.log(self.errors[last]) - math.log(self.errors[first])) / (
            math.log(self.dofs[last]) - math.log(self.dofs[first])
        )


def convergence_study(
    mesh: PolyMesh,
    strategy,
    classifier,
    r: float,
    steps: int,
    case: ManufacturedCase,
    rho: float = 0.5,
) -> ConvergenceRecord:
    """solve -> error -> mark(r) -> refine loop; records (dofs, h, error)
    on the initial mesh and after every refinement pass."""
    rec = ConvergenceRecord([], [], [], [])
    m = mesh
    for step in range(steps + 1):
        system = assemble(m, case)
        u = solve(system)
        errs = local_errors(m, u, case)
        rec.steps.append(step)
        rec.dofs.append(m.n_vertices)
        rec.h.append(m.h)
        rec.errors.append(math.sqrt(float(errs.sum())))
        if step == steps:
            break
        marks = mark_fixed_fraction(errs, r)
        m = refine_mesh(m, marks, strategy, classifier, rho)
    return rec
