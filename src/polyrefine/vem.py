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

from .geometry import Polygon, area, centroid, diameter
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
    and the matching forcing term f = -laplacian(u)."""

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
# local projection and stiffness
# ---------------------------------------------------------------------------

def projection_parts(p: Polygon):
    """D (dof values of the scaled monomials), B (their boundary pairings),
    G = B @ D and the projector Pi = G^-1 B onto {1, mx, my}."""
    coords = p.coords
    n = len(coords)
    h = diameter(p)
    xc, yc = coords.mean(axis=0)
    D = np.column_stack(
        [np.ones(n), (coords[:, 0] - xc) / h, (coords[:, 1] - yc) / h]
    )
    nxt = np.concatenate((coords[1:], coords[:1]))
    prv = np.concatenate((coords[-1:], coords[:-1]))
    # sum of the two incident outward normals times edge lengths, halved
    d = 0.5 * np.column_stack([nxt[:, 1] - prv[:, 1], prv[:, 0] - nxt[:, 0]])
    B = np.vstack([np.full(n, 1.0 / n), d[:, 0] / h, d[:, 1] / h])
    G = B @ D
    Pi = np.linalg.solve(G, B)
    return D, B, G, Pi, h


def local_stiffness(p: Polygon) -> np.ndarray:
    """Symmetric PSD element matrix, exact on linears, kernel = constants."""
    D, _, G, Pi, _ = projection_parts(p)
    Gt = G.copy()
    Gt[0, :] = 0.0
    n = len(D)
    stab = np.eye(n) - D @ Pi
    K = Pi.T @ Gt @ Pi + stab.T @ stab
    return 0.5 * (K + K.T)


def polygon_quadrature(p: Polygon) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points/weights from a signed fan about the vertex-average
    centroid; exact to degree 4 for any simple polygon."""
    c = centroid(p)
    a = p.coords
    b = np.concatenate((a[1:], a[:1]))
    # signed triangle areas of (c, a_i, b_i)
    s = 0.5 * ((a[:, 0] - c[0]) * (b[:, 1] - c[1]) - (b[:, 0] - c[0]) * (a[:, 1] - c[1]))
    pts = (
        _QB[None, :, 0:1] * c[None, None, :]
        + _QB[None, :, 1:2] * a[:, None, :]
        + _QB[None, :, 2:3] * b[:, None, :]
    ).reshape(-1, 2)
    wts = (s[:, None] * _QW[None, :]).reshape(-1)
    return pts, wts


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
    f(centroid) * area / n per vertex; Dirichlet data from the exact
    solution at boundary vertices."""
    nv = mesh.n_vertices
    rows, cols, vals = [], [], []
    rhs = np.zeros(nv)
    for i, loop in enumerate(mesh.elements):
        p = mesh.polygon(i)
        K = local_stiffness(p)
        idx = np.asarray(loop)
        ii, jj = np.meshgrid(idx, idx, indexing="ij")
        rows.append(ii.ravel())
        cols.append(jj.ravel())
        vals.append(K.ravel())
        cx, cy = centroid(p).tolist()
        rhs[idx] += float(case.forcing(cx, cy)) * area(p) / len(loop)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nv, nv),
    )
    bidx = np.asarray(sorted(mesh.boundary_vertices()), dtype=int)
    bvals = np.asarray(
        [float(case.exact(x, y)) for x, y in mesh.vertices[bidx]]
    )
    return LinearSystem(A, rhs, bidx, bvals)


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

def element_error_sq(p: Polygon, u_local: np.ndarray, case: ManufacturedCase) -> float:
    """Squared L2 distance on the element between the projected discrete
    gradient (a constant) and the exact gradient."""
    _, _, _, Pi, h = projection_parts(p)
    coef = Pi @ u_local
    gx_h, gy_h = coef[1] / h, coef[2] / h
    pts, wts = polygon_quadrature(p)
    gx, gy = case.grad(pts[:, 0], pts[:, 1])
    return float(np.sum(wts * ((gx_h - gx) ** 2 + (gy_h - gy) ** 2)))


def local_errors(mesh: PolyMesh, u: np.ndarray, case: ManufacturedCase) -> np.ndarray:
    """Per-element squared contributions to the broken H1-like error."""
    out = np.empty(mesh.n_elements)
    for i, loop in enumerate(mesh.elements):
        out[i] = element_error_sq(mesh.polygon(i), u[loop], case)
    return out


def h1_error(mesh: PolyMesh, u: np.ndarray, case: ManufacturedCase) -> float:
    return math.sqrt(float(local_errors(mesh, u, case).sum()))


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
