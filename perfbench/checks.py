"""Correctness checks on the pipeline's outputs.

Every check works on plain arrays and recomputes its property with code of
its own (shoelace areas, an edge table, a scanline fill, a CSR product), so
a fault in the program cannot hide itself by being used to check itself.
Each check raises CheckError with a message naming what failed.
"""
from __future__ import annotations

import math

import numpy as np

RESOLUTION = 64  # raster side, fixed by the classifier's input format
_MARGIN = 1.0 / RESOLUTION


class CheckError(AssertionError):
    """An output of the pipeline failed a correctness check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# meshes of the unit square
# ---------------------------------------------------------------------------

def shoelace(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def check_unit_square_mesh(vertices, elements, what: str = "mesh", tol: float = 1e-9) -> None:
    """Area 1, V - E + F = 1, no edge in more than two elements, and the
    edges used once cover exactly the unit square's boundary (length 4)."""
    vertices = np.asarray(vertices, dtype=float)
    areas = [shoelace(vertices[loop]) for loop in elements]
    require(min(areas) > 0.0, f"{what}: element with non-positive area")
    require(abs(sum(areas) - 1.0) <= tol, f"{what}: area {sum(areas)!r} != 1")
    count: dict[tuple[int, int], int] = {}
    for loop in elements:
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (a, b) if a < b else (b, a)
            count[key] = count.get(key, 0) + 1
    euler = len(vertices) - len(count) + len(elements)
    require(euler == 1, f"{what}: V - E + F = {euler}, expected 1")
    require(max(count.values()) <= 2, f"{what}: edge shared by more than two elements")
    length = 0.0
    for (a, b), n in count.items():
        if n != 1:
            continue
        pa, pb = vertices[a], vertices[b]
        same_side = any(
            abs(pa[k] - side) <= tol and abs(pb[k] - side) <= tol
            for k in (0, 1)
            for side in (0.0, 1.0)
        )
        require(same_side, f"{what}: once-used edge {a}-{b} off the square's boundary")
        length += math.hypot(*(pb - pa))
    require(abs(length - 4.0) <= tol, f"{what}: boundary length {length!r} != 4")


def median_area_perimeter_ratio(vertices, elements) -> float:
    vertices = np.asarray(vertices, dtype=float)
    out = []
    for loop in elements:
        c = vertices[loop]
        per = float(np.hypot(*(np.roll(c, -1, axis=0) - c).T).sum())
        out.append(4.0 * math.pi * shoelace(c) / (per * per))
    return float(np.median(out))


def check_cnn_beats_mp(grid: str, apr_mp: float, apr_cnn: dict[str, float]) -> None:
    for strategy, value in apr_cnn.items():
        require(
            value > apr_mp,
            f"{grid}: median 4*pi*A/P^2 of {strategy} {value:.4f} not above MP {apr_mp:.4f}",
        )


def check_stub_count(n_elements: int, passes: int) -> None:
    expected = 32 * 4**passes
    require(
        n_elements == expected,
        f"stub CNN-RP on the triangle grid: {n_elements} elements after {passes} passes, expected {expected}",
    )


# ---------------------------------------------------------------------------
# rasterization and classification
# ---------------------------------------------------------------------------

def _normalized(coords: np.ndarray) -> np.ndarray:
    """The rasterizer's documented frame: each bounding-box side stretched
    onto [1/64, 63/64]."""
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    return 0.5 + (coords - 0.5 * (lo + hi)) * ((1.0 - 2.0 * _MARGIN) / (hi - lo))


def scanline_fill(coords) -> tuple[np.ndarray, np.ndarray]:
    """Even-odd fill of the normalized polygon at the pixel centres, and the
    distance of every pixel centre to the boundary. Row 0 is the top."""
    c = _normalized(np.asarray(coords, dtype=float))
    centers = (np.arange(RESOLUTION) + 0.5) / RESOLUTION
    a, b = c, np.roll(c, -1, axis=0)
    lit = np.zeros((RESOLUTION, RESOLUTION), dtype=bool)
    for row in range(RESOLUTION):
        y = 1.0 - centers[row]
        spans = (a[:, 1] <= y) != (b[:, 1] <= y)
        xs = np.sort(
            a[spans, 0]
            + (y - a[spans, 1]) * (b[spans, 0] - a[spans, 0]) / (b[spans, 1] - a[spans, 1])
        )
        for x0, x1 in zip(xs[0::2], xs[1::2]):
            lit[row, (centers > x0) & (centers < x1)] = True
    px = np.column_stack([np.tile(centers, RESOLUTION), np.repeat(1.0 - centers, RESOLUTION)])
    ab = b - a
    t = np.clip(((px[:, None, :] - a[None]) * ab[None]).sum(axis=2) / (ab * ab).sum(axis=1), 0.0, 1.0)
    gap = px[:, None, :] - (a[None] + t[:, :, None] * ab[None])
    dist = np.sqrt((gap * gap).sum(axis=2)).min(axis=1)
    return lit, dist.reshape(RESOLUTION, RESOLUTION)


def check_raster(coords, pixels, what: str = "polygon", band: float = 1e-9) -> None:
    """The program's raster equals the even-odd fill, apart from pixels whose
    centre lies within `band` of the boundary."""
    lit, dist = scanline_fill(coords)
    differ = (np.asarray(pixels) != 0) != lit
    require(not np.any(differ & (dist > band)), f"{what}: raster differs from the even-odd fill")


def check_same_raster(pixels_a, pixels_b, what: str) -> None:
    require(np.array_equal(pixels_a, pixels_b), f"{what}: lit set changed")


def check_accuracy(predicted, labels, floor: float, what: str) -> float:
    acc = float(np.mean(np.asarray(predicted) == np.asarray(labels)))
    require(acc >= floor, f"{what}: accuracy {acc:.3f} below the floor {floor}")
    return acc


def check_labels_equal(batched, sequential, what: str) -> None:
    require(
        list(map(int, batched)) == list(map(int, sequential)),
        f"{what}: batched forward argmax disagrees with classify_polygon",
    )


def check_all_label(labels, label: int, what: str) -> None:
    wrong = [i for i, v in enumerate(labels) if int(v) != label]
    require(not wrong, f"{what}: elements {wrong[:5]} not labelled {label}")


def check_loss_falls(train_loss) -> None:
    require(
        len(train_loss) >= 2 and train_loss[-1] < train_loss[0],
        f"training loss did not fall: {list(train_loss)}",
    )


# ---------------------------------------------------------------------------
# VEM solutions
# ---------------------------------------------------------------------------

def csr_matvec(indptr, indices, data, x) -> np.ndarray:
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=len(indptr) - 1)


def check_residual(indptr, indices, data, rhs, dirichlet_index, u, what: str, tol: float = 1e-8) -> float:
    """Interior residual of A u = rhs relative to the interior right-hand
    side once the Dirichlet values are moved over."""
    interior = np.ones(len(rhs), dtype=bool)
    interior[dirichlet_index] = False
    lifted = np.zeros(len(rhs))
    lifted[dirichlet_index] = u[dirichlet_index]
    reference = np.linalg.norm((rhs - csr_matvec(indptr, indices, data, lifted))[interior])
    residual = np.linalg.norm((rhs - csr_matvec(indptr, indices, data, u))[interior])
    rel = residual / max(reference, 1e-300)
    require(rel <= tol, f"{what}: relative interior residual {rel:.3e} > {tol}")
    return rel


def check_patch(vertices, u, coeffs, what: str, tol: float = 1e-9) -> None:
    a, b, c = coeffs
    vertices = np.asarray(vertices, dtype=float)
    err = float(np.abs(u - (a * vertices[:, 0] + b * vertices[:, 1] + c)).max())
    require(err <= tol, f"{what}: linear patch test off by {err:.3e}")


def check_target_step(errors, step: int, target: float, what: str) -> None:
    """`step` is the first step whose error is at or below the target, and
    no error lies within 1% of the target."""
    require(errors[step] <= target, f"{what}: error {errors[step]:.4g} above target {target}")
    require(
        all(e > target for e in errors[:step]),
        f"{what}: target {target} reached before step {step}",
    )
    near = [e for e in errors if abs(e / target - 1.0) <= 0.01]
    require(not near, f"{what}: errors {near} within 1% of target {target}")


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------

def check_unit_interval(values: dict, what: str) -> None:
    for name, vals in values.items():
        vals = np.asarray(vals)
        require(
            np.all(np.isfinite(vals)) and vals.min() >= 0.0 and vals.max() <= 1.0,
            f"{what}: metric {name} outside [0, 1]",
        )


def check_right_isosceles(values: dict, cr_tol: float = 2e-3, tol: float = 1e-12) -> None:
    """Closed forms of the six metrics on a uniform mesh of right isosceles
    triangles; CR only to the inscribed-radius precision."""
    root2 = math.sqrt(2.0)
    exact = {
        "UF": 1.0,
        "APR": 2.0 * math.pi / (2.0 + root2) ** 2,
        "MA": 0.25,
        "ER": 1.0 / root2,
        "NPD": 1.0 / root2,
    }
    for name, value in exact.items():
        err = float(np.abs(np.asarray(values[name]) - value).max())
        require(err <= tol, f"right isosceles: {name} off its closed form by {err:.3e}")
    err = float(np.abs(np.asarray(values["CR"]) - (root2 - 1.0)).max())
    require(err <= cr_tol, f"right isosceles: CR off sqrt(2) - 1 by {err:.3e}")
