"""Per-polygon reference for the grouped quality kernels.

A self-contained copy of the one-polygon-at-a-time metric code that the
stacked kernels in `geometry` and `metrics` replaced: six metric calls per
element and one triple search per inscribed radius. The kernels must match
it bit for bit (`np.array_equal`), so it keeps the same arithmetic in the
same order, and it calls nothing in `polyrefine` but `Polygon.coords`.
"""
import itertools

import numpy as np

METRIC_NAMES = ("UF", "CR", "APR", "MA", "ER", "NPD")


def _roll(a):
    return np.concatenate((a[1:], a[:1]))


def _diameter(a) -> float:
    d = a[:, None, :] - a[None, :, :]
    return float(np.sqrt((d * d).sum(axis=-1).max()))


def _area(a) -> float:
    nxt = _roll(a)
    return float(0.5 * (a[:, 0] * nxt[:, 1] - nxt[:, 0] * a[:, 1]).sum(-1))


def _edge_lengths(a):
    return np.hypot(*(_roll(a) - a).T)


def _distance_to_boundary(a, pts):
    ab = _roll(a) - a
    ab2 = (ab * ab).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / ab2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.hypot(*(pts[:, None, :] - proj).transpose(2, 0, 1)).min(axis=1)


def _contains(a, pts):
    b = _roll(a)
    x, y = pts[:, 0:1], pts[:, 1:2]
    y1, y2 = a[None, :, 1], b[None, :, 1]
    x1, x2 = a[None, :, 0], b[None, :, 0]
    straddle = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    inside = ((straddle & (xcross > x)).sum(axis=1) % 2) == 1
    return inside | (_distance_to_boundary(a, pts) <= 0.0)


def _equidistant_centres(c, b, m, tri):
    lin, quad = tri[tri[:, 2] < m], tri[tri[:, 2] >= m]
    lin = lin[np.abs(np.linalg.det(c[lin])) > 1e-12]
    out = [np.linalg.solve(c[lin], b[lin][:, :, None])[:, :, 0]]
    if len(quad):
        k, ij = quad[:, 2], quad[:, :2]
        rows, beta = c[ij] - (ij >= m)[:, :, None] * c[k][:, None, :], b[ij] - (ij >= m) * b[k][:, None]
        d = np.cross(rows[:, 0], rows[:, 1])
        ok = (d * d).sum(axis=1) > 1e-24 * (rows * rows).sum(axis=2).prod(axis=1)
        rows, beta, d, k = rows[ok], beta[ok], d[ok], k[ok]
        system = np.concatenate([rows, d[:, None, :]], axis=1)
        p0 = np.linalg.solve(system, np.column_stack([beta, np.zeros(len(d))])[:, :, None])[:, :, 0]
        sig = np.array([1.0, 1.0, -1.0])
        qa = (sig * d * d).sum(axis=1)
        qb = 2.0 * (sig * p0 * d).sum(axis=1) + (c[k] * d).sum(axis=1)
        qc = (sig * p0 * p0).sum(axis=1) + (c[k] * p0).sum(axis=1) - b[k]
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        with np.errstate(divide="ignore", invalid="ignore"):
            out += [p0 + t[:, None] * d for t in (q / qa, qc / q)]
    return np.vstack(out)


def inscribed_radius(p) -> float:
    scale = _diameter(p.coords)
    a = (p.coords - p.coords.mean(axis=0)) / scale
    u = _roll(a) - a
    u /= np.hypot(u[:, 0], u[:, 1])[:, None]
    up = np.concatenate((u[-1:], u[:-1]))
    sine = up[:, 0] * u[:, 1] - up[:, 1] * u[:, 0]
    corner = np.abs(sine) > 1e-12
    normal = np.column_stack([-u[corner, 1], u[corner, 0]])
    reflex = a[sine < -1e-12]
    m = len(normal)
    c = np.zeros((m + len(reflex), 3))
    c[:m, :2], c[:m, 2], c[m:, :2] = normal, -1.0, -2.0 * reflex
    b = np.concatenate([(normal * a[corner]).sum(axis=1), -(reflex * reflex).sum(axis=1)])
    tri = np.array(list(itertools.combinations(range(len(b)), 3)), dtype=np.intp).reshape(-1, 3)
    best, step = 0.0, 1 + 2**18 // len(a)
    for start in range(0, len(tri), step):
        x = _equidistant_centres(c, b, m, tri[start : start + step])
        x = x[np.isfinite(x).all(axis=1) & (x[:, 0] ** 2 + x[:, 1] ** 2 <= 1.0), :2]
        d = _distance_to_boundary(a, x[_contains(a, x)])
        best = max(best, float(d.max(initial=0.0)))
    return scale * best


def element_metrics(p, h: float) -> dict[str, float]:
    a = p.coords
    diam = _diameter(a)
    per = float(np.sum(_edge_lengths(a)))
    prev, nxt = np.concatenate((a[-1:], a[:-1])), _roll(a)
    u, v = a - prev, nxt - a
    turn = np.arctan2(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0], (u * v).sum(axis=1))
    lens = _edge_lengths(a)
    d = a[:, None, :] - a[None, :, :]
    dist = np.sqrt((d * d).sum(axis=2))
    npd_diam = dist.max()
    np.fill_diagonal(dist, np.inf)
    return {
        "UF": diam / h,
        "CR": inscribed_radius(p) / (0.5 * diam),
        "APR": 4.0 * np.pi * _area(a) / (per * per),
        "MA": float((np.pi - turn).min()) / np.pi,
        "ER": float(lens.min() / lens.max()),
        "NPD": float(dist.min() / npd_diam),
    }


def quality_values(polys) -> dict[str, np.ndarray]:
    """The six metrics of each polygon, UF over the largest diameter."""
    values = {name: np.empty(len(polys)) for name in METRIC_NAMES}
    for i, p in enumerate(polys):
        for name, val in element_metrics(p, 1.0).items():
            values[name][i] = val
    values["UF"] /= values["UF"].max()
    return values
