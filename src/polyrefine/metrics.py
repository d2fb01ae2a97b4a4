"""Per-element quality metrics and mesh-level distribution summaries.

All six metrics are scale independent and take values in [0, 1]. The
inscribed radius is exact; the circumscribed radius is approximated by half
the element diameter, in the circle ratio and the normalized point distance.
`quality_report` groups the elements by vertex count and evaluates each
metric with one call per group on the (G, n, 2) coordinate stack; the
one-polygon functions read the one-row case of the same kernel.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import Polygon, edge_lengths, inscribed_radii, interior_angles, signed_areas

METRIC_NAMES = ("UF", "CR", "APR", "MA", "ER", "NPD")


def _group_metrics(coords: np.ndarray) -> dict[str, np.ndarray]:
    """The six metrics of each loop of a (G, n, 2) stack, UF as the bare diameter."""
    d = coords[:, :, None, :] - coords[:, None, :, :]
    dist = np.sqrt((d * d).sum(axis=-1))  # vertex-pair distances
    diam, n = dist.max(axis=(1, 2)), coords.shape[1]
    dist[:, range(n), range(n)] = np.inf
    lens = edge_lengths(coords)
    return {
        "UF": diam,
        "CR": inscribed_radii(coords) / (0.5 * diam),
        "APR": 4.0 * np.pi * signed_areas(coords) / lens.sum(axis=-1) ** 2,
        "MA": interior_angles(coords).min(axis=-1) / np.pi,
        "ER": lens.min(axis=-1) / lens.max(axis=-1),
        "NPD": dist.min(axis=(1, 2)) / diam,
    }


def element_metrics(p: Polygon, h: float) -> dict[str, float]:
    """The six metrics of one element, UF against the mesh size h."""
    values = _group_metrics(p.coords[None])
    return {name: float(v[0] / h if name == "UF" else v[0]) for name, v in values.items()}


def circle_ratio(p: Polygon) -> float:
    """Inscribed radius over the approximate circumscribed radius diam/2."""
    return element_metrics(p, 1.0)["CR"]


def area_perimeter_ratio(p: Polygon) -> float:
    """Isoperimetric quotient 4*pi*area / perimeter^2 (1 for a disc)."""
    return element_metrics(p, 1.0)["APR"]


def min_angle(p: Polygon) -> float:
    """Minimum inner angle normalized by 180 degrees."""
    return element_metrics(p, 1.0)["MA"]


def edge_ratio(p: Polygon) -> float:
    return element_metrics(p, 1.0)["ER"]


def normalized_point_distance(p: Polygon) -> float:
    """Min vertex-pair distance over the approximate circumscribed diameter."""
    return element_metrics(p, 1.0)["NPD"]


@dataclass
class QualityReport:
    values: dict[str, np.ndarray]  # metric name -> per-element values
    bins: int = 20
    histograms: dict[str, np.ndarray] = field(default_factory=dict)
    medians: dict[str, float] = field(default_factory=dict)
    means: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        edges = np.linspace(0.0, 1.0, self.bins + 1)
        for name, vals in self.values.items():
            hist, _ = np.histogram(vals, bins=edges)
            self.histograms[name] = hist
            self.medians[name] = float(np.median(vals))
            self.means[name] = float(np.mean(vals))

    @property
    def n_elements(self) -> int:
        return len(next(iter(self.values.values())))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["element"] + list(METRIC_NAMES))
            for i in range(self.n_elements):
                w.writerow([i] + [repr(float(self.values[m][i])) for m in METRIC_NAMES])


def quality_report(polys: list[Polygon], bins: int = 20) -> QualityReport:
    """All six metrics of every element, one kernel call per vertex count."""
    if not polys:
        raise ValueError("quality report: the mesh has no elements")
    values = {name: np.empty(len(polys)) for name in METRIC_NAMES}
    counts = np.array([p.n for p in polys])
    for ids in (np.flatnonzero(counts == n) for n in np.unique(counts)):
        for name, vals in _group_metrics(np.stack([polys[i].coords for i in ids])).items():
            values[name][ids] = vals
    values["UF"] /= values["UF"].max()  # diameter over h = max diameter
    return QualityReport(values, bins=bins)
