"""Per-element quality metrics and mesh-level distribution summaries.

All six metrics are scale independent and take values in [0, 1]. The
inscribed radius is exact; the circumscribed radius is approximated by half
the element diameter, in the circle ratio and the normalized point distance.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    Polygon,
    area,
    diameter,
    edge_lengths,
    inscribed_radius,
    min_inner_angle,
    perimeter,
)

METRIC_NAMES = ("UF", "CR", "APR", "MA", "ER", "NPD")


def circle_ratio(p: Polygon) -> float:
    """Inscribed radius over the approximate circumscribed radius diam/2."""
    return inscribed_radius(p) / (0.5 * diameter(p))


def area_perimeter_ratio(p: Polygon) -> float:
    """Isoperimetric quotient 4*pi*area / perimeter^2 (1 for a disc)."""
    per = perimeter(p)
    return 4.0 * np.pi * area(p) / (per * per)


def min_angle(p: Polygon) -> float:
    """Minimum inner angle normalized by 180 degrees."""
    return min_inner_angle(p) / np.pi


def edge_ratio(p: Polygon) -> float:
    lens = edge_lengths(p)
    return float(lens.min() / lens.max())


def normalized_point_distance(p: Polygon) -> float:
    """Min vertex-pair distance over the approximate circumscribed diameter."""
    d = p.coords[:, None, :] - p.coords[None, :, :]
    dist = np.sqrt((d * d).sum(axis=2))
    diam = dist.max()  # equals diameter(p)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min() / diam)


def uniformity_factor(polys: list[Polygon]) -> np.ndarray:
    """Element diameter divided by the mesh size h = max diameter."""
    diams = np.array([diameter(p) for p in polys])
    return diams / diams.max()


def element_metrics(p: Polygon, h: float) -> dict[str, float]:
    diam = diameter(p)
    return {
        "UF": diam / h,
        "CR": inscribed_radius(p) / (0.5 * diam),  # circle_ratio(p)
        "APR": area_perimeter_ratio(p),
        "MA": min_angle(p),
        "ER": edge_ratio(p),
        "NPD": normalized_point_distance(p),
    }


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
    """Evaluate all six metrics on every element of the mesh."""
    per_metric = {name: np.empty(len(polys)) for name in METRIC_NAMES}
    for i, p in enumerate(polys):
        for name, val in element_metrics(p, 1.0).items():
            per_metric[name][i] = val
    per_metric["UF"] /= per_metric["UF"].max()  # diameter over h = max diameter
    return QualityReport(per_metric, bins=bins)


def load_quality_csv(path) -> dict[str, np.ndarray]:
    rows = list(csv.reader(Path(path).open()))
    header = rows[0][1:]
    data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}
