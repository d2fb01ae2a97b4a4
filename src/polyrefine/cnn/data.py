"""Synthetic polygon dataset: perturbed regular polygons, rasterized.

Class j holds shapes derived from the regular (j+3)-gon: extra vertices
dropped onto random edges, per-vertex jitter inside a disc, a random
rotation and a random uniform scaling.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..geometry import Polygon, PolygonError
from ..raster import BinaryImage, rasterize


@dataclass(frozen=True)
class LabeledImage:
    image: BinaryImage
    onehot: np.ndarray

    @property
    def class_index(self) -> int:
        return int(np.argmax(self.onehot))

    @property
    def label(self) -> int:
        """Vertex-count label: class 0 -> 3 (triangle), 1 -> 4 (quad), ..."""
        return self.class_index + 3


def _one_hot(j: int, n_classes: int) -> np.ndarray:
    v = np.zeros(n_classes)
    v[j] = 1.0
    return v


def perturbed_polygon(label: int, rng: np.random.Generator) -> Polygon:
    """One random sample of the shape class with `label` true corners.

    Pipeline: jitter the corners of the regular polygon inside a disc of
    radius eta * circumradius with eta ~ U[0, 0.15], drop 0-3 extra aligned
    vertices onto random edges (aligned, so the corner count of the class is
    preserved), then rotate by U[0, 2*pi) and scale by U[0.5, 1]. Invalid
    (self-intersecting) draws are retried.
    """
    base_angles = 2.0 * np.pi * np.arange(label) / label
    base = np.column_stack([np.cos(base_angles), np.sin(base_angles)])
    for _ in range(200):
        eta = rng.uniform(0.0, 0.15)
        radii = eta * np.sqrt(rng.uniform(0.0, 1.0, size=label))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=label)
        coords = base + radii[:, None] * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        pts = [row for row in coords]
        n_extra = int(rng.integers(0, 4))
        for _ in range(n_extra):
            e = int(rng.integers(0, len(pts)))
            t = rng.uniform(0.05, 0.95)
            a, b = pts[e], pts[(e + 1) % len(pts)]
            pts.insert(e + 1, a + t * (b - a))
        coords = np.asarray(pts)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        coords = coords @ rot.T
        coords = coords * rng.uniform(0.5, 1.0)
        try:
            return Polygon(coords)
        except PolygonError:
            continue
    raise RuntimeError(f"could not draw a valid class-{label} polygon")


def generate_dataset(
    n_classes: int, n_per_class: int, seed: int = 0
) -> list[LabeledImage]:
    """n_classes * n_per_class labeled binary images (classes 3..n_classes+2)."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(n_classes):
        label = j + 3
        onehot = _one_hot(j, n_classes)
        for _ in range(n_per_class):
            img = rasterize(perturbed_polygon(label, rng))
            out.append(LabeledImage(img, onehot))
    return out


def split_dataset(data, fractions=(0.6, 0.2, 0.2), seed: int = 0):
    """Shuffle and split into train/validation/test parts."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_train = int(fractions[0] * len(data))
    n_val = int(fractions[1] * len(data))
    train = [data[i] for i in order[:n_train]]
    val = [data[i] for i in order[n_train : n_train + n_val]]
    test = [data[i] for i in order[n_train + n_val :]]
    return train, val, test


def batch_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (N, res, res, 1) inputs and (N, ell) targets."""
    x = np.stack([s.image.pixels for s in samples]).astype(float)[..., None]
    y = np.stack([s.onehot for s in samples]).astype(float)
    return x, y


def save_dataset(data, directory) -> None:
    """PGM files plus a labels.csv index, one row per image."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n_classes = len(data[0].onehot)
    with open(directory / "labels.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["filename", "class_index", "label", "n_classes"])
        for i, sample in enumerate(data):
            name = f"shape_{i:06d}.pgm"
            sample.image.save_pgm(directory / name)
            w.writerow([name, sample.class_index, sample.label, n_classes])


def load_dataset(directory) -> list[LabeledImage]:
    """The samples of a `save_dataset` directory. A labels.csv without rows,
    or a row whose class_index is not a class of its n_classes or whose
    n_classes differs from the first row's, raises ValueError naming its line."""
    directory = Path(directory)
    out = []
    with open(directory / "labels.csv", newline="") as f:
        rows = csv.DictReader(f)
        for row in rows:
            where = f"labels.csv line {rows.line_num}"
            try:
                j, n = int(row.get("class_index")), int(row.get("n_classes"))
            except (TypeError, ValueError):
                raise ValueError(f"{where}: class_index and n_classes must be whole numbers") from None
            if not 0 <= j < n:
                raise ValueError(f"{where}: class_index {j} is not a class of n_classes {n}")
            if out and n != len(out[0].onehot):
                raise ValueError(f"{where}: n_classes {n}, but the first row has {len(out[0].onehot)}")
            img = BinaryImage.from_pgm(directory / row["filename"])
            out.append(LabeledImage(img, _one_hot(j, n)))
    if not out:
        raise ValueError(f"labels.csv line {rows.line_num + 1}: no image rows")
    return out
