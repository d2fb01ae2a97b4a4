"""Polygon to 64x64 binary image conversion for the shape classifier."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Polygon, contains_many, diameter

RESOLUTION = 64
MARGIN = 1.0 / RESOLUTION  # keeps boundary pixels clear of the box edge


@dataclass(frozen=True)
class BinaryImage:
    """64x64 grid of {0, 1}; row 0 is the top of the image (y decreasing)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.shape != (RESOLUTION, RESOLUTION):
            raise ValueError(f"expected {RESOLUTION}x{RESOLUTION} pixels")
        if not np.isin(px, (0, 1)).all():
            raise ValueError("pixels must be 0 or 1")
        if not px.any():
            raise ValueError("image is empty")
        px = px.astype(np.uint8)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def lit_count(self) -> int:
        return int(self.pixels.sum())

    def to_pgm(self) -> str:
        rows = "\n".join(" ".join(str(v) for v in row) for row in self.pixels)
        return f"P1\n{RESOLUTION} {RESOLUTION}\n{rows}\n"

    def save_pgm(self, path) -> None:
        Path(path).write_text(self.to_pgm())

    @classmethod
    def from_pgm(cls, path) -> "BinaryImage":
        """Read a plain (P1) bitmap; a malformed file raises ValueError naming
        the byte offset or the missing or malformed field."""
        data = Path(path).read_bytes()
        try:
            text = data.decode()
        except UnicodeDecodeError as e:
            raise ValueError(f"byte {e.start}: not UTF-8 text") from None
        tokens = []
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        if not tokens or tokens[0] != "P1":
            raise ValueError("not a P1 bitmap")
        for i, what in ((1, "width"), (2, "height")):
            if len(tokens) <= i:
                raise ValueError(f"P1 bitmap: missing {what}")
            if not tokens[i].isdecimal():
                raise ValueError(f"P1 bitmap: {what} {tokens[i]!r} is not a whole number")
        w, h = int(tokens[1]), int(tokens[2])
        pixels = np.array(tokens[3:], dtype=str)
        if len(pixels) != w * h:
            raise ValueError(f"P1 bitmap: {len(pixels)} pixels for a {w}x{h} image")
        lit = pixels == "1"
        bad = ~lit & (pixels != "0")
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"P1 bitmap: pixel {k} is {tokens[3 + k]!r}, not 0 or 1")
        return cls(lit.astype(np.uint8).reshape(h, w))


def _pixel_centers() -> np.ndarray:
    """Centers of all pixels in (x, y) coordinates of the unit box."""
    idx = (np.arange(RESOLUTION) + 0.5) / RESOLUTION
    xs = np.tile(idx, RESOLUTION)
    ys = np.repeat(1.0 - idx, RESOLUTION)  # row 0 at the top
    return np.column_stack([xs, ys])


_CENTERS = _pixel_centers()


def rasterize(p: Polygon) -> BinaryImage:
    """Scale/translate the polygon into the unit box and light inside pixels.

    Each bounding-box side is stretched onto [MARGIN, 1-MARGIN] (anisotropic
    normalization), so the result is invariant under translation and uniform
    scaling of the input and elongated elements use the full raster instead
    of collapsing into a thin band. A pixel is lit iff its center is inside.
    """
    if diameter(p) < 1e-12:
        raise ValueError("degenerate input")
    lo = p.coords.min(axis=0)
    hi = p.coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-14 * diameter(p))
    scale = (1.0 - 2.0 * MARGIN) / span
    center = 0.5 * (lo + hi)
    scaled = Polygon.trusted(0.5 + (p.coords - center) * scale)  # positive scales keep CCW
    mask = contains_many(scaled, _CENTERS)
    grid = mask.reshape(RESOLUTION, RESOLUTION).astype(np.uint8)
    if not grid.any():
        # Sliver thinner than a pixel: light the pixel holding the centroid.
        c = scaled.coords.mean(axis=0)
        j = min(RESOLUTION - 1, max(0, int(c[0] * RESOLUTION)))
        i = min(RESOLUTION - 1, max(0, int((1.0 - c[1]) * RESOLUTION)))
        grid[i, j] = 1
    return BinaryImage(grid)
