"""Polygon to 64x64 binary image conversion for the shape classifier: an
even-odd scanline fill (Foley, van Dam et al., *Computer Graphics*, section
3.6) that lights the pixels a per-pixel ray test would, at O(64 n + 4096) cost."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Polygon, diameter, distance_to_boundary, geom_tol

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
        if not ((px == 0) | (px == 1)).all():
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
        text = np.full((RESOLUTION, 2 * RESOLUTION), ord(" "), dtype=np.uint8)  # a text row per pixel row
        text[:, ::2], text[:, -1] = self.pixels + ord("0"), ord("\n")
        return f"P1\n{RESOLUTION} {RESOLUTION}\n" + text.tobytes().decode()

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
        if "#" in text:  # a comment runs to the end of its line; every line break is whitespace
            text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        tokens = text.split(maxsplit=3)
        if not tokens or tokens[0] != "P1":
            raise ValueError("not a P1 bitmap")
        for i, what in ((1, "width"), (2, "height")):
            if len(tokens) <= i:
                raise ValueError(f"P1 bitmap: missing {what}")
            if not tokens[i].isdecimal():
                raise ValueError(f"P1 bitmap: {what} {tokens[i]!r} is not a whole number")
        w, h = int(tokens[1]), int(tokens[2])
        body = tokens[3] if len(tokens) > 3 else ""
        raw = body.encode()
        digits = np.frombuffer(raw.translate(None, _ASCII_SPACE), dtype=np.uint8)
        bit = (np.frombuffer(raw, dtype=np.uint8) | 1) == ord("1")  # the characters 0 and 1
        if ((digits | 1) == ord("1")).all() and not (bit[1:] & bit[:-1]).any():
            pixels = digits - ord("0")  # each token is a single 0 or 1
        else:
            pixels = np.array([{"0": 0, "1": 1}.get(t, 2) for t in body.split()], dtype=np.uint8)
        if len(pixels) != w * h:
            raise ValueError(f"P1 bitmap: {len(pixels)} pixels for a {w}x{h} image")
        if (pixels > 1).any():
            k = int(np.argmax(pixels > 1))
            raise ValueError(f"P1 bitmap: pixel {k} is {body.split()[k]!r}, not 0 or 1")
        return cls(pixels.reshape(h, w))


_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())


_XS = (np.arange(RESOLUTION) + 0.5) / RESOLUTION  # pixel-centre x of column j
_YS = 1.0 - _XS  # pixel-centre y of row i (row 0 at the top)


def rasterize(p: Polygon) -> BinaryImage:
    """Scale/translate the polygon into the unit box and light inside pixels.

    Each bounding-box side is stretched onto [MARGIN, 1-MARGIN] (anisotropic
    normalization), so the result is invariant under translation and uniform
    scaling of the input and elongated elements use the full raster instead
    of collapsing into a thin band. A pixel is lit iff its center is inside
    or within `geom_tol` of the boundary: its row's edge crossings decide.
    """
    if (d := diameter(p)) < 1e-12:
        raise ValueError("degenerate input")
    lo = p.coords.min(axis=0)
    hi = p.coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-14 * d)
    scale = (1.0 - 2.0 * MARGIN) / span
    center = 0.5 * (lo + hi)
    scaled = Polygon.trusted(0.5 + (p.coords - center) * scale)  # positive scales keep CCW
    (x1, y1), (x2, y2) = scaled.coords.T, np.concatenate((scaled.coords[1:], scaled.coords[:1])).T
    r, e = np.nonzero((y1 <= _YS[:, None]) != (y2 <= _YS[:, None]))
    xcross = x1[e] + (_YS[r] - y1[e]) * (x2[e] - x1[e]) / (y2[e] - y1[e])
    k = np.searchsorted(_XS, xcross, side="left")  # the column centres left of the crossing
    crossings = np.bincount(r * (RESOLUTION + 1) + k, minlength=RESOLUTION * (RESOLUTION + 1))
    # A row holds an even number of crossings, so an odd number right of column j is an
    # odd number with k <= j, and a running sum over all rows keeps each row's parity.
    lit = (crossings.cumsum() & 1).reshape(RESOLUTION, RESOLUTION + 1)[:, :-1].astype(bool)
    # a centre within tol of an edge is within tol of the x-range of its part in the slab |y - y_row| <= tol
    tol = geom_tol(scaled)
    w = tol + 1e-9  # the slack covers rounding in these bounds
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    r, e = np.nonzero((ylo - w <= _YS[:, None]) & (_YS[:, None] <= yhi + w))
    x0, dx, y0, dy = x1[e], x2[e] - x1[e], y1[e], y2[e] - y1[e]
    with np.errstate(divide="ignore", invalid="ignore"):  # a horizontal edge lies in the slab whole
        xa, xb = (x0 + dx * np.where(dy == 0.0, t, (np.clip(_YS[r] + s, ylo[e], yhi[e]) - y0) / dy)
                  for s, t in ((-w, 0.0), (w, 1.0)))
    first = np.searchsorted(_XS, np.minimum(xa, xb) - w, side="left")
    n = np.searchsorted(_XS, np.maximum(xa, xb) + w, side="right") - first
    rows, cols = np.repeat(r, n), np.arange(n.sum()) + np.repeat(first + n - np.cumsum(n), n)
    rows, cols = rows[~lit[rows, cols]], cols[~lit[rows, cols]]
    if len(rows):
        lit[rows, cols] = distance_to_boundary(scaled, np.column_stack([_XS[cols], _YS[rows]])) <= tol
    grid = lit.astype(np.uint8)
    if not grid.any():
        # Sliver thinner than a pixel: light the pixel holding the centroid.
        c = scaled.coords.mean(axis=0)
        j = min(RESOLUTION - 1, max(0, int(c[0] * RESOLUTION)))
        i = min(RESOLUTION - 1, max(0, int((1.0 - c[1]) * RESOLUTION)))
        grid[i, j] = 1
    return BinaryImage(grid)
