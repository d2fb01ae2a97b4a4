"""The polygon-shape classifier network and its on-disk format."""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..geometry import Polygon
from ..raster import RESOLUTION, rasterize
from .layers import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReLULayer,
    softmax,
)

# Feature maps of the six Conv->Norm->ReLU(->Pool) blocks; the last block
# has no pooling stage, so 64x64 inputs reach the dense layer as 2x2x64.
FEATURE_MAPS = (2, 4, 8, 16, 32, 64)

# Images per forward in `classify_polygons`: bounds its float64 activations
# (about 7.5 MB for 32), and larger chunks ran no faster.
CLASSIFY_CHUNK = 32

_MAGIC = b"POLYCNN1"
_FORMAT_VERSION = 1


class Network:
    """Stack of conv blocks plus a dense softmax head, trained with Adam."""

    def __init__(self, n_classes: int, resolution: int = RESOLUTION, seed: int = 0):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        rng = np.random.default_rng(seed)
        self.n_classes = n_classes
        self.resolution = resolution
        self.layers: list = []
        channels = 1
        size = resolution
        for i, maps in enumerate(FEATURE_MAPS):
            self.layers.append(ConvLayer(channels, maps, k=1, rng=rng))
            self.layers.append(BatchNormLayer(maps))
            self.layers.append(ReLULayer())
            if i < len(FEATURE_MAPS) - 1:
                self.layers.append(MaxPoolLayer(2))
                size = -(-size // 2)
            channels = maps
        self.layers.append(DenseLayer(size * size * channels, n_classes, rng=rng))

    # -- forward / backward ---------------------------------------------------
    def forward_logits(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def forward(self, images: np.ndarray, train: bool = False) -> np.ndarray:
        """Class probabilities for a batch shaped (N, res, res) or (N, res, res, 1)."""
        x = np.asarray(images, dtype=float)
        if x.ndim == 3:
            x = x[..., None]
        return softmax(self.forward_logits(x, train=train))

    def backward_from_logits(self, dlogits: np.ndarray) -> None:
        g = dlogits
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        first = self.layers[0]
        if isinstance(first, ConvLayer):
            first.param_gradients(g)  # nothing reads the gradient of the images
        else:
            first.backward(g)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def refresh_norm_stats(self, images: np.ndarray, batch_size: int = 256) -> None:
        """Replace the running batch-norm statistics with exact aggregates
        over the given images (law of total variance across batches).

        The exponential estimates lag the parameters badly on small datasets
        (few batches per epoch); recomputing them makes inference consistent
        with the final weights.
        """
        x_all = np.asarray(images)
        if x_all.ndim == 3:
            x_all = x_all[..., None]
        norms = [l for l in self.layers if isinstance(l, BatchNormLayer)]
        acc = {id(l): [0.0, 0.0, 0.0] for l in norms}  # count, sum, sum of squares
        for start in range(0, len(x_all), batch_size):
            x = x_all[start : start + batch_size]
            for layer in self.layers:
                if isinstance(layer, BatchNormLayer):
                    mu, var = layer.batch_stats(x)
                    n = x.size / x.shape[-1]
                    a = acc[id(layer)]
                    a[0] += n
                    a[1] = a[1] + n * mu
                    a[2] = a[2] + n * (var + mu * mu)
                    # normalize by this batch's stats (as in training) so the
                    # deeper layers see the distribution they will get
                    x = layer.normalize(x, mu, var)
                else:
                    x = layer.forward(x, train=False)
        for layer in norms:
            count, s1, s2 = acc[id(layer)]
            mean = s1 / count
            layer.running_mean = np.asarray(mean, dtype=np.float64)
            layer.running_var = np.asarray(s2 / count - mean * mean, dtype=np.float64)

    # -- classification ---------------------------------------------------------
    def classify_polygons(self, polys) -> np.ndarray:
        """Predicted vertex-count label (3 = triangle, ...) of each polygon's
        raster: one float64 forward per chunk of at most `CLASSIFY_CHUNK`
        images. A polygon's scores do not depend on its batch, and argmax
        ties resolve to the smaller label."""
        labels = np.empty(len(polys), dtype=np.intp)
        for start in range(0, len(polys), CLASSIFY_CHUNK):
            chunk = polys[start : start + CLASSIFY_CHUNK]
            x = np.stack([rasterize(p).pixels for p in chunk])
            labels[start : start + len(chunk)] = np.argmax(self.forward(x), axis=1) + 3
        return labels

    def classify_polygon(self, p: Polygon) -> int:
        """`classify_polygons` of one polygon."""
        return int(self.classify_polygons([p])[0])

    # -- persistence -------------------------------------------------------------
    def save(self, path) -> None:
        save_model(self, path)


def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_model(net: Network, path) -> None:
    """Versioned binary dump; parameters and running statistics round-trip
    bit-exactly (little-endian float64 blocks)."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<III", _FORMAT_VERSION, net.n_classes, net.resolution)
    out += struct.pack("<I", len(net.layers))
    for layer in net.layers:
        if isinstance(layer, ConvLayer):
            out += struct.pack(
                "<BIII", 1, layer.k, layer.in_channels, layer.feature_maps
            )
            out += _pack_array(layer.kernel)
            out += _pack_array(layer.bias)
        elif isinstance(layer, BatchNormLayer):
            out += struct.pack("<BI", 2, layer.channels)
            out += struct.pack("<dd", layer.momentum, layer.eps)
            for arr in (layer.gamma, layer.beta, layer.running_mean, layer.running_var):
                out += _pack_array(arr)
        elif isinstance(layer, ReLULayer):
            out += struct.pack("<B", 3)
        elif isinstance(layer, MaxPoolLayer):
            out += struct.pack("<BI", 4, layer.size)
        elif isinstance(layer, DenseLayer):
            out += struct.pack("<BII", 5, layer.in_features, layer.out_features)
            out += _pack_array(layer.weights)
            out += _pack_array(layer.bias)
        else:
            raise TypeError(f"unknown layer type {type(layer)!r}")
    Path(path).write_bytes(bytes(out))


class _Reader:
    """Cursor over the bytes of a model file; reading past the end raises
    ValueError naming the byte offset and the field."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, size: int, what: str) -> int:
        start = self.pos
        if start + size > len(self.data):
            raise ValueError(
                f"byte {start}: the file ends inside the {what} "
                f"({size} bytes needed, {len(self.data) - start} left)"
            )
        self.pos += size
        return start

    def unpack(self, fmt: str, what: str):
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt), what))

    def array(self, shape, what: str) -> np.ndarray:
        count = math.prod(shape)
        start = self._take(8 * count, what)
        arr = np.frombuffer(self.data, dtype="<f8", count=count, offset=start)
        return arr.reshape(shape).astype(np.float64)


def _check(ok: bool, at: int, what: str) -> None:
    if not ok:
        raise ValueError(f"byte {at}: {what}")


def load_model(path) -> Network:
    """Read a `save_model` file. A wrong magic number or version, an unknown
    layer tag, a truncated file or trailing bytes raise ValueError naming the
    byte offset. Every array is read before its layer is built, so a corrupt
    size fails on the file length instead of allocating. The layer shapes
    are replayed from the header's resolution: each layer must take what the
    layers before it give, and the last layer must be dense with one output
    per class; otherwise the ValueError names the byte and the layer."""
    r = _Reader(Path(path).read_bytes())
    (magic,) = r.unpack("8s", "magic number")
    if magic != _MAGIC:
        raise ValueError("byte 0: not a polyrefine model file")
    version, n_classes, resolution = r.unpack("<III", "header")
    if version != _FORMAT_VERSION:
        raise ValueError(f"byte 8: unsupported model version {version}")
    (n_layers,) = r.unpack("<I", "layer count")
    net = Network.__new__(Network)
    net.n_classes = n_classes
    net.resolution = resolution
    net.layers = []
    size, channels = resolution, 1  # the (size, size, channels) input of the next layer
    for i in range(n_layers):
        at = r.pos
        (tag,) = r.unpack("<B", f"tag of layer {i}")
        _check(
            not net.layers or not isinstance(net.layers[-1], DenseLayer),
            at, f"layer {i} follows the dense layer {i - 1}, which must be the last",
        )
        if tag == 1:
            k, c_in, maps = r.unpack("<III", f"header of layer {i}")
            _check(c_in == channels, at, f"layer {i} (conv) takes {c_in} channels, not {channels}")
            K = 2 * k + 1
            kernel = r.array((K, K, c_in, maps), f"kernel of layer {i}")
            bias = r.array((maps,), f"bias of layer {i}")
            layer = ConvLayer(c_in, maps, k=k)
            layer.kernel, layer.bias = kernel, bias
            channels = maps
        elif tag == 2:
            (c,) = r.unpack("<I", f"header of layer {i}")
            _check(c == channels, at, f"layer {i} (batch norm) takes {c} channels, not {channels}")
            momentum, eps = r.unpack("<dd", f"header of layer {i}")
            stats = [
                r.array((c,), f"{name} of layer {i}")
                for name in ("gamma", "beta", "running mean", "running variance")
            ]
            layer = BatchNormLayer(c, momentum=momentum, eps=eps)
            layer.gamma, layer.beta, layer.running_mean, layer.running_var = stats
        elif tag == 3:
            layer = ReLULayer()
        elif tag == 4:
            (pool,) = r.unpack("<I", f"header of layer {i}")
            _check(pool >= 1, at, f"layer {i} (max pool) has window size 0")
            layer = MaxPoolLayer(pool)
            size = -(-size // pool)
        elif tag == 5:
            n_in, n_out = r.unpack("<II", f"header of layer {i}")
            flat = size * size * channels
            _check(n_in == flat, at, f"layer {i} (dense) takes {n_in} features, not {flat}")
            weights = r.array((n_in, n_out), f"weights of layer {i}")
            bias = r.array((n_out,), f"bias of layer {i}")
            layer = DenseLayer(n_in, n_out)
            layer.weights, layer.bias = weights, bias
        else:
            raise ValueError(f"byte {at}: unknown layer tag {tag}")
        net.layers.append(layer)
    last = net.layers[-1] if net.layers else None
    _check(isinstance(last, DenseLayer), r.pos, "the last layer is not a dense layer")
    _check(
        last.out_features == n_classes,
        12, f"the header declares {n_classes} classes, the last layer (dense) has {last.out_features} outputs",
    )
    if r.pos != len(r.data):
        raise ValueError(f"byte {r.pos}: trailing bytes after the last layer")
    return net
