"""Fuzz the three file loaders with truncations and byte flips of a valid file.

Each corrupted file either raises the loader's typed error (MeshError for
meshes, a plain ValueError for models and bitmaps; never IndexError,
struct.error or a bare UnicodeDecodeError) or loads into an object that
passes the loader's own checks.
"""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyrefine.cnn import load_model, save_model
from polyrefine.cnn.layers import BatchNormLayer, ConvLayer, DenseLayer, MaxPoolLayer, ReLULayer
from polyrefine.cnn.network import Network
from polyrefine.geometry import regular_polygon
from polyrefine.mesh import MeshError, generate_triangle_grid, load_mesh, save_mesh
from polyrefine.raster import RESOLUTION, BinaryImage, rasterize

FUZZ = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """Up to three flipped bytes, then perhaps a cut."""
    out = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    cut = draw(st.one_of(st.none(), st.integers(0, len(out))))
    return bytes(out[:cut])


def _mesh_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    save_mesh(generate_triangle_grid(2), path)
    return path.read_bytes()


def _small_model_bytes(tmp_path_factory) -> bytes:
    """A model file with one layer of each kind, so that most of its bytes
    are headers rather than parameters."""
    rng = np.random.default_rng(0)
    net = Network.__new__(Network)
    net.n_classes, net.resolution = 2, 4
    bn = BatchNormLayer(2)
    bn.running_mean = rng.normal(size=2)
    net.layers = [
        ConvLayer(1, 2, k=1, rng=rng), bn, ReLULayer(), MaxPoolLayer(2), DenseLayer(8, 2, rng=rng)
    ]
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(net, path)
    return path.read_bytes()


def _pgm_bytes() -> bytes:
    return rasterize(regular_polygon(5)).to_pgm().encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return {
        "mesh": _mesh_bytes(tmp_path_factory),
        "model": _small_model_bytes(tmp_path_factory),
        "pgm": _pgm_bytes(),
    }


@FUZZ
@given(data=st.data())
def test_corrupted_mesh_raises_mesh_error_or_loads_valid(data, valid_files, tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_bytes(data.draw(corrupted(valid_files["mesh"])))
    try:
        mesh = load_mesh(path)
    except MeshError as e:
        assert re.match(r"(line \d+|element \d+|edge \(\d+,\d+\)):? ", str(e)), str(e)
        return
    mesh.validate()


@FUZZ
@given(data=st.data())
def test_corrupted_model_raises_located_error_or_round_trips(data, valid_files, tmp_path):
    raw = data.draw(corrupted(valid_files["model"]))
    path = tmp_path / "model.bin"
    path.write_bytes(raw)
    try:
        net = load_model(path)
    except ValueError as e:
        assert type(e) is ValueError and re.match(r"byte \d+: ", str(e)), repr(e)
        return
    save_model(net, path)  # a file that loads is one that save_model writes
    assert path.read_bytes() == raw


@FUZZ
@given(data=st.data())
def test_corrupted_pgm_raises_value_error_or_loads_valid(data, valid_files, tmp_path):
    path = tmp_path / "image.pgm"
    path.write_bytes(data.draw(corrupted(valid_files["pgm"])))
    try:
        img = BinaryImage.from_pgm(path)
    except ValueError as e:
        assert type(e) is ValueError, repr(e)
        return
    assert img.pixels.shape == (RESOLUTION, RESOLUTION)
    assert set(np.unique(img.pixels)) <= {0, 1}


def from_pgm_token_reference(path) -> BinaryImage:
    """The P1 parser with every token a Python str, as it was before the
    byte scan: the reference for the pixels and the error messages."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        raise ValueError(f"byte {e.start}: not UTF-8 text") from None
    tokens = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
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
    return BinaryImage(lit.astype(np.uint8).reshape(h, w))


# separators and tokens that a byte scan could split differently from str.split
SEPARATORS = [" ", "\n", "\r\n", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\u00a0", "\u2028", "\u3000", "\x00"]
ODD_TOKENS = ["01", "2", "00", "\u0663", "1\u00a0", "#", "# 0 1", "P1", "\u00e9", "-1", ""]


@st.composite
def edited_pgm(draw, text: str) -> bytes:
    """A valid P1 text with up to four tokens or separators replaced."""
    parts = re.split(r"(\s+)", text)  # tokens at even, separators at odd indices
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(parts) - 1))
        parts[i] = draw(st.sampled_from(ODD_TOKENS if i % 2 == 0 else SEPARATORS))
    return "".join(parts).encode()


def _outcome(read, path):
    try:
        return read(path).pixels.tobytes()
    except ValueError as e:
        return str(e)


@FUZZ
@given(data=st.data())
def test_pgm_parser_agrees_with_token_reference(data, valid_files, tmp_path):
    raw = data.draw(st.one_of(corrupted(valid_files["pgm"]), edited_pgm(valid_files["pgm"].decode())))
    path = tmp_path / "image.pgm"
    path.write_bytes(raw)
    assert _outcome(BinaryImage.from_pgm, path) == _outcome(from_pgm_token_reference, path)


@pytest.mark.parametrize("odd", SEPARATORS + ODD_TOKENS)
def test_pgm_parser_agrees_with_token_reference_on_each_odd_part(valid_files, tmp_path, odd):
    parts = re.split(r"(\s+)", valid_files["pgm"].decode())  # parts 0-5 are the header
    kind = int(odd in SEPARATORS)  # tokens at even, separators at odd indices
    every = [odd if i > 5 and i % 2 == kind else t for i, t in enumerate(parts)]
    one = parts[: 2000 + kind] + [odd] + parts[2001 + kind :]  # in the middle of the pixels
    for edited in (every, one):
        path = tmp_path / "image.pgm"
        path.write_bytes("".join(edited).encode())
        assert _outcome(BinaryImage.from_pgm, path) == _outcome(from_pgm_token_reference, path)


@pytest.mark.parametrize("cut", [10, 20, 25, 100, -1])
def test_truncated_model_names_the_byte(tmp_path, valid_files, cut):
    path = tmp_path / "model.bin"
    path.write_bytes(valid_files["model"][:cut])
    with pytest.raises(ValueError, match=r"^byte \d+: the file ends inside the "):
        load_model(path)


def test_model_with_trailing_bytes_is_rejected(tmp_path, valid_files):
    path = tmp_path / "model.bin"
    raw = valid_files["model"]
    path.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match=f"^byte {len(raw)}: trailing bytes"):
        load_model(path)


def test_committed_classifier_loads_and_round_trips(tmp_path):
    src = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "classifier.bin"
    net = load_model(src)
    save_model(net, tmp_path / "model.bin")
    assert (tmp_path / "model.bin").read_bytes() == src.read_bytes()


@pytest.mark.parametrize(
    "field, value, message",
    [
        (12, 9, r"^byte 12: the header declares 9 classes, the last layer \(dense\) has 4 outputs"),
        (16, 65, r"^byte \d+: layer 23 \(dense\) takes 256 features, not 576"),
    ],
)
def test_header_that_contradicts_the_layers_is_rejected(tmp_path, field, value, message):
    src = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "classifier.bin"
    raw = bytearray(src.read_bytes())
    raw[field : field + 4] = value.to_bytes(4, "little")  # n_classes, resolution
    path = tmp_path / "model.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_small_model_round_trips(tmp_path, valid_files):
    path = tmp_path / "model.bin"
    path.write_bytes(valid_files["model"])
    save_model(load_model(path), path)
    assert path.read_bytes() == valid_files["model"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("P1\n", "missing width"),
        ("P1 64\n", "missing height"),
        ("P1 64 x\n", "height 'x' is not a whole number"),
        ("P1 2 2\n0 1 1\n", "3 pixels for a 2x2 image"),
        ("P1 2 2\n0 1 1 0 1\n", "5 pixels for a 2x2 image"),
        ("P1 2 2\n0 1 2 0\n", "pixel 2 is '2', not 0 or 1"),
    ],
)
def test_malformed_pgm_names_the_field(tmp_path, text, message):
    path = tmp_path / "image.pgm"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        BinaryImage.from_pgm(path)


def test_non_utf8_pgm_names_the_byte(tmp_path):
    path = tmp_path / "image.pgm"
    path.write_bytes(b"P1\n64 64\n\xff")
    with pytest.raises(ValueError, match="^byte 9: not UTF-8 text"):
        BinaryImage.from_pgm(path)
