import numpy as np
import pytest

from polyrefine import cnn
from polyrefine.cnn import FEATURE_MAPS, Network, load_model, save_model
from polyrefine.cnn.layers import BatchNormLayer, ConvLayer, DenseLayer, MaxPoolLayer, ReLULayer


def test_architecture_layout():
    net = Network(4, seed=0)
    kinds = [type(l) for l in net.layers]
    want = []
    for i, _ in enumerate(FEATURE_MAPS):
        want += [ConvLayer, BatchNormLayer, ReLULayer]
        if i < 5:
            want.append(MaxPoolLayer)
    want.append(DenseLayer)
    assert kinds == want
    convs = [l for l in net.layers if isinstance(l, ConvLayer)]
    assert tuple(c.feature_maps for c in convs) == (2, 4, 8, 16, 32, 64)
    assert all(c.k == 1 for c in convs)
    assert net.layers[-1].in_features == 2 * 2 * 64


def test_forward_is_probability_vector(rng):
    net = Network(4, seed=1)
    x = (rng.random((5, 64, 64)) > 0.5).astype(float)
    probs = net.forward(x)
    assert probs.shape == (5, 4)
    assert (probs > 0).all() and (probs < 1).all()
    assert probs.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-9)


def test_compute_gradients_rejects_empty():
    net = Network(4, seed=1)
    with pytest.raises(ValueError, match="empty"):
        cnn.compute_gradients(net, [])


def test_whole_network_gradient_check(rng):
    """Analytic parameter gradients through the full stack vs central
    finite differences on a tiny batch."""
    net = Network(3, seed=3)
    batch_x = (rng.random((4, 64, 64)) > 0.5).astype(float)
    y = np.eye(3)[rng.integers(0, 3, size=4)]

    def loss():
        logits = net.forward_logits(batch_x[..., None], train=True)
        return cnn.softmax_cross_entropy(logits, y)[0]

    loss_val = loss()
    logits = net.forward_logits(batch_x[..., None], train=True)
    _, dlogits = cnn.softmax_cross_entropy(logits, y)
    net.backward_from_logits(dlogits)
    params = net.parameters()
    grads = [g.copy() for g in net.gradients()]
    h = 1e-5
    checked = 0
    for p, g in zip(params, grads):
        idx = tuple(int(rng.integers(0, s)) for s in p.shape)
        orig = p[idx]
        p[idx] = orig + h
        lp = loss()
        p[idx] = orig - h
        lm = loss()
        p[idx] = orig
        fd = (lp - lm) / (2 * h)
        if max(abs(fd), abs(g[idx])) < 1e-9:
            continue  # parameter without influence on this tiny batch
        assert abs(fd - g[idx]) / max(1e-6, abs(fd), abs(g[idx])) < 1e-4
        checked += 1
    assert checked >= 10
    assert np.isfinite(loss_val)


def test_backward_leaves_out_only_the_image_gradient(rng):
    """The network's first layer computes no input gradient; every parameter
    gradient keeps the bytes of a backward pass through all layers."""
    net = Network(3, seed=2)
    x = (rng.random((4, 64, 64, 1)) > 0.5).astype(np.float32)
    y = np.eye(3)[rng.integers(0, 3, size=4)]
    _, dlogits = cnn.softmax_cross_entropy(net.forward_logits(x, train=True), y)
    g = dlogits
    for layer in reversed(net.layers):
        g = layer.backward(g)
    every_layer = [a.copy() for a in net.gradients()]
    net.backward_from_logits(dlogits)
    assert [a.tobytes() for a in net.gradients()] == [a.tobytes() for a in every_layer]


def test_save_load_round_trip(tmp_path, rng):
    net = Network(4, seed=5)
    # make the running statistics non-trivial
    x = (rng.random((8, 64, 64, 1)) > 0.5).astype(float)
    net.forward_logits(x, train=True)
    path = tmp_path / "model.bin"
    save_model(net, path)
    back = load_model(path)
    assert back.n_classes == net.n_classes
    assert back.resolution == net.resolution
    for a, b in zip(net.parameters(), back.parameters()):
        assert (a == b).all()  # bit-exact
    for la, lb in zip(net.layers, back.layers):
        if isinstance(la, BatchNormLayer):
            assert (la.running_mean == lb.running_mean).all()
            assert (la.running_var == lb.running_var).all()
            assert la.momentum == lb.momentum and la.eps == lb.eps
    probs_a = net.forward(x[..., 0])
    probs_b = back.forward(x[..., 0])
    assert probs_a == pytest.approx(probs_b, abs=1e-15)
    # a second save is byte-identical
    path2 = tmp_path / "model2.bin"
    save_model(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAMODEL123")
    with pytest.raises(ValueError):
        load_model(path)


def test_classify_invariant_under_translation_and_scaling(rng):
    # follows from rasterize bit-invariance; an untrained net suffices
    from polyrefine.geometry import Polygon
    from conftest import random_star_polygon

    net = Network(4, seed=8)
    for _ in range(5):
        p = random_star_polygon(rng)
        lab = net.classify_polygon(p)
        assert net.classify_polygon(Polygon(p.coords + 40.0)) == lab
        assert net.classify_polygon(Polygon(p.coords * 7.0)) == lab


def test_classify_tie_breaks_to_smaller_label():
    net = Network(4, seed=0)
    # zero the dense layer: all logits equal, argmax picks class 0 -> label 3
    net.layers[-1].weights[:] = 0.0
    net.layers[-1].bias[:] = 0.0
    from polyrefine.geometry import Polygon

    assert net.classify_polygon(Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])) == 3


# ---------------------------------------------------------------------------
# batched classification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    from conftest import CLASSIFIER

    return load_model(CLASSIFIER)


def _grid_polygons(grid: str, passes: int):
    from polyrefine.mesh import GRID_GENERATORS, refine_mesh

    m = GRID_GENERATORS[grid]()
    for _ in range(passes):
        m = refine_mesh(m, range(m.n_elements), "mp")
    return m.polygons()


def _one_image_logits(net, p):
    from polyrefine.raster import rasterize

    return net.forward_logits(rasterize(p).pixels[None, :, :, None].astype(np.float64))[0]


@pytest.mark.parametrize("passes", [0, 1, 2])
@pytest.mark.parametrize("grid", ["nonconvex", "smoothed", "triangles", "voronoi"])
def test_classify_polygons_logits_do_not_depend_on_the_batch(trained, monkeypatch, grid, passes):
    """Each forward of `classify_polygons` gives every polygon the bytes of a
    one-image forward, for a batch of 1, of 2 and of every element (more
    than one chunk after an MP pass)."""
    from polyrefine.cnn.network import CLASSIFY_CHUNK

    polys = _grid_polygons(grid, passes)
    single = np.array([_one_image_logits(trained, p) for p in polys])
    forward, seen = Network.forward_logits, []

    def recording(self, x, train=False):
        seen.append(forward(self, x, train))
        return seen[-1]

    monkeypatch.setattr(Network, "forward_logits", recording)
    assert passes == 0 or len(polys) > CLASSIFY_CHUNK
    for batch in (polys[:1], polys[:2], polys):
        seen.clear()
        labels = trained.classify_polygons(batch)
        chunks = range(0, len(batch), CLASSIFY_CHUNK)
        assert [len(s) for s in seen] == [len(batch[i : i + CLASSIFY_CHUNK]) for i in chunks]
        assert np.array_equal(np.concatenate(seen), single[: len(batch)])
        assert labels.tolist() == (np.argmax(single[: len(batch)], axis=1) + 3).tolist()
    assert labels.tolist() == [trained.classify_polygon(p) for p in polys]


def test_classify_polygons_of_no_polygons(trained):
    assert trained.classify_polygons([]).tolist() == []


def test_classify_polygons_bounds_memory(trained, rng):
    """600 polygons are classified a chunk at a time: the float64 activations
    of one chunk, not of all 600 (about 140 MB), are alive at once."""
    import tracemalloc

    from conftest import random_star_polygon

    polys = [random_star_polygon(rng) for _ in range(600)]
    tracemalloc.start()
    try:
        labels = trained.classify_polygons(polys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(labels) == 600 and set(labels.tolist()) <= {3, 4, 5, 6}
    assert peak < 24e6
