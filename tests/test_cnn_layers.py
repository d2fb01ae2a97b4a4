import math

import numpy as np
import pytest

from polyrefine.cnn import (
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ReLULayer,
    cross_entropy,
    softmax,
    softmax_cross_entropy,
)


def conv_oracle(x, layer):
    """Direct-summation reference for the convolution with zero padding."""
    K, k = layer.kernel, layer.k
    m, n, c = x.shape
    h = layer.feature_maps
    out = np.zeros((m, n, h))
    for i in range(m):
        for j in range(n):
            for o in range(h):
                s = 0.0
                for p in range(-k, k + 1):
                    for q in range(-k, k + 1):
                        if 0 <= i + p < m and 0 <= j + q < n:
                            for cc in range(c):
                                s += K[k + p, k + q, cc, o] * x[i + p, j + q, cc]
                out[i, j, o] = s + layer.bias[o]
    return out


def pool_oracle(x, size=2):
    """Direct max over zero-padded windows."""
    m, n, c = x.shape
    mo, no = -(-m // size), -(-n // size)
    out = np.zeros((mo, no, c))
    for i in range(mo):
        for j in range(no):
            for t in range(c):
                vals = [
                    x[size * i + p, size * j + q, t]
                    if size * i + p < m and size * j + q < n
                    else 0.0
                    for p in range(size)
                    for q in range(size)
                ]
                out[i, j, t] = max(vals)
    return out


def pool2d(x):
    """Max-pool one 2D array as a single channel."""
    return MaxPoolLayer(2).forward(x[None, :, :, None])[0, :, :, 0]


# ---------------------------------------------------------------------------
# forward oracles and worked examples
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    layer = ConvLayer(1, 1, k=1)
    layer.kernel[1, 1, 0, 0] = 1.0
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    assert layer.forward(x[None])[0][:, :, 0] == pytest.approx(x[:, :, 0])


def test_conv_all_ones_kernel():
    layer = ConvLayer(1, 1, k=1)
    layer.kernel[:, :, 0, 0] = 1.0
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    out = layer.forward(x[None])[0][:, :, 0]
    assert out == pytest.approx(np.full((2, 2), 10.0))


def test_conv_zero_kernel_gives_bias():
    layer = ConvLayer(2, 3, k=1)
    layer.bias[:] = (0.5, -1.0, 2.0)
    x = np.random.default_rng(0).normal(size=(4, 4, 2))
    out = layer.forward(x[None])[0]
    for o, b in enumerate(layer.bias):
        assert out[:, :, o] == pytest.approx(np.full((4, 4), b))


def test_conv_channel_mismatch():
    layer = ConvLayer(2, 3, k=1)
    with pytest.raises(ValueError, match="channels"):
        layer.forward(np.zeros((1, 4, 4, 3)))


def test_conv_matches_oracle(rng):
    # both the shift path (small channel product) and the im2col path
    for c, h in ((2, 3), (4, 32)):
        layer = ConvLayer(c, h, k=1, rng=rng)
        x = rng.normal(size=(8, 8, c))
        assert np.abs(layer.forward(x[None])[0] - conv_oracle(x, layer)).max() < 1e-12


def test_pool_examples():
    out = pool2d(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 4.0
    fives = np.full((3, 3), 5.0)
    assert (pool2d(fives) == np.full((2, 2), 5.0)).all()
    assert (pool2d(np.zeros((4, 4))) == np.zeros((2, 2))).all()


def test_pool_matches_oracle(rng):
    for shape in ((6, 6, 3), (5, 7, 2)):
        x = rng.normal(size=shape)
        got = MaxPoolLayer(2).forward(x[None])[0]
        assert np.abs(got - pool_oracle(x)).max() < 1e-12


def test_relu():
    def relu(x):
        return ReLULayer().forward(x[None])[0]

    assert relu(np.array([-1.0, 0.0, 2.0])) == pytest.approx([0.0, 0.0, 2.0])
    x = -np.abs(np.random.default_rng(1).normal(size=(3, 3)))
    assert relu(x) == pytest.approx(np.zeros((3, 3)))
    y = np.random.default_rng(2).normal(size=(3, 3))
    assert relu(relu(y)) == pytest.approx(relu(y))


def test_batchnorm_modes(rng):
    layer = BatchNormLayer(2)
    x = rng.normal(size=(8, 4, 4, 2))
    x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
    out = layer.forward(x, train=True)
    assert np.abs(out - x).max() < 1e-4  # gamma=1, beta=0, unit stats
    layer.gamma[:] = 0.0
    layer.beta[:] = (1.5, -2.0)
    out = layer.forward(x, train=True)
    assert out[..., 0] == pytest.approx(np.full((8, 4, 4), 1.5))
    assert out[..., 1] == pytest.approx(np.full((8, 4, 4), -2.0))


def test_batchnorm_infer_formula():
    layer = BatchNormLayer(1)
    layer.gamma[:] = 2.0
    layer.beta[:] = 1.0
    layer.running_mean[:] = 0.0
    layer.running_var[:] = 1.0
    out = layer.forward(np.full((1, 1, 1, 1), 3.0), train=False)
    assert out.ravel()[0] == pytest.approx(7.0, abs=1e-4)


def test_batchnorm_updates_running_stats(rng):
    layer = BatchNormLayer(3, momentum=0.1)
    x = rng.normal(loc=2.0, scale=3.0, size=(16, 4, 4, 3))
    layer.forward(x, train=True)
    mu, var = layer.batch_stats(x)
    assert layer.running_mean == pytest.approx(0.1 * mu)
    assert layer.running_var == pytest.approx(0.9 * 1.0 + 0.1 * var)


def test_softmax():
    assert softmax(np.array([0.0, 0.0])) == pytest.approx([0.5, 0.5])
    assert softmax(np.array([math.log(2), 0.0])) == pytest.approx([2 / 3, 1 / 3])
    z = np.array([0.3, -1.2, 4.0])
    assert softmax(z + 17.5) == pytest.approx(softmax(z))


def test_cross_entropy():
    one_hot = np.array([0.0, 1.0, 0.0])
    assert cross_entropy(one_hot, one_hot) == pytest.approx(0.0)
    assert cross_entropy(np.full(4, 0.25), np.eye(4)[0]) == pytest.approx(math.log(4))
    assert cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(
        math.log(2)
    )


# ---------------------------------------------------------------------------
# gradient checks: analytic vs central finite differences (1e-4 relative)
# ---------------------------------------------------------------------------

def _fd_input_check(layer, x, rng, h=1e-5, samples=10):
    proj = rng.normal(size=layer.forward(x, train=True).shape)

    def loss(xv):
        return float((layer.forward(xv, train=True) * proj).sum())

    loss(x)
    grad = layer.backward(proj)
    for _ in range(samples):
        idx = tuple(int(rng.integers(0, s)) for s in x.shape)
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fd = (loss(xp) - loss(xm)) / (2 * h)
        denom = max(1e-6, abs(fd), abs(grad[idx]))
        assert abs(fd - grad[idx]) / denom < 1e-4


def _fd_param_check(layer, x, rng, h=1e-5, samples=6):
    proj = rng.normal(size=layer.forward(x, train=True).shape)

    def loss():
        return float((layer.forward(x, train=True) * proj).sum())

    loss()
    layer.backward(proj)
    grads = [g.copy() for g in layer.grads()]
    for p, g in zip(layer.params(), grads):
        for _ in range(samples):
            idx = tuple(int(rng.integers(0, s)) for s in p.shape)
            orig = p[idx]
            p[idx] = orig + h
            lp = loss()
            p[idx] = orig - h
            lm = loss()
            p[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(1e-6, abs(fd), abs(g[idx]))
            assert abs(fd - g[idx]) / denom < 1e-4


def test_conv_gradients(rng):
    for c, h in ((2, 3), (3, 24)):
        layer = ConvLayer(c, h, k=1, rng=rng)
        x = rng.normal(size=(2, 6, 6, c))
        _fd_input_check(layer, x, rng)
        _fd_param_check(layer, x, rng)


def test_pool_gradients(rng):
    layer = MaxPoolLayer(2)
    # distinct values keep the argmax stable under the FD perturbation
    x = rng.permutation(np.arange(2 * 6 * 6 * 2, dtype=float)).reshape(2, 6, 6, 2)
    _fd_input_check(layer, x, rng)


def test_relu_gradients(rng):
    layer = ReLULayer()
    x = rng.normal(size=(2, 5, 5, 3))
    x[np.abs(x) < 1e-3] += 0.1  # keep clear of the kink
    _fd_input_check(layer, x, rng)


def test_batchnorm_gradients(rng):
    layer = BatchNormLayer(3)
    x = rng.normal(size=(4, 5, 5, 3))
    _fd_input_check(layer, x, rng)
    _fd_param_check(layer, x, rng)


def test_dense_gradients(rng):
    layer = DenseLayer(5 * 5 * 3, 4, rng=rng)
    x = rng.normal(size=(3, 5, 5, 3))
    _fd_input_check(layer, x, rng)
    _fd_param_check(layer, x, rng)


def test_softmax_cross_entropy_gradient(rng):
    logits = rng.normal(size=(6, 4))
    y = np.eye(4)[rng.integers(0, 4, size=6)]
    loss, dlogits = softmax_cross_entropy(logits, y)
    assert loss == pytest.approx(
        cross_entropy(softmax(logits), y), rel=1e-12
    )
    h = 1e-6
    for _ in range(10):
        i, j = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        zp = logits.copy()
        zp[i, j] += h
        zm = logits.copy()
        zm[i, j] -= h
        fd = (softmax_cross_entropy(zp, y)[0] - softmax_cross_entropy(zm, y)[0]) / (2 * h)
        assert abs(fd - dlogits[i, j]) / max(1e-8, abs(fd)) < 1e-4
