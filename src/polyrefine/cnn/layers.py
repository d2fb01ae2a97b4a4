"""CNN building blocks on numpy arrays, written from scratch. Parameters
are float64; the arithmetic runs in the input's dtype (float32 in training and
evaluation, float64 in `Network.forward`).

Layers operate on batches shaped (N, rows, cols, channels). ``forward``
stashes whatever ``backward`` needs; ``backward`` consumes the upstream
gradient, accumulates parameter gradients, and returns the input gradient.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _glorot_uniform(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ConvLayer:
    """(2k+1)x(2k+1) correlation with zero padding and stride 1.

    Kernel is stored as (K, K, in_channels, feature_maps); output feature
    map i sums the per-channel correlations plus a bias. Parameters live in
    float64; the arithmetic runs in the input's dtype, so float32 batches
    train fast while float64 inputs keep full precision.
    """

    # below this channel product a loop over the 9 kernel offsets beats
    # materializing the im2col matrix
    _SHIFT_LIMIT = 64

    def __init__(self, in_channels: int, feature_maps: int, k: int = 1, rng=None):
        K = 2 * k + 1
        self.k = k
        self.in_channels = in_channels
        self.feature_maps = feature_maps
        if rng is None:
            self.kernel = np.zeros((K, K, in_channels, feature_maps))
        else:
            fan = K * K
            self.kernel = _glorot_uniform(
                rng, (K, K, in_channels, feature_maps), fan * in_channels, fan * feature_maps
            )
        self.bias = np.zeros(feature_maps)
        self.g_kernel = np.zeros_like(self.kernel)
        self.g_bias = np.zeros_like(self.bias)
        self._cols = None
        self._xp = None

    def params(self):
        return [self.kernel, self.bias]

    def grads(self):
        return [self.g_kernel, self.g_bias]

    def _use_shifts(self) -> bool:
        return self.in_channels * self.feature_maps <= self._SHIFT_LIMIT

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        k, K = self.k, 2 * self.k + 1
        xp = np.pad(x, ((0, 0), (k, k), (k, k), (0, 0)))
        win = sliding_window_view(xp, (K, K), axis=(1, 2))  # (N, m, n, c, K, K)
        N, m, n = win.shape[:3]
        return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
            N, m, n, K * K * self.in_channels
        )

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[-1]}"
            )
        dt = x.dtype
        kernel = self.kernel.astype(dt, copy=False)
        bias = self.bias.astype(dt, copy=False)
        k, K = self.k, 2 * self.k + 1
        N, m, n, _ = x.shape
        if self._use_shifts():
            xp = np.pad(x, ((0, 0), (k, k), (k, k), (0, 0)))
            out = np.empty((N, m, n, self.feature_maps), dtype=dt)
            if self.in_channels == 1:
                # one map at a time on contiguous (N, m, n) planes, in the same order:
                # a product with inner dimension 1 rounds once, as the matmul does
                acc = np.empty((N, m, n), dtype=dt)
                for o in range(self.feature_maps):
                    acc[:] = bias[o]
                    for a, b in np.ndindex(K, K):
                        acc += xp[:, a : a + m, b : b + n, 0] * kernel[a, b, 0, o]
                    out[..., o] = acc
            else:
                out[:] = bias
                for a, b in np.ndindex(K, K):
                    out += xp[:, a : a + m, b : b + n, :] @ kernel[a, b]
            self._xp = xp if train else None
            self._cols = None
            return out
        cols = self._im2col(x)
        self._cols = cols if train else None
        self._xp = None
        w = kernel.reshape(K * K * self.in_channels, self.feature_maps)
        return cols @ w + bias

    def param_gradients(self, grad: np.ndarray) -> None:
        """Set g_kernel and g_bias from the upstream gradient of the last
        training forward; `backward` adds the input gradient."""
        N, m, n, h = grad.shape
        K, c = 2 * self.k + 1, self.in_channels
        g2d = grad.reshape(-1, h)
        if self._xp is not None:
            g_kernel = np.empty_like(self.kernel)
            for a, b in np.ndindex(K, K):
                g_kernel[a, b] = self._xp[:, a : a + m, b : b + n, :].reshape(-1, c).T @ g2d
        else:
            g_kernel = (self._cols.reshape(-1, K * K * c).T @ g2d).reshape(K, K, c, h)
        self.g_kernel = g_kernel.astype(np.float64, copy=False)
        self.g_bias = g2d.sum(axis=0, dtype=np.float64)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.param_gradients(grad)
        N, m, n, h = grad.shape
        k, K, c = self.k, 2 * self.k + 1, self.in_channels
        kernel = self.kernel.astype(grad.dtype, copy=False)
        dxp = np.zeros((N, m + 2 * k, n + 2 * k, c), dtype=grad.dtype)
        if self._xp is not None:
            for a, b in np.ndindex(K, K):
                dxp[:, a : a + m, b : b + n, :] += grad @ kernel[a, b].T
        else:
            dcols = (grad.reshape(-1, h) @ kernel.reshape(K * K * c, h).T).reshape(N, m, n, K, K, c)
            for a, b in np.ndindex(K, K):
                dxp[:, a : a + m, b : b + n, :] += dcols[:, :, :, a, b, :]
        return dxp[:, k : k + m, k : k + n, :]


class MaxPoolLayer:
    """k x k max pooling with stride k, zero padding, ceil output dims. A tie
    of 0.0 and -0.0 may pool to either (activations after ReLU hold no -0.0)."""

    def __init__(self, size: int = 2):
        self.size = size
        self._idx = None
        self._in_shape = None

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        s = self.size
        N, m, n, c = x.shape
        mo, no = -(-m // s), -(-n // s)
        if (m, n) != (mo * s, no * s):
            x = np.pad(x, ((0, 0), (0, mo * s - m), (0, no * s - n), (0, 0)))
        views = [x[:, p::s, q::s] for p in range(s) for q in range(s)]  # row-major window order
        out = views[0].copy()
        for v in views[1:]:
            np.maximum(out, v, out=out)
        if train:
            # the gradient goes to the first maximum in row-major window order
            idx = np.zeros(out.shape, dtype=np.min_scalar_type(s * s))
            for q in range(s * s - 2, -1, -1):  # idx <- q if views[q] holds the maximum, else idx + 1
                idx += 1
                idx *= views[q] != out
            self._idx, self._in_shape = idx, (m, n)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        s = self.size
        N, mo, no, c = grad.shape
        m, n = self._in_shape
        dx = np.empty((N, mo * s, no * s, c), dtype=grad.dtype)
        for q in range(s * s):
            dx[:, q // s :: s, q % s :: s] = np.where(self._idx == q, grad, 0)
        return dx[:, :m, :n]


class ReLULayer:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def grads(self):
        return []

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


def _wide(x: np.ndarray, *vectors: np.ndarray):
    """`x` as rows of >= 128 lanes (whole channel vectors, where the row count
    allows) and each per-channel vector tiled to one row: the same elementwise
    bytes as broadcasting, with numpy's inner loops over lanes, not channels."""
    c = x.shape[-1]
    r = math.gcd(x.size // c, -(-128 // c))
    return (x.reshape(-1, r * c), *(np.concatenate([v] * r) for v in vectors))


def _affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """x * scale + shift with per-channel vectors."""
    x2, scale, shift = _wide(x, scale, shift)
    return (x2 * scale + shift).reshape(x.shape)


class BatchNormLayer:
    """Per-channel batch normalization with learned scale/shift.

    Training normalizes by the biased batch statistics and keeps running
    estimates (also biased variance) for inference:
    running <- (1 - momentum) * running + momentum * batch.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.g_gamma = np.zeros(channels)
        self.g_beta = np.zeros(channels)
        self._xhat = None
        self._inv_std = None

    def params(self):
        return [self.gamma, self.beta]

    def grads(self):
        return [self.g_gamma, self.g_beta]

    @staticmethod
    def _channel_sum(x2: np.ndarray) -> np.ndarray:
        # per-channel reduction via BLAS; far faster than .sum(axis=0) for
        # the channels-last layout with few channels
        return np.ones(x2.shape[0], dtype=x2.dtype) @ x2

    def batch_stats(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x2 = x.reshape(-1, x.shape[-1])
        m = x2.shape[0]
        mu = np.asarray(self._channel_sum(x2), dtype=np.float64) / m
        sq = np.asarray(self._channel_sum(x2 * x2), dtype=np.float64) / m
        return mu, np.maximum(sq - mu * mu, 0.0)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        dt = x.dtype
        if train:
            mu, var = self.batch_stats(x)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = _affine(x, inv_std.astype(dt), (-mu * inv_std).astype(dt))
            self._xhat = xhat
            self._inv_std = inv_std.astype(dt)
            return _affine(xhat, self.gamma.astype(dt), self.beta.astype(dt))
        return self.normalize(x, self.running_mean, self.running_var)

    def normalize(self, x: np.ndarray, mean, var) -> np.ndarray:
        """Inference map for the given statistics: one fused x * scale + shift
        with per-channel constants, in x's dtype."""
        inv_std = 1.0 / np.sqrt(var + self.eps)
        scale = (self.gamma * inv_std).astype(x.dtype)
        shift = (self.beta - self.gamma * mean * inv_std).astype(x.dtype)
        return _affine(x, scale, shift)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dt = grad.dtype
        c = grad.shape[-1]
        xhat = self._xhat
        g2 = grad.reshape(-1, c)
        xh2 = xhat.reshape(-1, c)
        m = g2.shape[0]
        gxh = g2 * xh2
        sum_gxh = self._channel_sum(gxh)
        sum_g = self._channel_sum(g2)
        self.g_gamma = np.asarray(sum_gxh, dtype=np.float64)
        self.g_beta = np.asarray(sum_g, dtype=np.float64)
        gamma = self.gamma.astype(dt)
        grad2, gamma, mean_g, mean_gxh, inv_std = _wide(
            grad, gamma, gamma * sum_g.astype(dt) / m, gamma * sum_gxh.astype(dt) / m, self._inv_std
        )
        dx = grad2 * gamma - mean_g - xhat.reshape(grad2.shape) * mean_gxh
        return (dx * inv_std).reshape(grad.shape)


class DenseLayer:
    """Flattening linear map onto the class scores."""

    def __init__(self, in_features: int, out_features: int, rng=None):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            self.weights = np.zeros((in_features, out_features))
        else:
            self.weights = _glorot_uniform(
                rng, (in_features, out_features), in_features, out_features
            )
        self.bias = np.zeros(out_features)
        self.g_weights = np.zeros_like(self.weights)
        self.g_bias = np.zeros_like(self.bias)
        self._flat = None
        self._shape = None

    def params(self):
        return [self.weights, self.bias]

    def grads(self):
        return [self.g_weights, self.g_bias]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} features, got {flat.shape[1]}")
        if train:
            self._flat = flat
            self._shape = x.shape
        dt = x.dtype
        return flat @ self.weights.astype(dt, copy=False) + self.bias.astype(dt, copy=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.g_weights = (self._flat.T @ grad).astype(np.float64, copy=False)
        self.g_bias = grad.sum(axis=0, dtype=np.float64)
        return (grad @ self.weights.T.astype(grad.dtype, copy=False)).reshape(self._shape)


# ---------------------------------------------------------------------------
# functional pieces
# ---------------------------------------------------------------------------

def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Cross entropy -sum(y * log p); mean over the batch if 2D."""
    probs = np.asarray(probs, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    logp = np.where(y > 0, logp, 0.0)
    per = -(y * logp).sum(axis=-1)
    return float(per if per.ndim == 0 else per.mean())


def softmax_cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean batch loss and its gradient w.r.t. the logits."""
    dt = logits.dtype
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    n = logits.shape[0]
    loss = float(-(y * logp).sum() / n)
    dlogits = ((np.exp(logp) - y) / n).astype(dt, copy=False)
    return loss, dlogits

