"""CNN building blocks on float64 numpy arrays, written from scratch.

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
            out[:] = bias
            for a in range(K):
                for b in range(K):
                    out += xp[:, a : a + m, b : b + n, :] @ kernel[a, b]
            self._xp = xp if train else None
            self._cols = None
            return out
        cols = self._im2col(x)
        self._cols = cols if train else None
        self._xp = None
        w = kernel.reshape(K * K * self.in_channels, self.feature_maps)
        return cols @ w + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        N, m, n, h = grad.shape
        k, K = self.k, 2 * self.k + 1
        c = self.in_channels
        dt = grad.dtype
        kernel = self.kernel.astype(dt, copy=False)
        if self._xp is not None:
            xp = self._xp
            g_kernel = np.empty_like(self.kernel)
            dxp = np.zeros_like(xp)
            g2d = grad.reshape(-1, h)
            for a in range(K):
                for b in range(K):
                    xs = xp[:, a : a + m, b : b + n, :].reshape(-1, c)
                    g_kernel[a, b] = xs.T @ g2d
                    dxp[:, a : a + m, b : b + n, :] += grad @ kernel[a, b].T
            self.g_kernel = g_kernel.astype(np.float64, copy=False)
            self.g_bias = g2d.sum(axis=0, dtype=np.float64)
            return dxp[:, k : k + m, k : k + n, :]
        cols2d = self._cols.reshape(-1, K * K * c)
        g2d = grad.reshape(-1, h)
        self.g_kernel = (cols2d.T @ g2d).reshape(K, K, c, h).astype(np.float64, copy=False)
        self.g_bias = g2d.sum(axis=0, dtype=np.float64)
        w = kernel.reshape(K * K * c, h)
        dcols = (g2d @ w.T).reshape(N, m, n, K, K, c)
        dxp = np.zeros((N, m + 2 * k, n + 2 * k, c), dtype=dt)
        for a in range(K):
            for b in range(K):
                dxp[:, a : a + m, b : b + n, :] += dcols[:, :, :, a, b, :]
        return dxp[:, k : k + m, k : k + n, :]


class MaxPoolLayer:
    """k x k max pooling with stride k, zero padding, ceil output dims."""

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
        xp = np.pad(x, ((0, 0), (0, mo * s - m), (0, no * s - n), (0, 0)))
        win = xp.reshape(N, mo, s, no, s, c).transpose(0, 1, 3, 5, 2, 4)
        win = win.reshape(N, mo, no, c, s * s)
        idx = win.argmax(axis=-1)
        out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        if train:
            self._idx = idx
            self._in_shape = (m, n)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        s = self.size
        N, mo, no, c = grad.shape
        m, n = self._in_shape
        dwin = np.zeros((N, mo, no, c, s * s), dtype=grad.dtype)
        np.put_along_axis(dwin, self._idx[..., None], grad[..., None], axis=-1)
        dxp = dwin.reshape(N, mo, no, c, s, s).transpose(0, 1, 4, 2, 5, 3)
        dxp = dxp.reshape(N, mo * s, no * s, c)
        return dxp[:, :m, :n, :]


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
            xhat = x * inv_std.astype(dt) + (-mu * inv_std).astype(dt)
            self._xhat = xhat
            self._inv_std = inv_std.astype(dt)
            return self.gamma.astype(dt) * xhat + self.beta.astype(dt)
        # fused y = x * scale + shift with per-channel constants
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = (self.gamma * inv_std).astype(dt)
        shift = (self.beta - self.gamma * self.running_mean * inv_std).astype(dt)
        return x * scale + shift

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
        dx = (
            grad * gamma
            - (gamma * sum_g.astype(dt) / m)
            - xhat * (gamma * sum_gxh.astype(dt) / m)
        ) * self._inv_std
        return dx


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

