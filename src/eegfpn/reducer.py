"""Conv/pool compressor: reconstructed epochs, viewed on their original
(channels x time) grid, pass through conv(3x3) -> ReLU -> maxpool(2x2,
stride 2) -> conv(3x3) -> ReLU, halving both grid dimensions (floor)."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .ops import (
    conv2d,
    conv2d_backward,
    maxpool2d_backward,
    maxpool2d_with_argmax,
    relu,
    relu_grad,
)


@dataclass
class NsdruParams:
    """Two 3x3 same-padding convolutions around the single pool."""

    conv1_w: np.ndarray  # (hidden, 1, 3, 3)
    conv1_b: np.ndarray  # (hidden,)
    conv2_w: np.ndarray  # (1, hidden, 3, 3)
    conv2_b: np.ndarray  # (1,)


@dataclass
class NsdruTrace:
    x: np.ndarray
    act1: np.ndarray
    pooled: np.ndarray
    pool_argmax: np.ndarray
    act2: np.ndarray


def init_nsdru(hidden_channels: int, seed: int) -> NsdruParams:
    """Glorot-uniform kernels, zero biases, deterministic per seed."""
    if hidden_channels < 1:
        raise ShapeError(f"hidden_channels must be >= 1, got {hidden_channels}")
    rng = np.random.default_rng(seed)

    def glorot(shape):
        fan_in = shape[1] * shape[2] * shape[3]
        fan_out = shape[0] * shape[2] * shape[3]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    return NsdruParams(
        conv1_w=glorot((hidden_channels, 1, 3, 3)),
        conv1_b=np.zeros(hidden_channels),
        conv2_w=glorot((1, hidden_channels, 3, 3)),
        conv2_b=np.zeros(1),
    )


def reshape_to_map(rows: np.ndarray, ch: int, t: int) -> np.ndarray:
    """Invert the channel-major flattening into (n, 1, ch, t) maps."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != ch * t:
        raise ShapeError(
            f"row width {rows.shape[1]} does not factor as ch*t = {ch}*{t}"
        )
    return rows.reshape(rows.shape[0], 1, ch, t)


def nsdru_forward(x: np.ndarray, p: NsdruParams) -> NsdruTrace:
    """Compress (n, 1, ch, t) maps to (n, 1, ch//2, t//2)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"expected (n, 1, ch, t) input, got shape {x.shape}")
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ShapeError(f"grid {x.shape[2:]} too small to pool (need >= 2x2)")
    act1 = relu(conv2d(x, p.conv1_w, p.conv1_b, padding="same"))
    pooled, argmax = maxpool2d_with_argmax(act1)
    act2 = relu(conv2d(pooled, p.conv2_w, p.conv2_b, padding="same"))
    return NsdruTrace(x=x, act1=act1, pooled=pooled, pool_argmax=argmax, act2=act2)


def nsdru_backward(trace: NsdruTrace, upstream: np.ndarray, p: NsdruParams):
    """Exact reverse pass; each pool window's gradient lands on its argmax.
    Returns (NsdruParams of gradients, d_x)."""
    d_act2 = relu_grad(trace.act2, upstream)
    d_pooled, d_conv2_w, d_conv2_b = conv2d_backward(
        d_act2, trace.pooled, p.conv2_w, padding="same"
    )
    d_act1 = maxpool2d_backward(d_pooled, trace.pool_argmax, trace.act1.shape)
    d_act1 = relu_grad(trace.act1, d_act1)
    d_x, d_conv1_w, d_conv1_b = conv2d_backward(
        d_act1, trace.x, p.conv1_w, padding="same"
    )
    grads = NsdruParams(
        conv1_w=d_conv1_w, conv1_b=d_conv1_b, conv2_w=d_conv2_w, conv2_b=d_conv2_b,
    )
    return grads, d_x


def count_nsdru_params(hidden_channels: int) -> int:
    return (hidden_channels * 9 + hidden_channels) + (hidden_channels * 9 + 1)
