"""Conv/pool compressor: reconstructed epochs, viewed on their original
(channels x time) grid, pass through conv(3x3) -> ReLU -> maxpool(2x2,
stride 2) -> conv(3x3) -> ReLU, halving both grid dimensions (floor)."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .ops import (
    conv2d,
    conv2d_backward,
    maxpool2d,
    maxpool2d_backward,
    relu_grad,
)


@dataclass
class NsdruParams:
    """Two 3x3 same-padding convolutions around the single pool."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray


def nsdru_shapes(c: int) -> NsdruParams:
    """One input map to c hidden channels, and back to one map."""
    return NsdruParams(conv1_w=(c, 1, 3, 3), conv1_b=(c,), conv2_w=(1, c, 3, 3), conv2_b=(1,))


@dataclass
class NsdruTrace:
    x: np.ndarray
    act1: np.ndarray
    pooled: np.ndarray
    act2: np.ndarray


def nsdru_forward(x: np.ndarray, p: NsdruParams) -> NsdruTrace:
    """Compress (n, 1, ch, t) maps to (n, 1, ch//2, t//2). Both ReLUs run
    in place on their convolution's output, so no second act1-sized
    array is allocated."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"expected (n, 1, ch, t) input, got shape {x.shape}")
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ShapeError(f"grid {x.shape[2:]} too small to pool (need >= 2x2)")
    act1 = conv2d(x, p.conv1_w, p.conv1_b)
    np.maximum(act1, 0.0, out=act1)
    pooled = maxpool2d(act1)
    act2 = conv2d(pooled, p.conv2_w, p.conv2_b)
    np.maximum(act2, 0.0, out=act2)
    return NsdruTrace(x=x, act1=act1, pooled=pooled, act2=act2)


def nsdru_backward(trace: NsdruTrace, upstream: np.ndarray, p: NsdruParams):
    """Exact reverse pass; each pool window's gradient lands on its first max.
    Returns (NsdruParams of gradients, d_x)."""
    d_act2 = relu_grad(trace.act2, upstream)
    d_pooled, d_conv2_w, d_conv2_b = conv2d_backward(d_act2, trace.pooled, p.conv2_w)
    d_act1 = maxpool2d_backward(d_pooled, trace.act1, trace.pooled)
    d_act1 = relu_grad(trace.act1, d_act1)
    d_x, d_conv1_w, d_conv1_b = conv2d_backward(d_act1, trace.x, p.conv1_w)
    grads = NsdruParams(
        conv1_w=d_conv1_w, conv1_b=d_conv1_b, conv2_w=d_conv2_w, conv2_b=d_conv2_b,
    )
    return grads, d_x
