"""Conv/pool compressor: reconstructed epochs, viewed on their original
(channels x time) grid, pass through conv(3x3) -> ReLU -> maxpool(2x2,
stride 2) -> conv(3x3) -> ReLU, halving both grid dimensions (floor).

The kernels here serve that one geometry. Convolution is cross-correlation
(no kernel flip), stride 1, zero-padded by one cell on every side so the
grid is kept; the pool's 2x2 windows tile the grid from its top-left cell,
and an odd trailing row or column belongs to no window."""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError
from .ops import relu_grad


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


def pooled_grid(ch: int, t: int):
    """The (rows, columns) the reducer leaves of a (ch, t) grid; its
    columns are the GRU's time steps and its rows their features."""
    return ch // 2, t // 2


@dataclass
class NsdruTrace:
    x: np.ndarray
    act1: np.ndarray
    pooled: np.ndarray
    act2: np.ndarray


def _pad(x):
    """`x` (n, c, h, w) inside a border of one zero cell."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2))
    xp[:, :, 1:1 + h, 1:1 + w] = x
    return xp


def _conv3x3(x, kernels, bias):
    """Cross-correlate (n, c_in, h, w) `x` with (c_out, c_in, 3, 3)
    `kernels` and add the per-channel bias.

    Accumulation order, which every trained number depends on: `out`
    starts as the bias; for each output channel, taps are visited
    row-major, and each tap's products are summed over input channels in
    index order into one reused (n, h, w) buffer before that sum is added
    to the output. Besides the output and the padded input copy, the only
    buffers are that sum and one (n, h, w) product.
    """
    n, c_in, h, w = x.shape
    c_out = kernels.shape[0]
    xp = _pad(x)
    out = np.empty((n, c_out, h, w))
    out[:] = bias[None, :, None, None]
    acc = np.empty((n, h, w))
    tmp = np.empty((n, h, w))
    for o in range(c_out):
        for i in range(3):
            for j in range(3):
                np.multiply(xp[:, 0, i:i + h, j:j + w], kernels[o, 0, i, j], out=acc)
                for c in range(1, c_in):
                    np.multiply(xp[:, c, i:i + h, j:j + w], kernels[o, c, i, j], out=tmp)
                    acc += tmp
                out[:, o] += acc
    return out


def _conv3x3_backward(upstream, x, kernels):
    """Gradients of _conv3x3 w.r.t. input, kernels and bias, as
    (d_x, d_kernels, d_bias) in the forward operands' shapes."""
    h, w = x.shape[2:]
    xp = _pad(x)
    d_xp = np.zeros_like(xp)
    d_k = np.zeros_like(kernels)
    for i in range(3):
        for j in range(3):
            sl = np.s_[:, :, i:i + h, j:j + w]
            d_k[:, :, i, j] = np.einsum("nohw,nchw->oc", upstream, xp[sl])
            d_xp[sl] += np.einsum("nohw,oc->nchw", upstream, kernels[:, :, i, j])
    d_b = upstream.sum(axis=(0, 2, 3))
    return d_xp[:, :, 1:1 + h, 1:1 + w], d_k, d_b


def _pool_cells(x):
    """The four cells of every pool window, row-major, as strided views
    of `x`."""
    h2, w2 = pooled_grid(*x.shape[2:])
    return [x[:, :, i:2 * h2:2, j:2 * w2:2] for i in (0, 1) for j in (0, 1)]


def _maxpool(x):
    a, b, c, d = _pool_cells(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def _maxpool_backward(upstream, x, pooled):
    """Route each pooled gradient to the first cell of its window, in
    row-major order, that holds the window's max (np.argmax's tie-break)."""
    d_x = np.zeros(x.shape)
    unplaced = np.ones(upstream.shape, dtype=bool)
    for cell, d_cell in zip(_pool_cells(x), _pool_cells(d_x)):
        hit = cell == pooled
        np.copyto(d_cell, upstream, where=unplaced & hit)
        unplaced &= ~hit
    return d_x


def nsdru_forward(x: np.ndarray, p: NsdruParams) -> NsdruTrace:
    """Compress (n, 1, ch, t) maps to (n, 1, ch//2, t//2). Both ReLUs run
    in place on their convolution's output, so no second act1-sized
    array is allocated."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"expected (n, 1, ch, t) input, got shape {x.shape}")
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ShapeError(f"grid {x.shape[2:]} too small to pool (need >= 2x2)")
    want = nsdru_shapes(len(p.conv1_w))
    for f in fields(p):
        shape = np.shape(getattr(p, f.name))
        if shape != getattr(want, f.name):
            raise ShapeError(f"{f.name} has shape {shape}, expected {getattr(want, f.name)}")
    act1 = _conv3x3(x, p.conv1_w, p.conv1_b)
    np.maximum(act1, 0.0, out=act1)
    pooled = _maxpool(act1)
    act2 = _conv3x3(pooled, p.conv2_w, p.conv2_b)
    np.maximum(act2, 0.0, out=act2)
    return NsdruTrace(x=x, act1=act1, pooled=pooled, act2=act2)


def nsdru_backward(trace: NsdruTrace, upstream: np.ndarray, p: NsdruParams):
    """Exact reverse pass; each pool window's gradient lands on its first max.
    Returns (NsdruParams of gradients, d_x)."""
    d_act2 = relu_grad(trace.act2, upstream)
    d_pooled, d_conv2_w, d_conv2_b = _conv3x3_backward(d_act2, trace.pooled, p.conv2_w)
    d_act1 = _maxpool_backward(d_pooled, trace.act1, trace.pooled)
    d_act1 = relu_grad(trace.act1, d_act1)
    d_x, d_conv1_w, d_conv1_b = _conv3x3_backward(d_act1, trace.x, p.conv1_w)
    grads = NsdruParams(
        conv1_w=d_conv1_w, conv1_b=d_conv1_b, conv2_w=d_conv2_w, conv2_b=d_conv2_b,
    )
    return grads, d_x
