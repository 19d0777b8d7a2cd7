"""Conv/pool compressor: reconstructed epochs, viewed on their original
(channels x time) grid, pass through conv(3x3) -> ReLU -> maxpool(2x2,
stride 2) -> conv(3x3) -> ReLU, halving both grid dimensions (floor).

The kernels here serve that one geometry. Convolution is cross-correlation
(no kernel flip), stride 1, zero-padded by one cell on every side so the
grid is kept; the pool's 2x2 windows tile the grid from its top-left cell,
and an odd trailing row or column belongs to no window.

Both passes walk the batch in chunks of whole samples and hold one
chunk's conv1 output and pool at a time, channel-first: conv1 is one
GEMM of the kernels against every cell's nine taps, and conv2 one GEMM
of its taps against the pooled channels followed by nine shifted adds.
The backward recomputes both maps over the forward's chunks.
"""

from dataclasses import dataclass, fields
from functools import reduce

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
    """The input and the output; the backward rebuilds the rest from x."""

    x: np.ndarray
    act2: np.ndarray


def _pad(x):
    """`x` (n, c, h, w) inside a border of one zero cell."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2))
    xp[:, :, 1:1 + h, 1:1 + w] = x
    return xp


def _conv3x3_backward(upstream, x, kernels):
    """Gradients of the zero-padded 3x3 cross-correlation of (n, c_in, h, w)
    `x` with (c_out, c_in, 3, 3) `kernels`, plus a per-channel bias, w.r.t.
    input, kernels and bias: (d_x, d_kernels, d_bias) in the forward
    operands' shapes."""
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


def _maxpool(x, out=None):
    a, b, c, d = _pool_cells(x)
    return np.maximum(np.maximum(a, b), np.maximum(c, d), out=out)


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


# Grid cells per forward chunk. A chunk holds as many whole samples as fit,
# and at least one: one 128 x 256 map, or sixteen 8 x 256 maps.
_CHUNK_CELLS = 2**15


def _chunks(shape):
    """Slices of whole samples of an (n, 1, h, w) batch, each of at most
    _CHUNK_CELLS grid cells unless one sample alone has more."""
    n, _, h, w = shape
    step = max(1, _CHUNK_CELLS // (h * w))
    return [np.s_[i:i + step] for i in range(0, n, step)]


def _conv1_relu(x, p: NsdruParams):
    """ReLU(conv1) of (m, 1, h, w) maps, channel-first as (c, m, h, w).

    One GEMM: the (c, 9) kernels times the (9, m*h*w) matrix of every
    cell's nine padded-input taps, row-major. The bias is added to the
    GEMM's sums afterwards."""
    m, _, h, w = x.shape
    xp = _pad(x)[:, 0]
    taps = np.empty((9, m, h, w))
    for tap, (i, j) in enumerate(np.ndindex(3, 3)):
        taps[tap] = xp[:, i:i + h, j:j + w]
    act1 = p.conv1_w.reshape(-1, 9) @ taps.reshape(9, -1)
    act1 += p.conv1_b[:, None]
    np.maximum(act1, 0.0, out=act1)
    return act1.reshape(-1, m, h, w)


def nsdru_forward(x: np.ndarray, p: NsdruParams) -> NsdruTrace:
    """Compress (n, 1, ch, t) maps to (n, 1, ch//2, t//2).

    Per chunk: conv1 and its ReLU (`_conv1_relu`), pooled into a map with
    a zero border. conv2's GEMM, its (9, c) taps times that (c, cells)
    map, gives each tap's sum over channels at every cell; act2 starts as
    the bias and adds the shifted tap sums in row-major tap order. Both
    ReLUs run in place."""
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
    n, _, h, w = x.shape
    c = len(p.conv1_w)
    h2, w2 = pooled_grid(h, w)
    k2 = p.conv2_w[0].reshape(c, 9).T
    act2 = np.empty((n, 1, h2, w2))
    for s in _chunks(x.shape):
        pp = np.zeros((c, len(x[s]), h2 + 2, w2 + 2))
        inner = pp[:, :, 1:1 + h2, 1:1 + w2]
        _maxpool(_conv1_relu(x[s], p), out=inner)
        tap_sums = (k2 @ pp.reshape(c, -1)).reshape((9,) + pp.shape[1:])
        out = act2[s, 0]
        out[...] = p.conv2_b[0]
        for tap, (i, j) in enumerate(np.ndindex(3, 3)):
            out += tap_sums[tap, :, i:i + h2, j:j + w2]
    np.maximum(act2, 0.0, out=act2)
    return NsdruTrace(x=x, act2=act2)


def nsdru_backward(trace: NsdruTrace, upstream: np.ndarray, p: NsdruParams):
    """Exact reverse pass; each pool window's gradient lands on its first max.
    Per forward chunk it recomputes conv1's output and pool (bitwise the
    forward's) and writes that chunk's rows of d_x; the parameter gradients
    are summed over chunks. Returns (NsdruParams of gradients, d_x)."""
    if np.shape(upstream) != trace.act2.shape:
        raise ShapeError(
            f"upstream has shape {np.shape(upstream)}, the reducer output {trace.act2.shape}"
        )
    x = trace.x
    d_act2 = relu_grad(trace.act2, upstream)
    d_x = np.empty(x.shape)
    parts = []
    for s in _chunks(x.shape):
        act1 = _conv1_relu(x[s], p).transpose(1, 0, 2, 3)
        pooled = _maxpool(act1)
        d_pooled, d_conv2_w, d_conv2_b = _conv3x3_backward(d_act2[s], pooled, p.conv2_w)
        # The pool routes each window's gradient to a cell equal to the
        # window's max, so conv1's ReLU gate there is the pooled map's.
        d_pooled = relu_grad(pooled, d_pooled)
        d_act1 = _maxpool_backward(d_pooled, act1, pooled)
        d_x[s], d_conv1_w, d_conv1_b = _conv3x3_backward(d_act1, x[s], p.conv1_w)
        parts.append((d_conv1_w, d_conv1_b, d_conv2_w, d_conv2_b))
    # reduce returns one chunk's gradients as they are; np.sum's zero start flips -0.0.
    return NsdruParams(*(reduce(np.add, g) for g in zip(*parts))), d_x
