"""Conv/pool compressor: reconstructed epochs, viewed on their original
(channels x time) grid, pass through conv(3x3) -> ReLU -> maxpool(2x2,
stride 2) -> conv(3x3) -> ReLU, halving both grid dimensions (floor).

The kernels here serve that one geometry. Convolution is cross-correlation
(no kernel flip), stride 1, zero-padded by one cell on every side so the
grid is kept; the pool's 2x2 windows tile the grid from its top-left cell,
and an odd trailing row or column belongs to no window.

Both passes walk the batch in chunks of whole samples, channel-first.
conv1 runs only at the four cells of every pool window, one GEMM of the
kernels against their nine taps, and the pool is taken from its sums;
conv2 is one GEMM of its taps against the pooled channels followed by
nine shifted adds. The backward recomputes the cells and the pool.
"""

from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import relu_grad


@dataclass
class NsdruParams:
    """Two 3x3 same-padding convolutions around the single pool."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray


def nsdru_shapes(c: int) -> NsdruParams:
    """One input map to c >= 1 hidden channels, and back to one map."""
    if c < 1:
        raise ConfigError(f"nsdru_hidden_channels must be >= 1, got {c}")
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


def _maxpool_backward(upstream, cells, pooled, shape):
    """A zero map of `shape` (m, c, h, w) holding each pooled gradient at
    the first of its window's four `cells`, row-major, that equals the
    window's max (np.argmax's tie-break)."""
    d_x = np.zeros(shape)
    h2, w2 = pooled.shape[2:]
    unplaced = np.ones(upstream.shape, dtype=bool)
    for cell, (i, j) in zip(cells, np.ndindex(2, 2)):
        hit = cell == pooled
        np.copyto(d_x[:, :, i:2 * h2:2, j:2 * w2:2], upstream, where=unplaced & hit)
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


def _conv1_pool(x, p: NsdruParams, out=None):
    """conv1 of (m, 1, h, w) maps at the four cells of every pool window,
    and its pool, channel-first: (cells, pooled). `cells` (4, c, m, h//2,
    w//2), row-major in each window, are conv1's sums plus bias from one
    GEMM as wide as conv1 over the grid (OpenBLAS may sum a narrower one
    in another order). `pooled`, written to `out` if given, is ReLU of
    their max: bitwise the max of their ReLUs, as rounding keeps order."""
    m, _, h, w = x.shape
    h2, w2 = pooled_grid(h, w)
    xp = _pad(x)[:, 0]
    taps = np.empty((9, 2, 2, m, h2, w2))
    for tap, (i, j) in enumerate(np.ndindex(3, 3)):
        # This tap of every window cell, split by the cell's place in its window.
        windows = xp[:, i:i + 2 * h2, j:j + 2 * w2].reshape(m, h2, 2, w2, 2)
        taps[tap] = windows.transpose(2, 4, 0, 1, 3)
    cells = p.conv1_w.reshape(-1, 9) @ taps.reshape(9, -1)
    cells += p.conv1_b[:, None]
    cells = cells.reshape(-1, 4, m, h2, w2).swapaxes(0, 1)
    pooled = np.maximum(cells[0], cells[1], out=out)
    for cell in cells[2:]:
        np.maximum(pooled, cell, out=pooled)
    return cells, np.maximum(pooled, 0.0, out=pooled)


def nsdru_forward(x: np.ndarray, p: NsdruParams) -> NsdruTrace:
    """Compress (n, 1, ch, t) maps to (n, 1, ch//2, t//2).

    Per chunk: conv1's pool (`_conv1_pool`), written into a map with a
    zero border. conv2's GEMM, its (9, c) taps times that (c, cells)
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
        _conv1_pool(x[s], p, out=pp[:, :, 1:1 + h2, 1:1 + w2])
        tap_sums = (k2 @ pp.reshape(c, -1)).reshape((9,) + pp.shape[1:])
        out = act2[s, 0]
        out[...] = p.conv2_b[0]
        for tap, (i, j) in enumerate(np.ndindex(3, 3)):
            out += tap_sums[tap, :, i:i + h2, j:j + w2]
    np.maximum(act2, 0.0, out=act2)
    return NsdruTrace(x=x, act2=act2)


def nsdru_backward(trace: NsdruTrace, upstream: np.ndarray, p: NsdruParams):
    """Exact reverse pass; each pool window's gradient lands on its first max.
    Per forward chunk it recomputes `_conv1_pool` (bitwise the forward's)
    and writes that chunk's rows of d_x; the parameter gradients are summed
    over chunks. Returns (NsdruParams of gradients, d_x)."""
    if np.shape(upstream) != trace.act2.shape:
        raise ShapeError(
            f"upstream has shape {np.shape(upstream)}, the reducer output {trace.act2.shape}"
        )
    x = trace.x
    d_act2 = relu_grad(trace.act2, upstream)
    d_x = np.empty(x.shape)
    parts = []
    for s in _chunks(x.shape):
        cells, pooled = _conv1_pool(x[s], p)
        # Routing compares the cells after conv1's ReLU with the pool; the
        # cell it picks equals the pool, so conv1's ReLU gate there is the pool's.
        cells, pooled = np.maximum(cells, 0.0, out=cells).swapaxes(1, 2), pooled.swapaxes(0, 1)
        d_pooled, d_conv2_w, d_conv2_b = _conv3x3_backward(d_act2[s], pooled, p.conv2_w)
        d_pooled = relu_grad(pooled, d_pooled)
        d_act1 = _maxpool_backward(d_pooled, cells, pooled, pooled.shape[:2] + x.shape[2:])
        d_x[s], d_conv1_w, d_conv1_b = _conv3x3_backward(d_act1, x[s], p.conv1_w)
        parts.append((d_conv1_w, d_conv1_b, d_conv2_w, d_conv2_b))
    # reduce returns one chunk's gradients as they are; np.sum's zero start flips -0.0.
    return NsdruParams(*(reduce(np.add, g) for g in zip(*parts))), d_x
