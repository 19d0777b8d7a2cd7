"""Dense numeric kernels and finite-difference gradient checking.

All kernels operate on float64 numpy arrays and are pure functions of
their inputs, so they are safe to call concurrently on disjoint data.
Convolution is cross-correlation (no kernel flip), the usual deep
learning convention. Every backward routine here is exact for the
corresponding forward, which `grad_check` verifies against central
finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# Elementary ops
# ---------------------------------------------------------------------------

def relu(x) -> np.ndarray:
    return np.maximum(as_f64(x), 0.0)


def relu_grad(activated, upstream) -> np.ndarray:
    """Backward through ReLU given its *output*; subgradient at 0 is 0."""
    return upstream * (activated > 0.0)


def sigmoid(x) -> np.ndarray:
    """Logistic function, computed without overflow for any finite input."""
    x = as_f64(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction so large logits cannot overflow."""
    o = as_f64(logits)
    if o.shape[axis] < 1:
        raise ShapeError(f"softmax needs at least one class, got shape {o.shape}")
    shifted = o - o.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# Convolution / pooling
# ---------------------------------------------------------------------------

def _as_nchw(x) -> np.ndarray:
    x = as_f64(x)
    if x.ndim != 4:
        raise ShapeError(f"expected (N,C,H,W) input, got {x.shape}")
    return x


def conv2d(x, kernels, bias) -> np.ndarray:
    """Cross-correlate `x` with `kernels` and add a per-channel bias.

    `x` is (N, C_in, H, W); `kernels` is (C_out, C_in, kh, kw). Stride
    is 1 and the input is zero-padded ("same"), so the spatial shape is
    preserved.

    Accumulation order, which every trained number depends on: `out`
    starts as the bias; for each output channel, taps are visited
    row-major, and each tap's products are summed over input channels in
    index order into one reused (N, H, W) buffer before that sum is added
    to the output. Besides the output and the padded input copy, the only
    buffers are that sum and one (N, H, W) product.
    """
    x4 = _as_nchw(x)
    kernels = as_f64(kernels)
    bias = as_f64(bias)
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-D (C_out,C_in,kh,kw), got {kernels.shape}")
    n, c_in, h, w = x4.shape
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"kernel channels {kc} do not match input channels {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} does not match {c_out} output channels")
    ph, pw = kh - 1, kw - 1
    xp = np.zeros((n, c_in, h + ph, w + pw))
    xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w] = x4
    out = np.empty((n, c_out, h, w))
    out[:] = bias[None, :, None, None]
    acc = np.empty((n, h, w))
    tmp = np.empty((n, h, w))
    for o in range(c_out):
        for i in range(kh):
            for j in range(kw):
                np.multiply(xp[:, 0, i:i + h, j:j + w], kernels[o, 0, i, j], out=acc)
                for c in range(1, c_in):
                    np.multiply(xp[:, c, i:i + h, j:j + w], kernels[o, c, i, j], out=tmp)
                    acc += tmp
                out[:, o] += acc
    return out


def conv2d_backward(upstream, x, kernels):
    """Gradients of conv2d w.r.t. input, kernels and bias.

    Returns (d_x, d_kernels, d_bias) with the same shapes as the
    forward operands.
    """
    x4 = _as_nchw(x)
    up4 = _as_nchw(upstream)
    kernels = as_f64(kernels)
    n, c_in, h, w = x4.shape
    c_out, _, kh, kw = kernels.shape
    ph, pw = kh - 1, kw - 1
    xp = np.zeros((n, c_in, h + ph, w + pw))
    xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w] = x4
    d_xp = np.zeros_like(xp)
    d_k = np.zeros_like(kernels)
    for i in range(kh):
        for j in range(kw):
            sl = np.s_[:, :, i:i + h, j:j + w]
            d_k[:, :, i, j] = np.einsum("nohw,nchw->oc", up4, xp[sl])
            d_xp[sl] += np.einsum("nohw,oc->nchw", up4, kernels[:, :, i, j])
    d_b = up4.sum(axis=(0, 2, 3))
    d_x = d_xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w]
    return d_x, d_k, d_b


def _pool_cells(x4):
    """The four cells of every 2x2 stride-2 window, row-major, as strided
    views of `x4`; a trailing odd row or column belongs to no window."""
    h, w = x4.shape[2:]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d requires H>=2 and W>=2, got ({h},{w})")
    h2, w2 = h // 2, w // 2
    return [x4[:, :, i:2 * h2:2, j:2 * w2:2] for i in (0, 1) for j in (0, 1)]


def maxpool2d(x) -> np.ndarray:
    """2x2 stride-2 max pooling (trailing odd row/column dropped)."""
    a, b, c, d = _pool_cells(_as_nchw(x))
    return np.maximum(np.maximum(a, b), np.maximum(c, d))


def maxpool2d_backward(upstream, x, pooled) -> np.ndarray:
    """Route each pooled gradient to the first cell of its window, in
    row-major order, that holds the window's max (np.argmax's tie-break)."""
    up4 = _as_nchw(upstream)
    x4 = _as_nchw(x)
    d_x = np.zeros(x4.shape)
    unplaced = np.ones(up4.shape, dtype=bool)
    for cell, d_cell in zip(_pool_cells(x4), _pool_cells(d_x)):
        hit = cell == pooled
        np.copyto(d_cell, up4, where=unplaced & hit)
        unplaced &= ~hit
    return d_x


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_relative_error: float
    worst_parameter_index: int
    epsilon_used: float


def grad_check(loss_fn, grad_fn, theta, epsilon: float = 1e-5) -> GradCheckReport:
    """Compare an analytic gradient against central finite differences.

    `loss_fn(theta) -> float` must be deterministic; `grad_fn(theta)`
    returns the analytic gradient for the same flat parameter vector.
    The per-element relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    theta = as_f64(theta).ravel()
    analytic = as_f64(grad_fn(theta)).ravel()
    if analytic.shape != theta.shape:
        raise ShapeError(
            f"analytic gradient shape {analytic.shape} differs from parameters {theta.shape}"
        )
    worst = 0.0
    worst_idx = 0
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + epsilon
        f_plus = float(loss_fn(bumped))
        bumped[i] = theta[i] - epsilon
        f_minus = float(loss_fn(bumped))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"loss is non-finite near parameter index {i}")
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        a = analytic[i]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if rel > worst:
            worst = rel
            worst_idx = i
    return GradCheckReport(
        max_relative_error=worst,
        worst_parameter_index=worst_idx,
        epsilon_used=epsilon,
    )
