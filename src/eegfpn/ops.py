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


def tanh(x) -> np.ndarray:
    return np.tanh(as_f64(x))


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

def _promote_nchw(x):
    x = as_f64(x)
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"expected (C,H,W) or (N,C,H,W) input, got {x.shape}")


def _conv_padding(h: int, w: int, kh: int, kw: int, padding: str):
    if padding == "same":
        return kh - 1, kw - 1
    if padding == "valid":
        return 0, 0
    raise ShapeError(f"padding must be 'same' or 'valid', got {padding!r}")


def conv2d(x, kernels, bias, stride: int = 1, padding: str = "same") -> np.ndarray:
    """Cross-correlate `x` with `kernels` and add a per-channel bias.

    `x` is (C_in, H, W) or (N, C_in, H, W); `kernels` is
    (C_out, C_in, kh, kw). With padding="same" and stride 1 the spatial
    shape is preserved.
    """
    x4, squeeze = _promote_nchw(x)
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
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    ph, pw = _conv_padding(h, w, kh, kw, padding)
    hp, wp = h + ph, w + pw
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})"
        )
    xp = np.zeros((n, c_in, hp, wp))
    xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w] = x4
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    out = np.empty((n, c_out, h_out, w_out))
    out[:] = bias[None, :, None, None]
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
            out += np.einsum("nchw,oc->nohw", patch, kernels[:, :, i, j])
    return out[0] if squeeze else out


def conv2d_backward(upstream, x, kernels, stride: int = 1, padding: str = "same"):
    """Gradients of conv2d w.r.t. input, kernels and bias.

    Returns (d_x, d_kernels, d_bias) with the same shapes as the
    forward operands.
    """
    x4, squeeze = _promote_nchw(x)
    up4, _ = _promote_nchw(upstream)
    kernels = as_f64(kernels)
    n, c_in, h, w = x4.shape
    c_out, _, kh, kw = kernels.shape
    ph, pw = _conv_padding(h, w, kh, kw, padding)
    hp, wp = h + ph, w + pw
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    xp = np.zeros((n, c_in, hp, wp))
    xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w] = x4
    d_xp = np.zeros_like(xp)
    d_k = np.zeros_like(kernels)
    for i in range(kh):
        for j in range(kw):
            sl = np.s_[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
            d_k[:, :, i, j] = np.einsum("nohw,nchw->oc", up4, xp[sl])
            d_xp[sl] += np.einsum("nohw,oc->nchw", up4, kernels[:, :, i, j])
    d_b = up4.sum(axis=(0, 2, 3))
    d_x = d_xp[:, :, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w]
    return (d_x[0] if squeeze else d_x), d_k, d_b


def maxpool2d_with_argmax(x):
    """2x2 stride-2 max pooling (trailing odd row/column dropped); returns
    the pooled output and the row-major in-window argmax used by backward."""
    x4, squeeze = _promote_nchw(x)
    n, c, h, w = x4.shape
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d requires H>=2 and W>=2, got ({h},{w})")
    h2, w2 = h // 2, w // 2
    windows = (
        x4[:, :, :2 * h2, :2 * w2]
        .reshape(n, c, h2, 2, w2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h2, w2, 4)
    )
    # np.argmax picks the first maximum, i.e. the row-major tie-break.
    idx = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    if squeeze:
        return pooled[0], idx[0]
    return pooled, idx


def maxpool2d_backward(upstream, argmax, input_shape) -> np.ndarray:
    """Route each pooled gradient to the argmax cell of its window."""
    squeeze = len(input_shape) == 3
    shape4 = (1, *input_shape) if squeeze else tuple(input_shape)
    up4, _ = _promote_nchw(upstream)
    idx = argmax[None] if squeeze else argmax
    n, c, h, w = shape4
    h2, w2 = h // 2, w // 2
    flat = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(flat, idx[..., None], up4[..., None], axis=-1)
    d_x = np.zeros(shape4)
    d_x[:, :, :2 * h2, :2 * w2] = (
        flat.reshape(n, c, h2, w2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, 2 * h2, 2 * w2)
    )
    return d_x[0] if squeeze else d_x


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
