"""Activations and softmax shared by the layers.

All operate on float64 numpy arrays and are pure functions of their
inputs, so they are safe to call concurrently on disjoint data; sigmoid
may write its result into `out`, which may be its input.
"""

import numpy as np

from .errors import ShapeError


def relu_grad(activated, upstream) -> np.ndarray:
    """Backward through ReLU given its *output*; subgradient at 0 is 0."""
    return upstream * (activated > 0.0)


def sigmoid(x, out=None) -> np.ndarray:
    """Logistic function without overflow for any finite input, as
    exp(min(x, 0)) / (1 + exp(-|x|)): bitwise 1/(1+z) where x >= 0 and
    z/(1+z) elsewhere, z = exp(-|x|). One scratch array, the denominator;
    the result goes to `out` (x's shape, float64), which may be x itself."""
    x = np.asarray(x, dtype=np.float64)
    d = np.empty_like(x)
    np.add(np.exp(np.negative(np.abs(x, out=d), out=d), out=d), 1.0, out=d)
    if out is None:
        out = np.empty_like(x)
    np.exp(np.minimum(x, 0.0, out=out), out=out)
    return np.divide(out, d, out=out)


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction so large logits cannot overflow."""
    o = np.asarray(logits, dtype=np.float64)
    if o.shape[axis] < 1:
        raise ShapeError(f"softmax needs at least one class, got shape {o.shape}")
    shifted = o - o.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
