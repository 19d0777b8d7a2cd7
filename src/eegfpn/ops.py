"""Activations and softmax shared by the layers.

All operate on float64 numpy arrays and are pure functions of their
inputs, so they are safe to call concurrently on disjoint data.
"""

import numpy as np

from .errors import ShapeError


def relu_grad(activated, upstream) -> np.ndarray:
    """Backward through ReLU given its *output*; subgradient at 0 is 0."""
    return upstream * (activated > 0.0)


def sigmoid(x) -> np.ndarray:
    """Logistic function without overflow for any finite input: 1/(1+z) where
    x >= 0, z/(1+z) elsewhere, z = exp(-|x|), in two buffers of x's size."""
    x = np.asarray(x, dtype=np.float64)
    z, d = np.empty_like(x), np.empty_like(x)
    np.exp(np.negative(np.abs(x, out=z), out=z), out=z)
    np.divide(z, np.add(z, 1.0, out=d), out=z)
    np.copyto(z, np.divide(1.0, d, out=d), where=x >= 0.0)
    return z


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction so large logits cannot overflow."""
    o = np.asarray(logits, dtype=np.float64)
    if o.shape[axis] < 1:
        raise ShapeError(f"softmax needs at least one class, got shape {o.shape}")
    shifted = o - o.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
