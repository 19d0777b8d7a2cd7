"""Skip-connected dense autoencoder pyramid.

Six dense layers run in one loop. Layers 1-3 (the encoder) narrow the
flattened epoch to a bottleneck through ReLUs; layers 4-6 (the decoder)
widen it back, and a sigmoid squashes the reconstruction into (0,1).
The one skip rule, `SKIP_FROM`: decoder layer n adds the output of the
encoder layer of its width to its own, so a decoder width that does not
mirror the encoder's fails the add.

The reconstruction path keeps a ReLU ahead of the final sigmoid by
default, which confines outputs to [0.5, 1); `output_activation="linear"`
drops that ReLU so the sigmoid can reach the full (0,1) range.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import sigmoid

OUTPUT_ACTIVATIONS = ("relu", "linear")
N_LAYERS = 6
SKIP_FROM = {4: 2, 5: 1}  # decoder layer -> encoder layer of its width


@dataclass(frozen=True)
class AeDims:
    """Layer widths: input d, hidden e1 >= e2 >= bottleneck z."""

    d: int
    e1: int = 128
    e2: int = 64
    z: int = 32

    def __post_init__(self):
        if not (self.d >= 1 and self.e1 >= self.e2 >= self.z >= 1):
            raise ConfigError(
                f"widths must satisfy d >= 1 and e1 >= e2 >= z >= 1, got {self}"
            )


@dataclass
class AeParams:
    """Six dense layers; ae_shapes gives their shapes."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray
    w5: np.ndarray
    b5: np.ndarray
    w6: np.ndarray
    b6: np.ndarray


def ae_shapes(dims: AeDims) -> AeParams:
    """Layer N maps width N to width N+1 of d, e1, e2, z, e2, e1, d:
    wN has shape (out_width, in_width), bN (out_width,)."""
    widths = [dims.d, dims.e1, dims.e2, dims.z, dims.e2, dims.e1, dims.d]
    shapes = {}
    for n, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:]), start=1):
        shapes[f"w{n}"] = (n_out, n_in)
        shapes[f"b{n}"] = (n_out,)
    return AeParams(**shapes)


@dataclass
class AeTrace:
    """Layer n read `inputs[n-1]`; `gates[n-1]` is where its ReLU passed
    (`h > 0`), None for a linear output layer. A ReLU's backward needs
    only that bit, so training and inference keep this one trace."""

    x: np.ndarray
    inputs: list
    gates: list
    recon: np.ndarray


def _dense(x, w, b):
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"dense input width {x.shape[1]} does not match weight width {w.shape[1]}"
        )
    out = x @ w.T
    out += b
    return out


def ae_forward(x: np.ndarray, p: AeParams, output_activation: str = "relu") -> AeTrace:
    """Layers 1-6 in order: (n, d) narrows to (n, z) and widens back."""
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ConfigError(
            f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {output_activation!r}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"encoder expects a 2-D batch, got shape {x.shape}")
    h, inputs, gates = x, [], []
    for n in range(1, N_LAYERS + 1):
        inputs.append(h)
        h = _dense(h, getattr(p, f"w{n}"), getattr(p, f"b{n}"))
        if n < N_LAYERS or output_activation == "relu":
            np.maximum(h, 0.0, out=h)
            gates.append(h > 0.0)
        else:
            gates.append(None)
        if n in SKIP_FROM:  # an encoder output is the next layer's input
            skip = inputs[SKIP_FROM[n]]
            if h.shape != skip.shape:
                raise ShapeError(f"skip add needs {skip.shape}, decoder produced {h.shape}")
            h = h + skip
    return AeTrace(x=x, inputs=inputs, gates=gates, recon=sigmoid(h))


def reconstruction_loss(recon: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element of the batch."""
    if recon.shape != target.shape:
        raise ShapeError(
            f"reconstruction {recon.shape} and target {target.shape} differ"
        )
    diff = recon - target
    return float(np.mean(diff * diff))


def ae_backward(trace: AeTrace, d_recon: np.ndarray, p: AeParams):
    """Exact reverse pass; skips route gradient to both of their inputs.
    Returns the AeParams of gradients; the input rows are data, so no
    gradient is formed for them.

    `d_recon` is the combined upstream on the sigmoid output (the
    reconstruction loss term plus whatever the downstream consumer of the
    reconstruction contributes).
    """
    if np.shape(d_recon) != trace.recon.shape:
        raise ShapeError(
            f"upstream has shape {np.shape(d_recon)}, the reconstruction {trace.recon.shape}"
        )
    grads, skip_grads = {}, {}
    d = d_recon * trace.recon * (1.0 - trace.recon)
    for n in range(N_LAYERS, 0, -1):
        if n in skip_grads:  # the encoder output also fed a skip add
            d = d + skip_grads.pop(n)
        if n in SKIP_FROM:  # a sum passes its gradient to both addends
            skip_grads[SKIP_FROM[n]] = d
        if trace.gates[n - 1] is not None:
            d = d * trace.gates[n - 1]
        grads[f"w{n}"] = d.T @ trace.inputs[n - 1]
        grads[f"b{n}"] = d.sum(axis=0)
        if n > 1:
            d = d @ getattr(p, f"w{n}")
    return AeParams(**grads)
