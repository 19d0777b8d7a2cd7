"""Skip-connected dense autoencoder pyramid.

Three ReLU encoder layers narrow the flattened epoch to a bottleneck;
three decoder layers widen it back, adding the matching encoder
activation at each width (additive skips), and a sigmoid squashes the
reconstruction into (0,1). Decoder widths must mirror encoder widths or
the skip additions would not typecheck.

The reconstruction path keeps a ReLU ahead of the final sigmoid by
default, which confines outputs to [0.5, 1); `output_activation="linear"`
drops that ReLU so the sigmoid can reach the full (0,1) range.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import relu, relu_grad, sigmoid

OUTPUT_ACTIVATIONS = ("relu", "linear")


@dataclass(frozen=True)
class AeDims:
    """Layer widths: input d, hidden e1 >= e2 >= bottleneck z."""

    d: int
    e1: int = 128
    e2: int = 64
    z: int = 32


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
    if not (dims.d >= 1 and dims.e1 >= dims.e2 >= dims.z >= 1):
        raise ConfigError(
            f"widths must satisfy d >= 1 and e1 >= e2 >= z >= 1, got {dims}"
        )
    widths = [dims.d, dims.e1, dims.e2, dims.z, dims.e2, dims.e1, dims.d]
    shapes = {}
    for n, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:]), start=1):
        shapes[f"w{n}"] = (n_out, n_in)
        shapes[f"b{n}"] = (n_out,)
    return AeParams(**shapes)


@dataclass
class AeTrace:
    """Every activation the backward pass needs, in forward order."""

    x: np.ndarray
    enc1: np.ndarray
    enc2: np.ndarray
    latent: np.ndarray
    dec1: np.ndarray
    dec1_skip: np.ndarray
    dec2: np.ndarray
    dec2_skip: np.ndarray
    dec3: np.ndarray
    recon: np.ndarray
    output_activation: str  # the forward's, so the backward cannot differ


def _dense(x, w, b):
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"dense input width {x.shape[1]} does not match weight width {w.shape[1]}"
        )
    return x @ w.T + b


def ae_forward(x: np.ndarray, p: AeParams, output_activation: str = "relu") -> AeTrace:
    """Three ReLU stages narrow (n, d) to (n, e1), (n, e2), (n, z); the
    decoder widens the bottleneck back out, adding encoder skips at each
    width."""
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ConfigError(
            f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {output_activation!r}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"encoder expects a 2-D batch, got shape {x.shape}")
    enc1 = relu(_dense(x, p.w1, p.b1))
    enc2 = relu(_dense(enc1, p.w2, p.b2))
    latent = relu(_dense(enc2, p.w3, p.b3))
    dec1 = relu(_dense(latent, p.w4, p.b4))
    if dec1.shape != enc2.shape:
        raise ShapeError(f"skip add needs {enc2.shape}, decoder produced {dec1.shape}")
    dec1_skip = dec1 + enc2
    dec2 = relu(_dense(dec1_skip, p.w5, p.b5))
    if dec2.shape != enc1.shape:
        raise ShapeError(f"skip add needs {enc1.shape}, decoder produced {dec2.shape}")
    dec2_skip = dec2 + enc1
    pre = _dense(dec2_skip, p.w6, p.b6)
    dec3 = relu(pre) if output_activation == "relu" else pre
    return AeTrace(
        x=x, enc1=enc1, enc2=enc2, latent=latent,
        dec1=dec1, dec1_skip=dec1_skip, dec2=dec2, dec2_skip=dec2_skip,
        dec3=dec3, recon=sigmoid(dec3), output_activation=output_activation,
    )


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
    d_dec3 = d_recon * trace.recon * (1.0 - trace.recon)
    if trace.output_activation == "relu":
        d_dec3 = relu_grad(trace.dec3, d_dec3)
    d_w6 = d_dec3.T @ trace.dec2_skip
    d_b6 = d_dec3.sum(axis=0)
    d_dec2_skip = d_dec3 @ p.w6

    d_dec2 = relu_grad(trace.dec2, d_dec2_skip)
    d_w5 = d_dec2.T @ trace.dec1_skip
    d_b5 = d_dec2.sum(axis=0)
    d_dec1_skip = d_dec2 @ p.w5

    d_dec1 = relu_grad(trace.dec1, d_dec1_skip)
    d_w4 = d_dec1.T @ trace.latent
    d_b4 = d_dec1.sum(axis=0)
    d_latent = d_dec1 @ p.w4

    d_pre3 = relu_grad(trace.latent, d_latent)
    d_w3 = d_pre3.T @ trace.enc2
    d_b3 = d_pre3.sum(axis=0)
    d_enc2 = d_pre3 @ p.w3 + d_dec1_skip  # skip from the first add

    d_pre2 = relu_grad(trace.enc2, d_enc2)
    d_w2 = d_pre2.T @ trace.enc1
    d_b2 = d_pre2.sum(axis=0)
    d_enc1 = d_pre2 @ p.w2 + d_dec2_skip  # skip from the second add

    d_pre1 = relu_grad(trace.enc1, d_enc1)
    d_w1 = d_pre1.T @ trace.x
    d_b1 = d_pre1.sum(axis=0)

    return AeParams(
        w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2, w3=d_w3, b3=d_b3,
        w4=d_w4, b4=d_b4, w5=d_w5, b5=d_b5, w6=d_w6, b6=d_b6,
    )
