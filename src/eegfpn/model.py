"""Full pipeline assembly: flattened epoch batch -> autoencoder ->
reconstruction viewed on the (ch, t) grid -> conv/pool compressor ->
parallel-GRU ensemble -> two-class head.

Also owns the canonical parameter ordering used by the checkpoint format,
the optimizer and the gradient checks: one walk over the parameter
dataclasses that serves gradients and declared shapes alike, since every
backward pass returns its gradients, and every layer's `*_shapes` function
its shapes, in the same type as its parameters.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autoencoder as ae
from . import gru
from . import head as head_mod
from . import reducer
from .config import RunConfig
from .errors import ShapeError
from .ops import softmax


@dataclass
class ModelParams:
    ae: ae.AeParams
    nsdru: reducer.NsdruParams
    csie: gru.CsieParams
    head: head_mod.HeadParams


@dataclass
class ModelTrace:
    ae: ae.AeTrace
    nsdru: reducer.NsdruTrace
    csie: gru.CsieTrace
    logits: np.ndarray
    probs: np.ndarray


def param_shapes(dims: ae.AeDims, c: int, f: int, h: int, k: int) -> ModelParams:
    """Every array's shape, for c reducer channels and k GRU branches of
    f inputs and h hidden units."""
    return ModelParams(
        ae=ae.ae_shapes(dims),
        nsdru=reducer.nsdru_shapes(c),
        csie=gru.csie_shapes(f, h, k),
        head=head_mod.head_shapes(h),
    )


def config_shapes(config: RunConfig, ch: int, t: int) -> ModelParams:
    """The shapes of `config`'s model on a (ch, t) epoch grid."""
    dims = ae.AeDims(d=ch * t, e1=config.e1, e2=config.e2, z=config.z)
    features, _ = reducer.pooled_grid(ch, t)
    return param_shapes(dims, config.nsdru_hidden_channels, features, config.h, config.k)


def init_params(shapes, seed: int):
    """Arrays of the shapes in `shapes` (a ModelParams or one stage's):
    Glorot-uniform for rank >= 2, zeros for rank 1, drawn in map_params
    order from one stream per stage. A model's stages, and an ensemble's
    branches, draw from distinct child seeds; equal branches would stay
    identical forever by symmetry."""
    def each(parts):
        children = np.random.SeedSequence(seed).spawn(len(parts))
        return [init_params(part, int(child.generate_state(1)[0]))
                for part, child in zip(parts, children)]

    if isinstance(shapes, ModelParams):
        return ModelParams(*each([getattr(shapes, f.name) for f in fields(shapes)]))
    if isinstance(shapes, gru.CsieParams):
        return gru.CsieParams(branches=each(shapes.branches))
    rng = np.random.default_rng(seed)

    def draw(_, shape):
        if len(shape) < 2:
            return np.zeros(shape)
        fan_in = math.prod(shape[1:])
        fan_out = shape[0] * math.prod(shape[2:])
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    return map_params(draw, shapes)


def init_model(config: RunConfig, ch: int, t: int, seed=None) -> ModelParams:
    """All randomness flows from one seed (the config's by default)."""
    return init_params(config_shapes(config, ch, t), config.seed if seed is None else seed)


def model_forward(
    rows: np.ndarray, ch: int, t: int, params: ModelParams,
    output_activation: str = "relu", keep_trace: bool = True,
) -> ModelTrace:
    """The one check of a batch: (n, ch*t) rows, as wide as the model's
    input. The reducer sees the reconstruction as (n, 1, ch, t) maps and
    the ensemble sees act2's rows as features and its columns as time.
    With `keep_trace=False` the GRU ensemble keeps no backward trace."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != ch * t:
        raise ShapeError(
            f"expected (n, {ch * t}) flattened batch for ch={ch}, t={t}, "
            f"got shape {rows.shape}"
        )
    want = params.ae.w1.shape[1]
    if ch * t != want:
        raise ShapeError(
            f"rows have width {ch * t} but the model was trained on width {want}"
        )
    n = rows.shape[0]
    ae_trace = ae.ae_forward(rows, params.ae, output_activation)
    nsdru_trace = reducer.nsdru_forward(ae_trace.recon.reshape(n, 1, ch, t), params.nsdru)
    csie_trace = gru.csie_forward(nsdru_trace.act2[:, 0].transpose(0, 2, 1), params.csie,
                                  keep_trace=keep_trace)
    z = head_mod.logits(csie_trace.aggregate, params.head)
    return ModelTrace(
        ae=ae_trace, nsdru=nsdru_trace, csie=csie_trace,
        logits=z, probs=softmax(z, axis=-1),
    )


def model_loss(trace: ModelTrace, labels, lambda_recon: float) -> float:
    """Mean cross-entropy plus lambda times reconstruction MSE."""
    ce = float(np.mean(head_mod.cross_entropy(trace.probs, labels)))
    if lambda_recon == 0.0:
        return ce
    return ce + lambda_recon * ae.reconstruction_loss(trace.ae.recon, trace.ae.x)


def model_backward(
    trace: ModelTrace, labels, params: ModelParams, lambda_recon: float,
) -> ModelParams:
    """Gradients of model_loss, as a ModelParams of gradient arrays."""
    if trace.csie.hiddens is None:
        raise ValueError("model_backward needs a trace from model_forward(..., keep_trace=True)")
    labels = np.asarray(labels, dtype=np.int64)
    n = trace.probs.shape[0]
    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(n), labels] = 1.0
    d_logits = (trace.probs - onehot) / n

    head_grads, d_features = head_mod.head_backward(
        d_logits, trace.csie.aggregate, params.head
    )
    csie_grads, d_seq = gru.csie_backward(trace.csie, d_features, params.csie)
    # Back to (n, 1, f, T), contiguous, before the reducer's backward.
    d_map = np.ascontiguousarray(d_seq.transpose(0, 2, 1))[:, None]
    nsdru_grads, d_maps = reducer.nsdru_backward(trace.nsdru, d_map, params.nsdru)
    d_recon = d_maps.reshape(n, -1)
    if lambda_recon != 0.0:
        d_recon = d_recon + lambda_recon * 2.0 * (trace.ae.recon - trace.ae.x) / trace.ae.recon.size
    ae_grads = ae.ae_backward(trace.ae, d_recon, params.ae)
    return ModelParams(ae=ae_grads, nsdru=nsdru_grads, csie=csie_grads, head=head_grads)


# ---------------------------------------------------------------------------
# Canonical parameter ordering (checkpoints, optimizer state, packing)
# ---------------------------------------------------------------------------

def map_params(fn, params, prefix=None):
    """A copy of `params`' structure in which every array is replaced by
    fn(name, array), called in serialization order.

    `params` is a ModelParams or one stage's parameters (AeParams,
    NsdruParams, CsieParams, HeadParams), of values, gradients or shapes. In a
    ModelParams the segment names are `ae.*`, `nsdru.*`, `gru{i}.*` and
    `head.*`, stages and fields in dataclass order; a lone stage's arrays
    go by their field names (`gru{i}.*` for a CsieParams).
    """
    if isinstance(params, ModelParams):
        return ModelParams(**{
            f.name: map_params(fn, getattr(params, f.name), f.name)
            for f in fields(params)
        })
    if isinstance(params, gru.CsieParams):
        return gru.CsieParams(branches=[
            map_params(fn, branch, f"gru{i}") for i, branch in enumerate(params.branches)
        ])
    return type(params)(**{
        f.name: fn(f"{prefix}.{f.name}" if prefix else f.name, getattr(params, f.name))
        for f in fields(params)
    })


def param_segments(params):
    """(name, array) pairs in the fixed serialization order."""
    segments = []
    map_params(lambda name, arr: segments.append((name, arr)), params)
    return segments


def n_params(params) -> int:
    return sum(arr.size for _, arr in param_segments(params))


def pack_params(params) -> np.ndarray:
    """Concatenate every array into one flat vector (copy)."""
    return np.concatenate([arr.reshape(-1) for _, arr in param_segments(params)])


def unpack_params(theta: np.ndarray, template):
    """`template`'s structure and shapes over a flat vector, as views into
    `theta` (or into its float64 copy, if it is of another dtype)."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    want = n_params(template)
    if theta.size != want:
        raise ShapeError(f"flat vector has {theta.size} entries, model needs {want}")
    cursor = 0

    def take(_, arr):
        nonlocal cursor
        cursor += arr.size
        return theta[cursor - arr.size:cursor].reshape(arr.shape)

    return map_params(take, template)
