"""Full pipeline assembly: flattened epoch batch -> autoencoder ->
reconstruction viewed on the (ch, t) grid -> conv/pool compressor ->
parallel-GRU ensemble -> two-class head.

Also owns the canonical parameter ordering used by the checkpoint format,
the optimizer and the gradient checks: one walk over the parameter
dataclasses that serves gradients alike, since every backward pass returns
its gradients in the same type as its parameters.
"""

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


def init_model(config: RunConfig, ch: int, t: int, seed=None) -> ModelParams:
    """All randomness flows from one seed through spawned child streams."""
    config.validate()
    if seed is None:
        seed = config.seed
    children = np.random.SeedSequence(seed).spawn(4)
    seeds = [int(c.generate_state(1)[0]) for c in children]
    dims = ae.AeDims(d=ch * t, e1=config.e1, e2=config.e2, z=config.z)
    return ModelParams(
        ae=ae.init_ae(dims, seeds[0]),
        nsdru=reducer.init_nsdru(config.nsdru_hidden_channels, seeds[1]),
        csie=gru.init_csie(ch // 2, config.h, config.k, seeds[2]),
        head=head_mod.init_head(config.h, seeds[3]),
    )


def model_forward(
    rows: np.ndarray, ch: int, t: int, params: ModelParams,
    output_activation: str = "relu",
) -> ModelTrace:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != ch * t:
        raise ShapeError(
            f"expected (n, {ch * t}) flattened batch for ch={ch}, t={t}, "
            f"got shape {rows.shape}"
        )
    ae_trace = ae.ae_forward(rows, params.ae, output_activation)
    maps = reducer.reshape_to_map(ae_trace.recon, ch, t)
    nsdru_trace = reducer.nsdru_forward(maps, params.nsdru)
    sequence = gru.map_to_sequence(nsdru_trace.act2)
    csie_trace = gru.csie_forward(sequence, params.csie)
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
    output_activation: str = "relu",
) -> ModelParams:
    """Gradients of model_loss, as a ModelParams of gradient arrays."""
    labels = np.asarray(labels, dtype=np.int64)
    n = trace.probs.shape[0]
    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(n), labels] = 1.0
    d_logits = (trace.probs - onehot) / n

    head_grads, d_features = head_mod.head_backward(
        d_logits, trace.csie.aggregate, params.head
    )
    csie_grads, d_seq = gru.csie_backward(trace.csie, d_features, params.csie)
    d_map = gru.sequence_to_map_grad(d_seq)
    nsdru_grads, d_maps = reducer.nsdru_backward(trace.nsdru, d_map, params.nsdru)
    d_recon = d_maps.reshape(n, -1)
    if lambda_recon != 0.0:
        d_recon = d_recon + lambda_recon * 2.0 * (trace.ae.recon - trace.ae.x) / trace.ae.recon.size
    ae_grads = ae.ae_backward(trace.ae, d_recon, params.ae, output_activation)
    return ModelParams(ae=ae_grads, nsdru=nsdru_grads, csie=csie_grads, head=head_grads)


# ---------------------------------------------------------------------------
# Canonical parameter ordering (checkpoints, optimizer state, packing)
# ---------------------------------------------------------------------------

def map_params(fn, params, prefix=None):
    """A copy of `params`' structure in which every array is replaced by
    fn(name, array), called in serialization order.

    `params` is a ModelParams or one stage's parameters (AeParams,
    NsdruParams, CsieParams, HeadParams), of values or of gradients. In a
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


def params_template(k: int) -> ModelParams:
    """The structure of a model with k GRU branches, every array None;
    map_params over it yields the segment names a checkpoint must hold."""
    def empty(cls):
        return cls(**dict.fromkeys(f.name for f in fields(cls)))

    return ModelParams(
        ae=empty(ae.AeParams),
        nsdru=empty(reducer.NsdruParams),
        csie=gru.CsieParams(branches=[empty(gru.GruBranchParams) for _ in range(k)]),
        head=empty(head_mod.HeadParams),
    )


def n_params(params) -> int:
    return sum(arr.size for _, arr in param_segments(params))


def pack_params(params) -> np.ndarray:
    """Concatenate every array into one flat vector (copy)."""
    return np.concatenate([arr.reshape(-1) for _, arr in param_segments(params)])


def unpack_params(theta: np.ndarray, template):
    """Rebuild `template`'s structure and shapes from a flat vector (copy)."""
    theta = np.array(theta, dtype=np.float64).reshape(-1)
    want = n_params(template)
    if theta.size != want:
        raise ShapeError(f"flat vector has {theta.size} entries, model needs {want}")
    cursor = 0

    def take(_, arr):
        nonlocal cursor
        cursor += arr.size
        return theta[cursor - arr.size:cursor].reshape(arr.shape)

    return map_params(take, template)
