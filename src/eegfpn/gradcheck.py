"""Finite-difference verification harnesses for each stage and for the
whole pipeline, all built on grad_check. The CLI's gradcheck command
and the test suite share these so there is exactly one definition of
what "gradients verified" means."""

import numpy as np

from . import autoencoder as ae
from . import gru
from . import reducer
from .config import RunConfig
from .errors import NumericError, ShapeError
from .model import (
    init_model,
    init_params,
    model_backward,
    model_forward,
    model_loss,
    pack_params,
    param_segments,
    unpack_params,
)

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


def grad_check(params, loss_of, grads_of, epsilon: float = 1e-5) -> float:
    """Compare the analytic gradient of every array of `params` against
    central finite differences, parameter by parameter in segment order.

    `loss_of(p) -> float` must be deterministic; `grads_of(p)` returns the
    analytic gradients in p's type. Both take parameters of params' type.
    Returns the worst per-element relative error,
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    theta = pack_params(params)
    analytic = pack_params(grads_of(unpack_params(theta, params)))
    if analytic.shape != theta.shape:
        raise ShapeError(
            f"analytic gradient shape {analytic.shape} differs from parameters {theta.shape}"
        )
    worst = 0.0
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + epsilon
        f_plus = float(loss_of(unpack_params(bumped, params)))
        bumped[i] = theta[i] - epsilon
        f_minus = float(loss_of(unpack_params(bumped, params)))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"loss is non-finite near parameter index {i}")
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        a = analytic[i]
        worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def _check_mse(params, target, forward, output, backward) -> float:
    """grad_check of the MSE between `forward(p)`'s `output` attribute and
    `target`; `backward(trace, upstream, p)` returns the gradients."""
    def loss_of(p):
        return float(np.mean((getattr(forward(p), output) - target) ** 2))

    def grads_of(p):
        trace = forward(p)
        return backward(trace, 2.0 * (getattr(trace, output) - target) / target.size, p)

    return grad_check(params, loss_of, grads_of)


def check_autoencoder(seed: int, output_activation: str = "relu") -> float:
    """MSE reconstruction loss through encoder, skips and decoder."""
    rng = np.random.default_rng(seed)
    params = init_params(ae.ae_shapes(12, 8, 6, 3), seed)
    _jitter(params, rng)
    x = rng.uniform(0.0, 1.0, size=(4, 12))
    target = rng.uniform(0.0, 1.0, size=(4, 12))
    return _check_mse(
        params, target, lambda p: ae.ae_forward(x, p, output_activation), "recon",
        ae.ae_backward,
    )


def check_nsdru(seed: int) -> float:
    """MSE against a fixed target after conv/pool/conv."""
    rng = np.random.default_rng(seed)
    params = init_params(reducer.nsdru_shapes(8), seed)
    _jitter(params, rng)
    x = rng.uniform(0.0, 1.0, size=(1, 1, 4, 6))
    target = rng.normal(size=(1, 1, 2, 3))
    return _check_mse(
        params, target, lambda p: reducer.nsdru_forward(x, p), "act2",
        lambda trace, up, p: reducer.nsdru_backward(trace, up, p)[0],
    )


def check_csie(seed: int) -> float:
    """MSE on the branch-averaged final state, T=3 steps."""
    rng = np.random.default_rng(seed)
    params = init_params(gru.csie_shapes(f=2, h=4, k=2), seed)
    sequence = rng.normal(size=(2, 3, 2))
    target = rng.normal(size=(2, 4))
    return _check_mse(
        params, target, lambda p: gru.csie_forward(sequence, p), "aggregate",
        lambda trace, up, p: gru.csie_backward(trace, up, p)[0],
    )


def check_full_pipeline(seed: int) -> float:
    """Joint loss (cross-entropy + weighted reconstruction MSE) against
    every trainable parameter at once, on toy_config()."""
    config = toy_config()
    rng = np.random.default_rng(seed)
    params = init_model(config, config.ch, config.t, seed=seed)
    _jitter(params, rng)
    rows = rng.uniform(0.0, 1.0, size=(4, config.d))
    labels = np.array([0, 1, 1, 0])

    def forward(p):
        return model_forward(rows, config.ch, config.t, p, config.ae_output_activation)

    return grad_check(
        params,
        lambda p: model_loss(forward(p), labels, config.lambda_recon),
        lambda p: model_backward(forward(p), labels, p, config.lambda_recon),
        epsilon=FULL_PIPELINE_EPSILON,
    )


def run_suite(seed: int):
    """All four harnesses; {stage: worst relative error}."""
    return {
        "autoencoder": check_autoencoder(seed),
        "nsdru": check_nsdru(seed),
        "csie": check_csie(seed),
        "full_pipeline": check_full_pipeline(seed),
    }
