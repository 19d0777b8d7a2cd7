"""Analytic parameter and FLOP accounting. The FLOP convention is stated
in every report because published counts are meaningless without one."""

import math

from .config import RunConfig
from .model import config_shapes, param_segments

FLOP_CONVENTION = (
    "MAC = 2 FLOPs; dense in->out = 2*in*out + out; "
    "conv = 2*kh*kw*cin*cout*hout*wout + cout*hout*wout; "
    "GRU step = 3*(2*f*h + 2*h*h + 2*h) + 9*h elementwise; "
    "activations, pooling, skip adds, branch averaging and softmax uncounted; "
    "model forward only (preprocessing excluded), per single epoch"
)


def dense_flops(n_in: int, n_out: int) -> int:
    return 2 * n_in * n_out + n_out


def conv_flops(kh: int, kw: int, c_in: int, c_out: int, h_out: int, w_out: int) -> int:
    return 2 * kh * kw * c_in * c_out * h_out * w_out + c_out * h_out * w_out


def gru_step_flops(f: int, h: int) -> int:
    return 3 * (2 * f * h + 2 * h * h + 2 * h) + 9 * h


def count_params(config: RunConfig) -> int:
    """Trainable parameter count, from the declared shapes."""
    config.validate()
    shapes = config_shapes(config, config.ch, config.t)
    return sum(math.prod(shape) for _, shape in param_segments(shapes))


def count_flops(config: RunConfig) -> int:
    """FLOPs for one epoch's forward pass under FLOP_CONVENTION."""
    config.validate()
    ch, t, c = config.ch, config.t, config.nsdru_hidden_channels
    f, steps = ch // 2, t // 2
    widths = [config.d, config.e1, config.e2, config.z,
              config.e2, config.e1, config.d]
    total = sum(dense_flops(a, b) for a, b in zip(widths[:-1], widths[1:]))
    total += conv_flops(3, 3, 1, c, ch, t)
    total += conv_flops(3, 3, c, 1, ch // 2, t // 2)
    total += config.k * steps * gru_step_flops(f, config.h)
    total += dense_flops(config.h, 2)
    return total


def cost_report(config: RunConfig) -> str:
    """The parameter count, the FLOPs and the FLOP convention, one per line."""
    lines = [
        f"trainable_params: {count_params(config)}",
        f"flops_per_inference: {count_flops(config)}",
        f"flop_convention: {FLOP_CONVENTION}",
    ]
    return "\n".join(lines) + "\n"
