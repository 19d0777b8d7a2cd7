"""Analytic parameter and FLOP accounting. The FLOP convention is stated
in every report because published counts are meaningless without one."""

import math

from .config import RunConfig
from .model import config_shapes, param_segments
from .reducer import pooled_grid

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
    """FLOPs for one epoch's forward pass under FLOP_CONVENTION. Widths,
    channel counts, GRU sizes and the branch count come off the declared
    shapes, and the conv grids are the (ch, t) input and the reducer's
    pooled grid, whose columns are the GRU's time steps."""
    config.validate()
    shapes = config_shapes(config, config.ch, config.t)
    grid, pooled = (config.ch, config.t), pooled_grid(config.ch, config.t)
    total = sum(dense_flops(shape[1], shape[0]) for name, shape in param_segments(shapes)
                if name.startswith(("ae.w", "head.w")))
    for (c_out, c_in, kh, kw), (rows, cols) in (
        (shapes.nsdru.conv1_w, grid), (shapes.nsdru.conv2_w, pooled),
    ):
        total += conv_flops(kh, kw, c_in, c_out, rows, cols)
    total += sum(pooled[1] * gru_step_flops(b.w_z[1], b.w_z[0]) for b in shapes.csie.branches)
    return total


def cost_report(config: RunConfig) -> str:
    """The parameter count, the FLOPs and the FLOP convention, one per line."""
    lines = [
        f"trainable_params: {count_params(config)}",
        f"flops_per_inference: {count_flops(config)}",
        f"flop_convention: {FLOP_CONVENTION}",
    ]
    return "\n".join(lines) + "\n"
