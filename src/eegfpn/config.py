"""Run configuration: one flat `key = value` text file covering every
hyperparameter, with defaults for anything unset. Unknown keys are
rejected so typos fail loudly."""

import dataclasses
import math
from dataclasses import dataclass

from .autoencoder import OUTPUT_ACTIVATIONS
from .errors import ConfigError, ParseError
from .model import config_shapes
from .signals import FilterSpec, require_regular_file


@dataclass(frozen=True)
class RunConfig:
    # Input grid used by cost/gradcheck; training reads it off the data.
    ch: int = 8
    t: int = 256
    # Autoencoder widths (input width is ch*t).
    e1: int = 128
    e2: int = 64
    z: int = 32
    # "relu" keeps the reconstruction in [0.5, 1); "linear" frees it.
    ae_output_activation: str = "relu"
    nsdru_hidden_channels: int = 8
    # GRU ensemble: k parallel branches of hidden size h.
    k: int = 6
    h: int = 32
    # Bandpass.
    f_low: float = 0.5
    f_high: float = 30.0
    filter_order: int = 4
    # Objective and optimizer.
    lambda_recon: float = 0.1
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    # Loop control.
    batch_size: int = 16
    max_epochs: int = 200
    split_fraction: float = 0.8
    seed: int = 0

    @property
    def d(self) -> int:
        return self.ch * self.t

    def __post_init__(self):
        if self.ch < 2 or self.t < 4:
            raise ConfigError(f"need ch >= 2 and t >= 4, got ch={self.ch}, t={self.t}")
        config_shapes(self, self.ch, self.t)  # checks every model size
        if self.ae_output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(
                f"ae_output_activation must be one of {OUTPUT_ACTIVATIONS}, "
                f"got {self.ae_output_activation!r}"
            )
        FilterSpec(self.f_low, self.f_high, self.filter_order)  # checks the band
        if not 0 <= self.lambda_recon < math.inf:
            raise ConfigError(f"lambda_recon must be finite and >= 0, got {self.lambda_recon}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(
                f"beta1 and beta2 must lie in [0, 1), got {self.beta1} and {self.beta2}"
            )
        if not 0 < self.adam_epsilon < math.inf:
            raise ConfigError(f"adam_epsilon must be finite and positive, got {self.adam_epsilon}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.split_fraction < 1.0):
            raise ConfigError(
                f"split_fraction must lie in (0, 1), got {self.split_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str, lineno: int):
    kind = _FIELDS[key]
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ParseError(
            f"line {lineno}: cannot parse {raw!r} as {kind.__name__} for key {key!r}"
        ) from None


def parse_config(path: str) -> RunConfig:
    """Read `key = value` lines; '#' comments and blank lines ignored."""
    require_regular_file(path)
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ParseError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key {key!r} (line {lineno})")
            overrides[key] = _parse_value(key, raw, lineno)
    return RunConfig(**overrides)


def format_config(config: RunConfig) -> str:
    """Echo every field as `key = value`, one per line, field order."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"
