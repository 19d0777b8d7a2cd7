"""Run configuration: one flat `key = value` text file covering every
hyperparameter, with defaults for anything unset. Unknown keys are
rejected so typos fail loudly."""

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError, ParseError


@dataclass
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

    def validate(self):
        if self.ch < 2 or self.t < 4:
            raise ConfigError(f"need ch >= 2 and t >= 4, got ch={self.ch}, t={self.t}")
        if not (self.e1 >= self.e2 >= self.z >= 1):
            raise ConfigError(
                f"widths must satisfy e1 >= e2 >= z >= 1, got {self.e1}/{self.e2}/{self.z}"
            )
        if self.ae_output_activation not in ("relu", "linear"):
            raise ConfigError(
                f"ae_output_activation must be relu or linear, got {self.ae_output_activation!r}"
            )
        if self.nsdru_hidden_channels < 1:
            raise ConfigError(f"nsdru_hidden_channels must be >= 1, got {self.nsdru_hidden_channels}")
        if self.k < 1 or self.h < 1:
            raise ConfigError(f"need k >= 1 and h >= 1, got k={self.k}, h={self.h}")
        if self.lambda_recon < 0:
            raise ConfigError(f"lambda_recon must be >= 0, got {self.lambda_recon}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.split_fraction < 1.0):
            raise ConfigError(
                f"split_fraction must lie in (0, 1), got {self.split_fraction}"
            )
        return self


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
    return RunConfig(**overrides).validate()


def format_config(config: RunConfig) -> str:
    """Echo every field as `key = value`, one per line, field order."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"
