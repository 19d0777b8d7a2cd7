"""EEG epoch handling: bandpass preprocessing, normalization, flattening,
synthetic data generation, and the binary epoch file format.

The bandpass realization is a Butterworth design obtained by bilinear
transform with frequency prewarping, factored into stable second-order
sections and applied zero-phase (forward, reverse, forward, reverse) so
filtering adds no group delay.
"""

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, NumericError, ShapeError

# Synthetic class tones sit inside the theta and beta EEG bands so the
# default 0.5-30 Hz filter passes both.
CLASS0_TONE_HZ = 6.0
CLASS1_TONE_HZ = 20.0
SYNTH_AMPLITUDE_UV = 10.0

EPOCH_MAGIC = b"EEG1"
EPOCH_VERSION = 1
_HEADER = struct.Struct("<4sIIIfB15s")


@dataclass
class Epoch:
    """One labeled EEG segment: a (channels x time) sample matrix."""

    samples: np.ndarray
    sampling_rate: float
    label: int
    subject_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise ShapeError(f"epoch samples must be 2-D (ch, t), got {self.samples.shape}")
        ch, t = self.samples.shape
        if ch < 1 or t < 4:
            raise ShapeError(f"epoch needs ch >= 1 and t >= 4, got ({ch}, {t})")
        if self.label not in (0, 1):
            raise ConfigError(f"label must be 0 or 1, got {self.label}")
        if self.sampling_rate <= 0:
            raise ConfigError(f"sampling_rate must be positive, got {self.sampling_rate}")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class FilterSpec:
    """Butterworth bandpass description; order counts poles and is even."""

    f_low: float = 0.5
    f_high: float = 30.0
    order: int = 4

    def validate(self):
        if not (0.0 < self.f_low < self.f_high):
            raise ConfigError(
                f"cutoffs must satisfy 0 < f_low < f_high, got ({self.f_low}, {self.f_high})"
            )
        if self.order < 2 or self.order % 2 != 0:
            raise ConfigError(f"filter order must be an even positive integer, got {self.order}")


@dataclass
class BiquadCascade:
    """Second-order sections, each row (b0, b1, b2, a1, a2)."""

    sections: np.ndarray

    def poles(self) -> np.ndarray:
        """All denominator roots of the cascade."""
        roots = [np.roots([1.0, a1, a2]) for _, _, _, a1, a2 in self.sections]
        return np.concatenate(roots)


@dataclass
class FlatFeatures:
    """Epoch batch flattened row-wise; column index = channel*t + sample."""

    rows: np.ndarray
    ch: int
    t: int
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# Filter design and application
# ---------------------------------------------------------------------------

def design_bandpass(spec: FilterSpec, sampling_rate: float) -> BiquadCascade:
    """Design a Butterworth bandpass as a cascade of stable biquads.

    The analog prototype is prewarped, transformed lowpass->bandpass,
    mapped through the bilinear transform, and normalized to unit gain
    at the (prewarped) center frequency.
    """
    spec.validate()
    nyquist = sampling_rate / 2.0
    if spec.f_high >= nyquist:
        raise ConfigError(
            f"f_high={spec.f_high} Hz violates the Nyquist limit {nyquist} Hz at fs={sampling_rate}"
        )
    n_proto = spec.order // 2
    fs2 = 2.0 * sampling_rate
    w_low = fs2 * math.tan(math.pi * spec.f_low / sampling_rate)
    w_high = fs2 * math.tan(math.pi * spec.f_high / sampling_rate)
    bw = w_high - w_low
    w_center = math.sqrt(w_low * w_high)

    def bandpass_pair(proto_pole: complex):
        # Roots of s^2 - bw*p*s + w_center^2 = 0.
        bp = bw * proto_pole
        disc = np.sqrt(np.complex128(bp * bp - 4.0 * w_center * w_center))
        return (bp + disc) / 2.0, (bp - disc) / 2.0

    def bilinear(s: complex) -> complex:
        return (fs2 + s) / (fs2 - s)

    den_sections = []
    for k in range(n_proto):
        theta = math.pi * (2 * k + n_proto + 1) / (2 * n_proto)
        proto = complex(math.cos(theta), math.sin(theta))
        if proto.imag <= 1e-12:
            continue
        for s_pole in bandpass_pair(proto):
            z = bilinear(s_pole)
            den_sections.append((-2.0 * z.real, abs(z) ** 2))
    if n_proto % 2 == 1:
        z1, z2 = (bilinear(s) for s in bandpass_pair(-1.0 + 0.0j))
        den_sections.append((-(z1 + z2).real, (z1 * z2).real))

    for a1, a2 in den_sections:
        radii = np.abs(np.roots([1.0, a1, a2]))
        if radii.max() >= 1.0:
            raise NumericError(f"unstable section produced (pole radius {radii.max():.6f})")

    # Normalize the cascade to unit magnitude at the prewarped center.
    theta_c = 2.0 * math.atan(w_center / fs2)
    zc = complex(math.cos(theta_c), math.sin(theta_c))
    response = 1.0 + 0.0j
    for a1, a2 in den_sections:
        response *= (zc * zc - 1.0) / (zc * zc + a1 * zc + a2)
    gain = (1.0 / abs(response)) ** (1.0 / len(den_sections))
    sections = np.array([[gain, 0.0, -gain, a1, a2] for a1, a2 in den_sections])
    return BiquadCascade(sections=sections)


def freq_response(cascade: BiquadCascade, freqs_hz, sampling_rate: float) -> np.ndarray:
    """Complex cascade response at the given frequencies (Hz)."""
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, dtype=np.float64) / sampling_rate)
    h = np.ones_like(z, dtype=np.complex128)
    for b0, b1, b2, a1, a2 in cascade.sections:
        h *= (b0 * z * z + b1 * z + b2) / (z * z + a1 * z + a2)
    return h


def _run_cascade(sections: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single forward pass of the cascade over axis 1 (time), per channel."""
    y = x
    n_ch, n_t = x.shape
    for b0, b1, b2, a1, a2 in sections:
        out = np.empty_like(y)
        s1 = np.zeros(n_ch)
        s2 = np.zeros(n_ch)
        for n in range(n_t):
            xn = y[:, n]
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            out[:, n] = yn
        y = out
    return y


def apply_bandpass(epoch: Epoch, cascade: BiquadCascade) -> Epoch:
    """Zero-phase filtering of every channel; metadata is preserved."""
    x = epoch.samples
    if not np.all(np.isfinite(x)):
        raise NumericError("epoch contains non-finite samples")
    y = _run_cascade(cascade.sections, x)
    y = _run_cascade(cascade.sections, y[:, ::-1])[:, ::-1]
    return Epoch(
        samples=y,
        sampling_rate=epoch.sampling_rate,
        label=epoch.label,
        subject_id=epoch.subject_id,
    )


# ---------------------------------------------------------------------------
# Normalization and flattening
# ---------------------------------------------------------------------------

def minmax_normalize(epoch: Epoch) -> Epoch:
    """Scale each channel into [0,1]; a zero-range channel maps to 0.5."""
    x = epoch.samples
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    span = hi - lo
    flat = span[:, 0] == 0.0
    span[flat] = 1.0
    y = (x - lo) / span
    y[flat] = 0.5
    return Epoch(
        samples=y,
        sampling_rate=epoch.sampling_rate,
        label=epoch.label,
        subject_id=epoch.subject_id,
    )


def flatten(epochs: list) -> FlatFeatures:
    """Stack epochs into an (n, ch*t) matrix, channel-major per row."""
    if not epochs:
        raise ShapeError("flatten needs at least one epoch")
    ch, t = epochs[0].samples.shape
    for i, ep in enumerate(epochs):
        if ep.samples.shape != (ch, t):
            raise ShapeError(
                f"epoch {i} has shape {ep.samples.shape}, expected ({ch}, {t})"
            )
    rows = np.stack([ep.samples.reshape(-1) for ep in epochs])
    labels = np.array([ep.label for ep in epochs], dtype=np.int64)
    return FlatFeatures(rows=rows, ch=ch, t=t, labels=labels)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(
    n_per_class: int,
    ch: int,
    t: int,
    sampling_rate: float,
    snr_db: float,
    seed: int,
    subject_id: str = "synth",
) -> list:
    """Balanced two-class dataset: 6 Hz tone epochs (label 0) and 20 Hz
    tone epochs (label 1), each channel with random phase plus white
    noise at the requested SNR.

    Samples are quantized to float32 resolution so epoch files round-trip
    bit-exactly. Deterministic for a given seed.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng(seed)
    noise_std = SYNTH_AMPLITUDE_UV / math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
    times = np.arange(t) / sampling_rate
    epochs = []
    for label, tone in ((0, CLASS0_TONE_HZ), (1, CLASS1_TONE_HZ)):
        for _ in range(n_per_class):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=(ch, 1))
            clean = SYNTH_AMPLITUDE_UV * np.sin(2.0 * math.pi * tone * times[None, :] + phases)
            noisy = clean + noise_std * rng.standard_normal((ch, t))
            samples = noisy.astype(np.float32).astype(np.float64)
            epochs.append(
                Epoch(samples=samples, sampling_rate=float(sampling_rate),
                      label=label, subject_id=subject_id)
            )
    return epochs


# ---------------------------------------------------------------------------
# Epoch file format
# ---------------------------------------------------------------------------
# Little-endian: magic "EEG1", u32 version=1, u32 ch, u32 t,
# f32 sampling_rate, u8 label, 15 bytes NUL-padded subject id, then
# ch*t float32 samples in channel-major order.

# mkstemp creates its file with mode 0600; a finished file gets the mode
# that a plain open() would have given it under the process umask.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str, payload: bytes):
    """Write `payload` to `path` through a uniquely named temp file in the
    same directory, so a reader sees the old file or the new one, never a
    partial one. The temp file is removed if the write fails."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=f".{os.path.basename(path)}.", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_epoch_file(epoch: Epoch, path: str):
    subject = epoch.subject_id.encode("utf-8")
    if len(subject) > 15:
        raise FormatError(f"subject_id {epoch.subject_id!r} exceeds 15 bytes")
    header = _HEADER.pack(
        EPOCH_MAGIC,
        EPOCH_VERSION,
        epoch.n_channels,
        epoch.n_samples,
        float(epoch.sampling_rate),
        epoch.label,
        subject,
    )
    body = epoch.samples.astype("<f4").tobytes(order="C")
    atomic_write(path, header + body)


def read_epoch_file(path: str) -> Epoch:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header at offset {len(blob)}")
    magic, version, ch, t, fs, label, subject = _HEADER.unpack_from(blob, 0)
    if magic != EPOCH_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != EPOCH_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    expected = ch * t * 4
    payload = blob[_HEADER.size:]
    if len(payload) < expected:
        raise FormatError(
            f"{path}: truncated payload at offset {_HEADER.size}: "
            f"expected {expected} bytes, found {len(payload)}"
        )
    samples = np.frombuffer(payload[:expected], dtype="<f4").astype(np.float64)
    return Epoch(
        samples=samples.reshape(ch, t),
        sampling_rate=float(fs),
        label=int(label),
        subject_id=subject.rstrip(b"\x00").decode("utf-8"),
    )


def write_manifest(path: str, names: list):
    text = "".join(f"{name}\n" for name in names)
    atomic_write(path, text.encode("utf-8"))


def read_manifest(path: str) -> list:
    """Relative epoch-file paths, resolved against the manifest directory."""
    base = os.path.dirname(os.path.abspath(path))
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            out.append(os.path.join(base, entry))
    return out


def load_dataset(manifest_path: str) -> list:
    return [read_epoch_file(p) for p in read_manifest(manifest_path)]
