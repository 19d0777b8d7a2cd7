"""EEG epoch handling: bandpass preprocessing, normalization, synthetic
data generation, and the binary epoch file format.

The bandpass realization is a Butterworth design obtained by bilinear
transform with frequency prewarping, factored into stable second-order
sections and applied zero-phase: one forward pass of the whole cascade,
then one pass of it over the time-reversed result, so filtering adds no
group delay. Both passes start from a zero state, with no edge padding.
Up to OPERATOR_MAX_T samples they run as one product with their T x T matrix.
"""

import functools
import math
import os
import stat
import struct
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

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
# Past this length the cascade's loop is faster than the T x T product.
OPERATOR_MAX_T = 1024


def _check_epoch_shape(ch: int, t: int):
    if ch < 1 or t < 4:
        raise ShapeError(f"epoch needs ch >= 1 and t >= 4, got ({ch}, {t})")


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
        _check_epoch_shape(*self.samples.shape)
        if self.label not in (0, 1):
            raise ConfigError(f"label must be 0 or 1, got {self.label}")
        if not (math.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise ConfigError(
                f"sampling_rate must be finite and positive, got {self.sampling_rate}"
            )


@dataclass(frozen=True)
class FilterSpec:
    """Butterworth bandpass description; order counts poles and is even."""

    f_low: float = 0.5
    f_high: float = 30.0
    order: int = 4

    def __post_init__(self):
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


# ---------------------------------------------------------------------------
# Filter design and application
# ---------------------------------------------------------------------------

def design_bandpass(spec: FilterSpec, sampling_rate: float) -> BiquadCascade:
    """Design a Butterworth bandpass as a cascade of stable biquads.

    The analog prototype is prewarped, transformed lowpass->bandpass,
    mapped through the bilinear transform, and normalized to unit gain
    at the (prewarped) center frequency.
    """
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


def _run_cascade(sections: np.ndarray, y: np.ndarray):
    """The cascade along axis 0 (time), in place, forward and then time reversed.

    Each step reads and writes one row of `y`; every operation is
    elementwise, so the result for any one signal does not depend on what
    else is stacked with it."""
    for view in (y, y[::-1]):
        for b0, b1, b2, a1, a2 in sections:
            s1 = s2 = np.zeros(y.shape[1:])
            for n in range(y.shape[0]):
                xn = view[n]
                yn = b0 * xn + s1
                s1 = b1 * xn - a1 * yn + s2
                s2 = b2 * xn - a2 * yn
                view[n] = yn


@functools.lru_cache(maxsize=4)
def _zero_phase_operator(sections: bytes, t: int) -> np.ndarray:
    """The read-only (t, t) matrix M for which x @ M filters x (..., t):
    the cascade run over the columns of the identity, transposed."""
    y = np.eye(t)
    _run_cascade(np.frombuffer(sections).reshape(-1, 5), y)
    op = np.ascontiguousarray(y.T)
    op.setflags(write=False)
    return op


def apply_bandpass(x: np.ndarray, cascade: BiquadCascade) -> np.ndarray:
    """Zero-phase filtering of every signal along the last axis (time).
    Returns a new array: C order up to OPERATOR_MAX_T samples, else time-major."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("samples contain non-finite values")
    if x.shape[-1] <= OPERATOR_MAX_T:
        return x @ _zero_phase_operator(cascade.sections.tobytes(), x.shape[-1])
    # A time-major copy, so each step of the cascade reads one contiguous row.
    y = np.moveaxis(x, -1, 0).copy()
    _run_cascade(cascade.sections, y)
    return np.moveaxis(y, 0, -1)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def minmax_normalize(x: np.ndarray) -> np.ndarray:
    """Scale each signal along the last axis (time) into [0,1]; a
    zero-range signal maps to 0.5."""
    lo = x.min(axis=-1, keepdims=True)
    span = x.max(axis=-1, keepdims=True) - lo
    flat = span[..., 0] == 0.0
    span[flat] = 1.0
    # C order whatever the input's layout, so rows reshape without a copy.
    y = np.subtract(x, lo, order="C")
    y /= span
    y[flat] = 0.5
    return y


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
    noise at the requested SNR (inf for noise-free tones).

    Samples are quantized to float32 resolution so epoch files round-trip
    bit-exactly. Deterministic for a given seed.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    _check_epoch_shape(ch, t)
    try:
        ratio = 10.0 ** (snr_db / 10.0)  # tone-to-noise power
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf or snr_db == math.inf):
        raise ConfigError(
            f"snr_db must be inf or give a finite, non-zero noise level, got {snr_db}"
        )
    rng = np.random.default_rng(seed)
    noise_std = SYNTH_AMPLITUDE_UV / math.sqrt(2.0 * ratio)
    times = np.arange(t) / sampling_rate
    epochs = []
    for label, tone in ((0, CLASS0_TONE_HZ), (1, CLASS1_TONE_HZ)):
        for _ in range(n_per_class):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=(ch, 1))
            clean = SYNTH_AMPLITUDE_UV * np.sin(2.0 * math.pi * tone * times[None, :] + phases)
            noisy = clean + noise_std * rng.standard_normal((ch, t))
            if np.abs(noisy).max() > np.finfo(np.float32).max:
                raise ConfigError(f"snr_db {snr_db} gives samples beyond float32's range")
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


def atomic_write(path: str, *chunks):
    """Write the bytes-like `chunks`, in order, to `path` through a
    uniquely named temp file in the same directory, so a reader sees the
    old file or the new one, never a partial one. The temp file is
    removed if the write fails."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=f".{os.path.basename(path)}.", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def require_regular_file(path: str):
    """Reject anything but a regular file: opening a named pipe would wait
    for a writer, and readers take sizes from the file system."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise FormatError(f"{path}: must be a regular file")


@contextmanager
def bounded_reader(path: str):
    """Open `path`, a regular file, and yield take(n, what, make=bytearray):
    the next n bytes, read into make(n) only once the file is known to
    hold them, so no declared size allocates before it is checked; a
    short read is a truncation too. Bytes left unread at the end of the
    block are an error."""
    require_regular_file(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str, make=bytearray):
            offset = fh.tell()
            if n <= size - offset:
                out = make(n)
                if fh.readinto(out) == n:
                    return out
            raise FormatError(f"{path}: truncated while reading {what} at offset {offset}")

        yield take
        end = fh.tell()
    if end != size:
        raise FormatError(f"{path}: {size - end} trailing bytes at offset {end}")


def write_epoch_file(epoch: Epoch, path: str):
    subject = epoch.subject_id.encode("utf-8")
    if len(subject) > 15:
        raise FormatError(f"{path}: subject_id {epoch.subject_id!r} exceeds 15 bytes")
    try:
        header = _HEADER.pack(
            EPOCH_MAGIC, EPOCH_VERSION, *epoch.samples.shape,
            float(epoch.sampling_rate), epoch.label, subject,
        )
    except OverflowError:
        header = None
    # A rate beyond float32's range cannot be packed; one below it packs as 0.
    if header is None or _HEADER.unpack(header)[4] == 0.0:
        raise FormatError(
            f"{path}: sampling_rate {epoch.sampling_rate} does not fit the header's float32"
        )
    # Channel-major whatever the layout (`filter` gives time-major samples past OPERATOR_MAX_T).
    atomic_write(path, header, np.ascontiguousarray(epoch.samples, dtype="<f4"))


def read_epoch_file(path: str) -> Epoch:
    with bounded_reader(path) as take:
        magic, version, ch, t, fs, label, subject = _HEADER.unpack(take(_HEADER.size, "header"))
        if magic != EPOCH_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
        if version != EPOCH_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at offset 4")
        payload = take(ch * t * 4, "payload")
    try:
        subject_id = subject.rstrip(b"\x00").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: subject id at offset 21 is not UTF-8: {exc}") from None
    # One more copy of the payload, kept on purpose: without it (reading
    # the samples out of the bytearray) the peak RSS of an `eval` over 64
    # 128-channel epochs is about 14 MB (7%) higher, through glibc's heap.
    samples = np.frombuffer(bytes(payload), dtype="<f4").astype(np.float64)
    try:
        return Epoch(samples.reshape(ch, t), float(fs), int(label), subject_id)
    except (ConfigError, ShapeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_manifest(path: str, names: list):
    text = "".join(f"{name}\n" for name in names)
    atomic_write(path, text.encode("utf-8"))


def read_manifest(path: str) -> list:
    """Relative epoch-file paths, resolved against the manifest directory."""
    require_regular_file(path)
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
