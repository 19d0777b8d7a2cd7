"""Independent checks of the program's outputs.

Nothing here calls eegfpn's kernels. The filter is checked against
scipy's Butterworth design and `sosfilt`; the model against a forward
pass written from the algebra in the package's module docstrings, in
plain numpy plus `scipy.signal.correlate2d`. Files are read with parsers
of the documented EEG1 and CFPN layouts written here.
"""

import struct

import numpy as np

_EEG1 = struct.Struct("<4sIIIfB15s")


def read_eeg1(path):
    """(samples (ch, t) float64, fs, label, subject) from an EEG1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, ch, t, fs, label, subject = _EEG1.unpack_from(blob, 0)
    if magic != b"EEG1" or version != 1:
        raise ValueError(f"{path}: not an EEG1 v1 file")
    samples = np.frombuffer(blob, dtype="<f4", count=ch * t, offset=_EEG1.size)
    return (samples.astype(np.float64).reshape(ch, t), float(fs), int(label),
            subject.rstrip(b"\x00").decode("utf-8"))


def read_cfpn(path) -> dict:
    """{segment name: float64 array} from a CFPN v1 checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, count = struct.unpack_from("<4sII", blob, 0)
    if magic != b"CFPN" or version != 1:
        raise ValueError(f"{path}: not a CFPN v1 file")
    offset, out = 12, {}
    for _ in range(count):
        n = blob[offset]
        name = blob[offset + 1:offset + 1 + n].decode("ascii")
        offset += 1 + n
        (rank,) = struct.unpack_from("<I", blob, offset)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 4)
        offset += 4 + 4 * rank
        size = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(blob, "<f8", size, offset).reshape(dims)
        offset += 8 * size
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return out


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def as_sos(sections) -> np.ndarray:
    """Program rows (b0, b1, b2, a1, a2) as scipy sos rows."""
    s = np.asarray(sections, dtype=np.float64)
    return np.column_stack([s[:, :3], np.ones(len(s)), s[:, 3:]])


def design_gap(sections, f_low, f_high, order, fs) -> float:
    """Largest magnitude-response gap to scipy's Butterworth bandpass of the
    same total order, over 2048 frequencies from 0 to Nyquist."""
    from scipy import signal

    ref = signal.butter(order // 2, [f_low, f_high], "bandpass", fs=fs, output="sos")
    _, h_ref = signal.sosfreqz(ref, worN=2048, fs=fs)
    _, h_prog = signal.sosfreqz(as_sos(sections), worN=2048, fs=fs)
    return float(np.max(np.abs(np.abs(h_prog) - np.abs(h_ref))))


def preprocess(samples, sections) -> np.ndarray:
    """Zero-phase cascade (sosfilt forward, then over the reversed signal)
    and per-channel min-max scaling, flattened channel-major."""
    from scipy import signal

    sos = as_sos(sections)
    y = signal.sosfilt(sos, samples, axis=1)
    y = signal.sosfilt(sos, y[:, ::-1], axis=1)[:, ::-1]
    lo = y.min(axis=1, keepdims=True)
    span = y.max(axis=1, keepdims=True) - lo
    scaled = np.where(span > 0, (y - lo) / np.where(span > 0, span, 1.0), 0.5)
    return scaled.reshape(-1)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_forward(rows, ch, t, seg, output_activation="relu") -> np.ndarray:
    """Class probabilities (n, 2) for flattened preprocessed rows."""
    from scipy.signal import correlate2d
    from scipy.special import expit

    relu = lambda v: np.maximum(v, 0.0)  # noqa: E731

    def dense(x, i):
        return x @ seg[f"ae.w{i}"].T + seg[f"ae.b{i}"]

    # Autoencoder: three ReLU encoder layers, decoder with additive skips.
    enc1 = relu(dense(rows, 1))
    enc2 = relu(dense(enc1, 2))
    latent = relu(dense(enc2, 3))
    dec1 = relu(dense(latent, 4)) + enc2
    dec2 = relu(dense(dec1, 5)) + enc1
    pre = dense(dec2, 6)
    recon = expit(relu(pre) if output_activation == "relu" else pre)

    # Reducer: conv 3x3 same, ReLU, 2x2 max pool, conv 3x3 same, ReLU.
    maps = recon.reshape(-1, ch, t)
    w1, b1 = seg["nsdru.conv1_w"], seg["nsdru.conv1_b"]
    w2, b2 = seg["nsdru.conv2_w"], seg["nsdru.conv2_b"]
    n, c = maps.shape[0], w1.shape[0]
    act1 = np.empty((n, c, ch, t))
    for i in range(n):
        for o in range(c):
            act1[i, o] = relu(correlate2d(maps[i], w1[o, 0], mode="same") + b1[o])
    h2, t2 = ch // 2, t // 2
    pooled = act1[:, :, :2 * h2, :2 * t2].reshape(n, c, h2, 2, t2, 2).max(axis=(3, 5))
    act2 = np.empty((n, h2, t2))
    for i in range(n):
        acc = sum(correlate2d(pooled[i, j], w2[0, j], mode="same") for j in range(c))
        act2[i] = relu(acc + b2[0])

    # GRU ensemble over the compressed time axis; features are rows.
    seq = act2.transpose(0, 2, 1)
    finals = []
    k = 0
    while f"gru{k}.w_z" in seg:
        g = {name: seg[f"gru{k}.{name}"] for name in
             ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")}
        h = np.zeros((n, g["u_z"].shape[0]))
        for step in range(seq.shape[1]):
            x = seq[:, step]
            z = expit(x @ g["w_z"].T + h @ g["u_z"].T + g["b_z"])
            r = expit(x @ g["w_r"].T + h @ g["u_r"].T + g["b_r"])
            cand = np.tanh(x @ g["w_h"].T + (r * h) @ g["u_h"].T + g["b_h"])
            h = (1.0 - z) * h + z * cand
        finals.append(h)
        k += 1
    features = np.mean(finals, axis=0)
    return _softmax(features @ seg["head.w"].T + seg["head.b"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def subject_metrics_rows(preds, labels, subjects) -> list:
    """Per-subject CSV rows `subject,accuracy,precision,recall,f1`, class 1
    positive, sorted by subject; zero-denominator ratios are 0."""
    preds, labels, subjects = map(np.asarray, (preds, labels, subjects))
    rows = []
    for subject in sorted(set(subjects.tolist())):
        p, y = preds[subjects == subject], labels[subjects == subject]
        tp = int(np.sum((p == 1) & (y == 1)))
        fp = int(np.sum((p == 1) & (y == 0)))
        fn = int(np.sum((p == 0) & (y == 1)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        accuracy = float(np.mean(p == y))
        rows.append(f"{subject},{accuracy:.6f},{precision:.6f},{recall:.6f},{f1:.6f}")
    return rows
