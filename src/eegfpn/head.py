"""Two-class prediction layer and the classification metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .ops import softmax

N_CLASSES = 2
PROB_FLOOR = 1e-12
METRICS_CSV_HEADER = "subject_id,accuracy,precision,recall,f1"


@dataclass
class HeadParams:
    w: np.ndarray  # (2, hidden)
    b: np.ndarray  # (2,)


@dataclass
class Prediction:
    logits: np.ndarray
    probs: np.ndarray
    label: int


@dataclass
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float


def init_head(hidden_size: int, seed: int) -> HeadParams:
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (hidden_size + N_CLASSES))
    return HeadParams(
        w=rng.uniform(-bound, bound, size=(N_CLASSES, hidden_size)),
        b=np.zeros(N_CLASSES),
    )


def logits(features: np.ndarray, p: HeadParams) -> np.ndarray:
    """Affine map (n, hidden) -> (n, 2); 1-D input returns a 2-vector."""
    x = np.asarray(features, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != p.w.shape[1]:
        raise ShapeError(
            f"head expects width {p.w.shape[1]}, got shape {features.shape}"
        )
    out = x @ p.w.T + p.b
    return out[0] if squeeze else out


def predict(logit_vec: np.ndarray) -> Prediction:
    """Softmax then argmax; ties go to the lowest class index."""
    z = np.asarray(logit_vec, dtype=np.float64).reshape(-1)
    probs = softmax(z)
    return Prediction(logits=z, probs=probs, label=int(np.argmax(probs)))


def predict_batch(logit_rows: np.ndarray):
    """(n, 2) logits -> ((n, 2) probabilities, (n,) class indices)."""
    probs = softmax(np.asarray(logit_rows, dtype=np.float64), axis=-1)
    return probs, np.argmax(probs, axis=-1)


def cross_entropy(probs: np.ndarray, labels) -> np.ndarray:
    """Per-sample -ln p[label], probabilities floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    squeeze = p.ndim == 1
    if squeeze:
        p = p[None, :]
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if y.shape[0] != p.shape[0]:
        raise ShapeError(f"{p.shape[0]} probability rows but {y.shape[0]} labels")
    picked = np.maximum(p[np.arange(p.shape[0]), y], PROB_FLOOR)
    out = -np.log(picked)
    return float(out[0]) if squeeze else out


def head_backward(d_logits: np.ndarray, features: np.ndarray, p: HeadParams):
    """Returns (HeadParams of gradients, d_features)."""
    grads = HeadParams(w=d_logits.T @ features, b=d_logits.sum(axis=0))
    return grads, d_logits @ p.w


def confusion(predictions, labels):
    """Binary confusion counts with class 1 as the positive class."""
    preds = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if preds.shape != y.shape:
        raise ShapeError(
            f"{preds.shape[0]} predictions but {y.shape[0]} labels"
        )
    tp = int(np.sum((preds == 1) & (y == 1)))
    fp = int(np.sum((preds == 1) & (y == 0)))
    tn = int(np.sum((preds == 0) & (y == 0)))
    fn = int(np.sum((preds == 0) & (y == 1)))
    return tp, fp, tn, fn


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(tp: int, fp: int, tn: int, fn: int) -> Metrics:
    """Accuracy/precision/recall/F1; zero-denominator ratios are 0."""
    total = tp + fp + tn + fn
    if total < 1:
        raise ValueError("metrics need at least one counted sample")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return Metrics(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=(tp + tn) / total,
        precision=precision, recall=recall, f1=f1_score(precision, recall),
    )


def metrics_csv_row(subject_id: str, m: Metrics) -> str:
    return (
        f"{subject_id},{m.accuracy:.6f},{m.precision:.6f},"
        f"{m.recall:.6f},{m.f1:.6f}"
    )
