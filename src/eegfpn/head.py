"""Two-class prediction layer and the classification metrics."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

N_CLASSES = 2
PROB_FLOOR = 1e-12
METRICS_CSV_HEADER = "subject_id,accuracy,precision,recall,f1"


@dataclass
class HeadParams:
    w: np.ndarray
    b: np.ndarray


def head_shapes(h: int) -> HeadParams:
    """An affine map from h features to the class logits."""
    return HeadParams(w=(N_CLASSES, h), b=(N_CLASSES,))


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


def logits(features: np.ndarray, p: HeadParams) -> np.ndarray:
    """Affine map (n, hidden) -> (n, 2)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.w.shape[1]:
        raise ShapeError(
            f"head expects (n, {p.w.shape[1]}) features, got shape {x.shape}"
        )
    return x @ p.w.T + p.b


def cross_entropy(probs: np.ndarray, labels) -> np.ndarray:
    """Per-sample -ln p[label] over (n, 2) probabilities and n labels,
    probabilities floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or y.shape != (p.shape[0],):
        raise ShapeError(
            f"cross entropy needs (n, classes) probabilities and n labels, "
            f"got shapes {p.shape} and {y.shape}"
        )
    picked = np.maximum(p[np.arange(p.shape[0]), y], PROB_FLOOR)
    return -np.log(picked)


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
