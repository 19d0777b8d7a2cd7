"""Training and evaluation harness: preprocessing, stratified split,
mini-batch Adam on the joint objective (cross-entropy plus weighted
reconstruction MSE), best-checkpoint retention, and embedding export.

Everything downstream of the single config seed is deterministic: the
split, the initialization, and the batch order all come from spawned
child streams of that seed, and gradient accumulation follows a fixed
index order.
"""

from dataclasses import dataclass, field

import numpy as np

from . import head as head_mod
from .config import RunConfig
from .errors import ConfigError, NumericError, ShapeError
from .model import (
    ModelParams,
    init_model,
    model_backward,
    model_forward,
    model_loss,
    n_params,
    pack_params,
    param_segments,
    unpack_params,
)
from .signals import FilterSpec, apply_bandpass, design_bandpass, minmax_normalize

HISTORY_CSV_HEADER = "epoch,train_loss,val_loss,val_accuracy"


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)

    def csv(self) -> str:
        lines = [HISTORY_CSV_HEADER]
        rows = zip(self.train_loss, self.val_loss, self.val_accuracy)
        for epoch, (tl, vl, va) in enumerate(rows, start=1):
            lines.append(f"{epoch},{tl:.10f},{vl:.10f},{va:.10f}")
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    params: ModelParams
    history: TrainHistory
    best_epoch: int
    best_val_accuracy: float
    ch: int
    t: int


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def preprocess(epochs, config: RunConfig):
    """Bandpass -> per-channel min-max -> flatten. Returns (rows, labels,
    ch, t); all epochs must agree on grid and sampling rate."""
    if not epochs:
        raise ConfigError("dataset is empty")
    fs = epochs[0].sampling_rate
    shape = epochs[0].samples.shape
    for i, ep in enumerate(epochs):
        if ep.sampling_rate != fs:
            raise ConfigError(
                f"epoch {i} sampled at {ep.sampling_rate} Hz, expected {fs} Hz"
            )
        if ep.samples.shape != shape:
            raise ShapeError(
                f"epoch {i} has grid {ep.samples.shape}, expected {shape}"
            )
    cascade = design_bandpass(
        FilterSpec(config.f_low, config.f_high, config.filter_order), fs
    )
    # Nothing holds the stacked input past the filter, so at most two
    # (n, ch, t) arrays are alive at once.
    cleaned = minmax_normalize(
        apply_bandpass(np.stack([ep.samples for ep in epochs]), cascade)
    )
    labels = np.array([ep.label for ep in epochs], dtype=np.int64)
    ch, t = shape
    return cleaned.reshape(len(epochs), ch * t), labels, ch, t


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Both moments over the flat parameter vector, the step count, and
    two vectors each step reuses: the packed gradient and a temporary."""
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    step: int = 0


def init_adam(size: int) -> AdamState:
    return AdamState(m=np.zeros(size), v=np.zeros(size), scratch=np.empty((2, size)))


def adam_step(
    theta: np.ndarray, grads: ModelParams, state: AdamState,
    lr: float, beta1: float, beta2: float, epsilon: float,
):
    """One bias-corrected Adam update, in place over the flat vector
    `theta`, after the gradients are packed and checked. Each element sees
    the operations of the plain `m = b1*m + (1-b1)*g`, `v = b2*v +
    (1-b2)*g*g`, `theta -= lr*m_hat / (sqrt(v_hat) + eps)` in their order."""
    segments = param_segments(grads)
    size = n_params(grads)
    if size != theta.size:
        raise ShapeError(f"gradients have {size} entries, parameters {theta.size}")
    g, tmp = state.scratch
    np.concatenate([arr.reshape(-1) for _, arr in segments], out=g)
    if not np.isfinite(g).all():
        name = next(name for name, arr in segments if not np.isfinite(arr).all())
        raise NumericError(f"non-finite gradient in segment {name!r}")
    state.step += 1
    m, v = state.m, state.v
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=tmp)
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.divide(m, 1.0 - beta1 ** state.step, out=tmp)
    tmp *= lr
    np.divide(v, 1.0 - beta2 ** state.step, out=g)
    np.sqrt(g, out=g)
    g += epsilon
    theta -= np.divide(tmp, g, out=tmp)


# ---------------------------------------------------------------------------
# Split and loop
# ---------------------------------------------------------------------------

def stratified_split(labels: np.ndarray, fraction: float, rng: np.random.Generator):
    """Seeded per-class shuffle; class ratio preserved within one sample.
    Returns (train_idx, val_idx)."""
    labels = np.asarray(labels)
    train_parts, val_parts = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(idx.size * fraction))
        n_train = min(max(n_train, 1), idx.size - 1) if idx.size >= 2 else idx.size
        train_parts.append(idx[:n_train])
        val_parts.append(idx[n_train:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(val_parts))


def _per_batch(rows, ch, t, params, config, keep, batch_size=64):
    """`keep(trace, start)` for each batch of rows, in order, from forwards
    that keep no backward trace. Only what `keep` returns outlives a batch,
    so no batch's activations are alive while the next batch's forward runs."""
    return [
        keep(model_forward(rows[start:start + batch_size], ch, t, params,
                           config.ae_output_activation, keep_trace=False), start)
        for start in range(0, rows.shape[0], batch_size)
    ]


def _dataset_loss_and_accuracy(rows, labels, ch, t, params, config):
    def score(trace, start):
        y = labels[start:start + trace.probs.shape[0]]
        return (model_loss(trace, y, config.lambda_recon) * y.shape[0],
                int(np.sum(np.argmax(trace.probs, axis=-1) == y)))

    losses, hits, n = 0.0, 0, rows.shape[0]
    for loss, hit in _per_batch(rows, ch, t, params, config, score):
        losses += loss
        hits += hit
    return losses / n, hits / n


def train(config: RunConfig, epochs) -> TrainResult:
    """Full training run over a list of labeled epochs."""
    rows, labels, ch, t = preprocess(epochs, config)
    if np.unique(labels).size < 2:
        raise ConfigError("training needs both classes present in the dataset")

    root = np.random.SeedSequence(config.seed)
    split_seq, init_seq, batch_seq = root.spawn(3)
    split_rng = np.random.default_rng(split_seq)
    batch_rng = np.random.default_rng(batch_seq)
    train_idx, val_idx = stratified_split(labels, config.split_fraction, split_rng)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ConfigError(
            f"split produced {train_idx.size} train / {val_idx.size} val samples"
        )

    params = init_model(config, ch, t, seed=int(init_seq.generate_state(1)[0]))
    theta = pack_params(params)
    params = unpack_params(theta, params)  # views: Adam's updates show through
    state = init_adam(theta.size)
    history = TrainHistory()
    best = None  # (accuracy, epoch, copy of theta)

    x_train, y_train = rows[train_idx], labels[train_idx]
    x_val, y_val = rows[val_idx], labels[val_idx]
    for epoch in range(1, config.max_epochs + 1):
        order = batch_rng.permutation(x_train.shape[0])
        running, seen = 0.0, 0
        for start in range(0, order.size, config.batch_size):
            take = order[start:start + config.batch_size]
            batch, y = x_train[take], y_train[take]
            trace = model_forward(batch, ch, t, params, config.ae_output_activation)
            loss = model_loss(trace, y, config.lambda_recon)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            grads = model_backward(trace, y, params, config.lambda_recon)
            adam_step(
                theta, grads, state, config.learning_rate,
                config.beta1, config.beta2, config.adam_epsilon,
            )
            # Neither outlives its step, so the next forward runs without them.
            del trace, grads
            running += loss * batch.shape[0]
            seen += batch.shape[0]
        val_loss, val_acc = _dataset_loss_and_accuracy(
            x_val, y_val, ch, t, params, config
        )
        history.train_loss.append(running / seen)
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)
        if best is None or val_acc > best[0]:
            best = (val_acc, epoch, theta.copy())

    return TrainResult(
        params=unpack_params(best[2], params), history=history, best_epoch=best[1],
        best_val_accuracy=best[0], ch=ch, t=t,
    )


# ---------------------------------------------------------------------------
# Evaluation and export
# ---------------------------------------------------------------------------

def predict_rows(rows, ch, t, params, config: RunConfig, batch_size=64):
    return np.concatenate(_per_batch(
        rows, ch, t, params, config,
        lambda trace, _: np.argmax(trace.probs, axis=-1), batch_size,
    ))


def evaluate_by_subject(params: ModelParams, epochs, config: RunConfig):
    """Metrics per distinct subject_id, sorted; list of (subject, Metrics)."""
    rows, labels, ch, t = preprocess(epochs, config)
    preds = predict_rows(rows, ch, t, params, config)
    subjects = np.array([ep.subject_id for ep in epochs])
    out = []
    for subject in sorted(set(subjects)):
        mask = subjects == subject
        out.append(
            (subject,
             head_mod.compute_metrics(*head_mod.confusion(preds[mask], labels[mask])))
        )
    return out


def export_embeddings(params: ModelParams, epochs, stage: str, config: RunConfig) -> str:
    """CSV, one row per epoch: label first, then the feature vector.
    stage='raw' exports the flattened preprocessed epoch (d columns);
    stage='latent' exports the ensemble aggregate (h columns)."""
    if stage not in ("raw", "latent"):
        raise ConfigError(f"stage must be raw or latent, got {stage!r}")
    rows, labels, ch, t = preprocess(epochs, config)
    if stage == "raw":
        features = rows
    else:
        features = np.concatenate(_per_batch(
            rows, ch, t, params, config, lambda trace, _: trace.csie.aggregate,
        ), axis=0)
    lines = []
    for label, vec in zip(labels, features):
        lines.append(",".join([str(int(label))] + [f"{v:.8g}" for v in vec]))
    return "\n".join(lines) + "\n"
