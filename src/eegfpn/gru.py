"""Parallel GRU ensemble over the compressed map's time axis.

Each of the k branches is an independent gated recurrent unit run left
to right over the same sequence from zero initial state; the k final
hidden states are averaged into the feature the classifier sees. Gate
algebra, per step:

    update  z = sigmoid(w_z x + u_z h_prev + b_z)
    reset   r = sigmoid(w_r x + u_r h_prev + b_r)
    cand    c = tanh(w_h x + u_h (r * h_prev) + b_h)
    next    h = (1 - z) * h_prev + z * c

so the new state is a convex combination of the previous state and the
candidate, with the update gate weighting the candidate.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError
from .ops import sigmoid, tanh


@dataclass
class GruBranchParams:
    """One branch: per-gate input (h x f), recurrent (h x h), bias (h)."""

    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray

    @property
    def input_size(self) -> int:
        return self.w_z.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.w_z.shape[0]


@dataclass
class CsieParams:
    branches: list

    @property
    def k(self) -> int:
        return len(self.branches)

    @property
    def hidden_size(self) -> int:
        return self.branches[0].hidden_size


@dataclass
class BranchTrace:
    """Stacked per-step values; hiddens has T+1 rows (index 0 = h0)."""

    inputs: np.ndarray
    update: np.ndarray
    reset: np.ndarray
    cand: np.ndarray
    hiddens: np.ndarray


@dataclass
class CsieTrace:
    branch_traces: list
    aggregate: np.ndarray


def init_branch(input_size: int, hidden_size: int, seed: int) -> GruBranchParams:
    """Glorot-uniform gate matrices, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)

    def glorot(n_out, n_in):
        bound = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-bound, bound, size=(n_out, n_in))

    kwargs = {}
    for name in (f.name for f in fields(GruBranchParams)):
        if name.startswith("w"):
            kwargs[name] = glorot(hidden_size, input_size)
        elif name.startswith("u"):
            kwargs[name] = glorot(hidden_size, hidden_size)
        else:
            kwargs[name] = np.zeros(hidden_size)
    return GruBranchParams(**kwargs)


def init_csie(input_size: int, hidden_size: int, k: int, seed: int) -> CsieParams:
    """k branches with distinct child seeds so they differentiate; equal
    initialization would keep them identical forever by symmetry."""
    if k < 1:
        raise ShapeError(f"need at least one branch, got k={k}")
    children = np.random.SeedSequence(seed).spawn(k)
    return CsieParams(
        branches=[
            init_branch(input_size, hidden_size, child.generate_state(1)[0])
            for child in children
        ]
    )


def _as_batch(x, width, what):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what} must have width {width}, got shape {x.shape}")
    return x, squeeze


def gru_step(x_t, h_prev, p: GruBranchParams):
    """One recurrence step; returns (update, reset, candidate, new_hidden)."""
    x_t, squeeze = _as_batch(x_t, p.input_size, "step input")
    h_prev, _ = _as_batch(h_prev, p.hidden_size, "previous hidden")
    if x_t.shape[0] != h_prev.shape[0]:
        raise ShapeError(
            f"batch mismatch: input {x_t.shape[0]} vs hidden {h_prev.shape[0]}"
        )
    update = sigmoid(x_t @ p.w_z.T + h_prev @ p.u_z.T + p.b_z)
    reset = sigmoid(x_t @ p.w_r.T + h_prev @ p.u_r.T + p.b_r)
    cand = tanh(x_t @ p.w_h.T + (reset * h_prev) @ p.u_h.T + p.b_h)
    h_new = (1.0 - update) * h_prev + update * cand
    if squeeze:
        return update[0], reset[0], cand[0], h_new[0]
    return update, reset, cand, h_new


def run_branch(sequence: np.ndarray, p: GruBranchParams, h0=None) -> BranchTrace:
    """Iterate gru_step over a (n, T, f) or (T, f) sequence from h0 (default 0)."""
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim == 2:
        seq = seq[None, :, :]
    if seq.ndim != 3 or seq.shape[2] != p.input_size:
        raise ShapeError(
            f"sequence must be (n, T, {p.input_size}), got shape {sequence.shape}"
        )
    n, steps, _ = seq.shape
    if steps == 0:
        raise ShapeError("cannot run a branch over an empty sequence")
    h = p.hidden_size
    if h0 is None:
        h0 = np.zeros((n, h))
    else:
        h0 = np.broadcast_to(np.asarray(h0, dtype=np.float64), (n, h)).copy()
    update = np.empty((n, steps, h))
    reset = np.empty((n, steps, h))
    cand = np.empty((n, steps, h))
    hiddens = np.empty((n, steps + 1, h))
    hiddens[:, 0] = h0
    for t in range(steps):
        z_t, r_t, c_t, h_t = gru_step(seq[:, t], hiddens[:, t], p)
        update[:, t], reset[:, t], cand[:, t], hiddens[:, t + 1] = z_t, r_t, c_t, h_t
    return BranchTrace(inputs=seq, update=update, reset=reset, cand=cand, hiddens=hiddens)


def aggregate(final_hiddens) -> np.ndarray:
    """Average of the k branch states, anchored at the first state so an
    average of identical states returns that state bitwise (a plain
    sum-then-divide mean rounds unless k is a power of two)."""
    if len(final_hiddens) == 0:
        raise ShapeError("nothing to aggregate: no branch states")
    arrays = [np.asarray(v, dtype=np.float64) for v in final_hiddens]
    base = arrays[0]
    for v in arrays[1:]:
        if v.shape != base.shape:
            raise ShapeError(
                f"branch states disagree in shape: {v.shape} vs {base.shape}"
            )
    if len(arrays) == 1:
        return base.copy()
    offsets = np.stack([v - base for v in arrays[1:]])
    return base + offsets.sum(axis=0) / len(arrays)


def map_to_sequence(compressed: np.ndarray) -> np.ndarray:
    """(n, 1, rows, cols) map -> (n, T=cols, f=rows) sequence: time runs
    along the compressed time axis, features are compressed channels."""
    x = np.asarray(compressed, dtype=np.float64)
    if x.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"expected (n, 1, rows, cols) map, got shape {x.shape}")
    return x[:, 0].transpose(0, 2, 1)


def csie_forward(sequence: np.ndarray, p: CsieParams) -> CsieTrace:
    """Run every branch over the same sequence, average final states."""
    traces = [run_branch(sequence, branch) for branch in p.branches]
    agg = aggregate([tr.hiddens[:, -1] for tr in traces])
    return CsieTrace(branch_traces=traces, aggregate=agg)


def _branch_backward(trace: BranchTrace, upstream: np.ndarray, p: GruBranchParams):
    """BPTT through one branch. Returns (GruBranchParams of gradients,
    d_sequence)."""
    seq = trace.inputs
    n, steps, _ = seq.shape
    g = GruBranchParams(**{f.name: np.zeros_like(getattr(p, f.name)) for f in fields(p)})
    d_seq = np.zeros_like(seq)
    d_h = np.asarray(upstream, dtype=np.float64)
    if d_h.shape != (n, p.hidden_size):
        raise ShapeError(
            f"upstream must be (n, {p.hidden_size}), got shape {d_h.shape}"
        )
    for t in range(steps - 1, -1, -1):
        x_t = seq[:, t]
        h_prev = trace.hiddens[:, t]
        z_t, r_t, c_t = trace.update[:, t], trace.reset[:, t], trace.cand[:, t]

        d_z = d_h * (c_t - h_prev)
        d_c = d_h * z_t
        d_h_prev = d_h * (1.0 - z_t)

        d_a_h = d_c * (1.0 - c_t * c_t)
        g.w_h += d_a_h.T @ x_t
        g.u_h += d_a_h.T @ (r_t * h_prev)
        g.b_h += d_a_h.sum(axis=0)
        d_rh = d_a_h @ p.u_h
        d_r = d_rh * h_prev
        d_h_prev += d_rh * r_t

        d_a_z = d_z * z_t * (1.0 - z_t)
        g.w_z += d_a_z.T @ x_t
        g.u_z += d_a_z.T @ h_prev
        g.b_z += d_a_z.sum(axis=0)
        d_h_prev += d_a_z @ p.u_z

        d_a_r = d_r * r_t * (1.0 - r_t)
        g.w_r += d_a_r.T @ x_t
        g.u_r += d_a_r.T @ h_prev
        g.b_r += d_a_r.sum(axis=0)
        d_h_prev += d_a_r @ p.u_r

        d_seq[:, t] = d_a_z @ p.w_z + d_a_r @ p.w_r + d_a_h @ p.w_h
        d_h = d_h_prev
    return g, d_seq


def csie_backward(trace: CsieTrace, upstream: np.ndarray, p: CsieParams):
    """Split the aggregate gradient 1/k into each branch, then BPTT.

    Returns (CsieParams of gradients, d_sequence summed over branches).
    """
    share = np.asarray(upstream, dtype=np.float64) / p.k
    grads = []
    d_seq_total = None
    for branch_trace, branch in zip(trace.branch_traces, p.branches):
        g, d_seq = _branch_backward(branch_trace, share, branch)
        grads.append(g)
        d_seq_total = d_seq if d_seq_total is None else d_seq_total + d_seq
    return CsieParams(branches=grads), d_seq_total


def sequence_to_map_grad(d_sequence: np.ndarray) -> np.ndarray:
    """Undo map_to_sequence for the gradient: (n, T, f) -> (n, 1, f, T)."""
    return np.ascontiguousarray(d_sequence.transpose(0, 2, 1))[:, None, :, :]


def count_branch_params(input_size: int, hidden_size: int) -> int:
    f, h = input_size, hidden_size
    return 3 * (h * f + h * h + h)
