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
candidate, with the update gate weighting the candidate. Backward, each
gate's pre-activation gradient d_a gives w += d_a^T x, u += d_a^T h_in
and b += sum(d_a), with h_in = h_prev for z and r, r * h_prev for c; one
reversed loop over time runs all k branches, stacked on a leading axis.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError
from .ops import sigmoid


@dataclass
class GruBranchParams:
    """One branch; branch_shapes gives its shapes."""

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


def branch_shapes(f: int, h: int) -> GruBranchParams:
    """Per gate: input weights w_* (h, f), recurrent u_* (h, h), bias b_* (h,)."""
    gate = {"w": (h, f), "u": (h, h), "b": (h,)}
    return GruBranchParams(**{fl.name: gate[fl.name[0]] for fl in fields(GruBranchParams)})


@dataclass
class CsieParams:
    branches: list

    @property
    def k(self) -> int:
        return len(self.branches)


def csie_shapes(f: int, h: int, k: int) -> CsieParams:
    return CsieParams(branches=[branch_shapes(f, h) for _ in range(k)])


@dataclass
class BranchTrace:
    """Stacked per-step values; hiddens has T+1 steps (index 0 = the zero start)."""

    inputs: np.ndarray
    update: np.ndarray
    reset: np.ndarray
    cand: np.ndarray
    hiddens: np.ndarray


@dataclass
class CsieTrace:
    branch_traces: list
    aggregate: np.ndarray


def gru_step(x_t, h_prev, p: GruBranchParams):
    """One recurrence step over (n, f) inputs and (n, h) states; returns
    (update, reset, candidate, new_hidden), each (n, h)."""
    n = x_t.shape[0]
    if x_t.shape != (n, p.input_size) or h_prev.shape != (n, p.hidden_size):
        raise ShapeError(
            f"step needs (n, {p.input_size}) input and (n, {p.hidden_size}) "
            f"state, got {x_t.shape} and {h_prev.shape}"
        )
    update = sigmoid(x_t @ p.w_z.T + h_prev @ p.u_z.T + p.b_z)
    reset = sigmoid(x_t @ p.w_r.T + h_prev @ p.u_r.T + p.b_r)
    cand = np.tanh(x_t @ p.w_h.T + (reset * h_prev) @ p.u_h.T + p.b_h)
    h_new = (1.0 - update) * h_prev + update * cand
    return update, reset, cand, h_new


def run_branch(sequence: np.ndarray, p: GruBranchParams) -> BranchTrace:
    """Iterate gru_step over a (n, T, f) sequence from a zero state."""
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[2] != p.input_size:
        raise ShapeError(
            f"sequence must be (n, T, {p.input_size}), got shape {seq.shape}"
        )
    n, steps, _ = seq.shape
    if steps == 0:
        raise ShapeError("cannot run a branch over an empty sequence")
    h = p.hidden_size
    update = np.empty((n, steps, h))
    reset = np.empty((n, steps, h))
    cand = np.empty((n, steps, h))
    hiddens = np.empty((n, steps + 1, h))
    hiddens[:, 0] = 0.0
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


def csie_forward(sequence: np.ndarray, p: CsieParams) -> CsieTrace:
    """Run every branch over the same sequence, average final states."""
    traces = [run_branch(sequence, branch) for branch in p.branches]
    agg = aggregate([tr.hiddens[:, -1] for tr in traces])
    return CsieTrace(branch_traces=traces, aggregate=agg)


def csie_backward(trace: CsieTrace, upstream: np.ndarray, p: CsieParams):
    """Split the aggregate gradient 1/k into each branch, then BPTT through
    all k branches in one reversed loop over time, stacked on a leading
    axis. Each np.matmul runs on every branch's slice the product that
    branch alone would run, so the gradients are those of k separate loops,
    bitwise. Returns (CsieParams of gradients, d_sequence summed over branches).
    """
    seq = trace.branch_traces[0].inputs
    n, steps, _ = seq.shape
    h = p.branches[0].hidden_size
    share = np.asarray(upstream, dtype=np.float64) / p.k
    if share.shape != (n, h):
        raise ShapeError(f"upstream must be (n, {h}), got shape {share.shape}")
    names = [f.name for f in fields(GruBranchParams)]
    w = GruBranchParams(*(np.stack([getattr(b, name) for b in p.branches]) for name in names))
    z, r, c, hid = (np.stack([getattr(tr, name) for tr in trace.branch_traces])
                    for name in ("update", "reset", "cand", "hiddens"))
    grads = [np.zeros_like(getattr(w, name)) for name in names]
    gates = [grads[i:i + 3] for i in range(0, len(grads), 3)]  # (w, u, b) of z, r, h
    d_seq = np.zeros((p.k,) + seq.shape)
    d_h = np.broadcast_to(share, (p.k, n, h))
    for t in range(steps - 1, -1, -1):
        x_t = seq[:, t]
        h_prev, z_t, r_t, c_t = hid[:, :, t], z[:, :, t], r[:, :, t], c[:, :, t]
        # Gradients at the gate pre-activations.
        d_a_z = d_h * (c_t - h_prev) * z_t * (1.0 - z_t)
        d_a_h = d_h * z_t * (1.0 - c_t * c_t)
        d_rh = d_a_h @ w.u_h
        d_a_r = d_rh * h_prev * r_t * (1.0 - r_t)
        d_as, h_ins = (d_a_z, d_a_r, d_a_h), (h_prev, h_prev, r_t * h_prev)
        for (g_w, g_u, g_b), d_a, h_in in zip(gates, d_as, h_ins):
            d_a_t = d_a.transpose(0, 2, 1)
            g_w += d_a_t @ x_t
            g_u += d_a_t @ h_in
            g_b += d_a.sum(axis=1)
        d_seq[:, :, t] = d_a_z @ w.w_z + d_a_r @ w.w_r + d_a_h @ w.w_h
        d_h = d_h * (1.0 - z_t) + d_rh * r_t + d_a_z @ w.u_z + d_a_r @ w.u_r
    branches = [GruBranchParams(*(g[i] for g in grads)) for i in range(p.k)]
    return CsieParams(branches=branches), d_seq.sum(axis=0)
