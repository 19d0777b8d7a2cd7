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
candidate, with the update gate weighting the candidate. The forward
copies its input once to a C-contiguous (n, T, f) array, whose step t,
`seq[:, t]`, is n rows of f at stride T*f, not one block. It writes every
branch's gates and states into one trace stacked on a leading k axis,
(k, n, T, h), over time-major storage: each step's (k, n, h) trace slice
`[:, :, t]` is then one contiguous block, not a scatter across rows. The
backward reads the trace as it is. Backward,
each gate's pre-activation gradient d_a gives w += d_a^T x, u += d_a^T h_in
and b += sum(d_a), with h_in = h_prev for z and r, r * h_prev for c; one
reversed loop over time runs all k branches.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
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
    """k >= 1 branches of f >= 1 inputs and h >= 1 hidden units."""
    if min(k, f, h) < 1:
        raise ConfigError(f"need k, f and h >= 1, got k={k}, f={f}, h={h}")
    return CsieParams(branches=[branch_shapes(f, h) for _ in range(k)])


@dataclass
class CsieTrace:
    """The k branches' per-step values, stacked on a leading branch axis:
    inputs (n, T, f), a C-contiguous copy; update, reset, cand (k, n, T, h);
    hiddens (k, n, T+1, h), step 0 the zero start; aggregate (n, h). The
    four per-step arrays are views of time-major (T, k, n, h) storage, so
    [:, :, t] is one block, the unit both passes read or write per step.
    Without a trace they are None."""

    inputs: np.ndarray
    update: np.ndarray
    reset: np.ndarray
    cand: np.ndarray
    hiddens: np.ndarray
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
    pre = np.empty((2, n, p.hidden_size))  # z's and r's pre-activations
    for a, (w, u, b) in zip(pre, ((p.w_z, p.u_z, p.b_z), (p.w_r, p.u_r, p.b_r))):
        np.add(x_t @ w.T, h_prev @ u.T, out=a)
        a += b
    update, reset = sigmoid(pre, out=pre)
    cand = np.tanh(x_t @ p.w_h.T + (reset * h_prev) @ p.u_h.T + p.b_h)
    h_new = (1.0 - update) * h_prev + update * cand
    return update, reset, cand, h_new


def aggregate(final_hiddens) -> np.ndarray:
    """Average of the k branch states, (k, n, h), anchored at the first
    state so an average of identical states returns that state bitwise (a
    plain sum-then-divide mean rounds unless k is a power of two)."""
    final = np.asarray(final_hiddens, dtype=np.float64)
    if len(final) == 0:
        raise ShapeError("nothing to aggregate: no branch states")
    base = final[0]
    if len(final) == 1:
        return base.copy()
    return base + (final[1:] - base).sum(axis=0) / len(final)


def csie_forward(sequence: np.ndarray, p: CsieParams, keep_trace: bool = True) -> CsieTrace:
    """Iterate gru_step over a (n, T, f) sequence from a zero state, branch
    by branch, and average the final states."""
    f, h = p.branches[0].input_size, p.branches[0].hidden_size
    seq = np.ascontiguousarray(sequence, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[2] != f:
        raise ShapeError(f"sequence must be (n, T, {f}), got shape {seq.shape}")
    n, steps, _ = seq.shape
    if steps == 0:
        raise ShapeError("cannot run a branch over an empty sequence")
    update, reset, cand = (np.empty((steps, p.k, n, h)).transpose(1, 2, 0, 3)
                           if keep_trace else None for _ in range(3))
    hiddens = np.zeros((steps + 1, p.k, n, h)).transpose(1, 2, 0, 3) if keep_trace else None
    final = np.empty((p.k, n, h))
    for i, branch in enumerate(p.branches):
        h_t = np.zeros((n, h))
        for t in range(steps):
            z_t, r_t, c_t, h_t = gru_step(seq[:, t], h_t, branch)
            if keep_trace:
                update[i, :, t], reset[i, :, t], cand[i, :, t] = z_t, r_t, c_t
                hiddens[i, :, t + 1] = h_t
        final[i] = h_t
    return CsieTrace(inputs=seq, update=update, reset=reset, cand=cand, hiddens=hiddens,
                     aggregate=aggregate(final))


def csie_backward(trace: CsieTrace, upstream: np.ndarray, p: CsieParams):
    """Split the aggregate gradient 1/k into each branch, then BPTT through
    all k branches in one reversed loop over time, stacked on a leading
    axis. Each np.matmul runs on every branch's slice the product that
    branch alone would run, so the gradients are those of k separate loops,
    bitwise. Returns (CsieParams of gradients, d_sequence summed over branches).
    """
    seq = trace.inputs
    n, steps, _ = seq.shape
    h = p.branches[0].hidden_size
    share = np.asarray(upstream, dtype=np.float64) / p.k
    if share.shape != (n, h):
        raise ShapeError(f"upstream must be (n, {h}), got shape {share.shape}")
    names = [f.name for f in fields(GruBranchParams)]
    w = GruBranchParams(*(np.stack([getattr(b, name) for b in p.branches]) for name in names))
    z, r, c, hid = trace.update, trace.reset, trace.cand, trace.hiddens
    grads = [np.zeros_like(getattr(w, name)) for name in names]
    gates = [grads[i:i + 3] for i in range(0, len(grads), 3)]  # (w, u, b) of z, r, h
    d_seq = np.zeros((steps, p.k, n, seq.shape[2])).transpose(1, 2, 0, 3)
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
