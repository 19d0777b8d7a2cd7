"""GRU ensemble: closed-form recursions, gate bounds, aggregation
algebra, and backpropagation through time."""

import itertools
import re
from dataclasses import fields

import numpy as np
import pytest

from eegfpn import gradcheck, gru
from eegfpn.errors import ShapeError
from eegfpn.model import init_params, pack_params, param_segments
from traced_memory import traced_peak_mib


def init_branch(f: int, h: int, seed: int) -> gru.GruBranchParams:
    return init_params(gru.branch_shapes(f, h), seed)


def init_csie(f: int, h: int, k: int, seed: int) -> gru.CsieParams:
    return init_params(gru.csie_shapes(f, h, k), seed)


def reference_branch_backward(trace, i, upstream, p):
    """Branch i's backward written out gate by gate, as it stood before the
    gate loop; the loop must reproduce it bitwise."""
    seq = trace.inputs
    hiddens, update, reset, cand = (trace.hiddens[i], trace.update[i],
                                    trace.reset[i], trace.cand[i])
    g = gru.GruBranchParams(**{f.name: np.zeros_like(getattr(p, f.name)) for f in fields(p)})
    d_seq = np.zeros_like(seq)
    d_h = np.asarray(upstream, dtype=np.float64)
    for t in range(seq.shape[1] - 1, -1, -1):
        x_t = seq[:, t]
        h_prev = hiddens[:, t]
        z_t, r_t, c_t = update[:, t], reset[:, t], cand[:, t]

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


def solo_forward(seq, branch: gru.GruBranchParams) -> gru.CsieTrace:
    """The forward of one branch alone, the ensemble at k = 1."""
    return gru.csie_forward(seq, gru.CsieParams(branches=[branch]))


def strided_forward(view, p: gru.CsieParams):
    """Reference forward into a branch-major trace: gru_step over the
    (n, T, f) view as handed over, strides and all. Returns update, reset,
    cand, hiddens and aggregate."""
    k, (n, steps, _), h = p.k, view.shape, p.branches[0].hidden_size
    update, reset, cand = (np.empty((k, n, steps, h)) for _ in range(3))
    hiddens = np.zeros((k, n, steps + 1, h))
    for i, branch in enumerate(p.branches):
        h_t = np.zeros((n, h))
        for t in range(steps):
            update[i, :, t], reset[i, :, t], cand[i, :, t], h_t = gru.gru_step(
                view[:, t], h_t, branch)
            hiddens[i, :, t + 1] = h_t
    return update, reset, cand, hiddens, gru.aggregate(hiddens[:, :, -1])


def act2_view(n, steps, f, seed):
    """What model_forward hands the ensemble: an (n, 1, f, T) map's first
    channel with time and features swapped, a view with no unit stride."""
    maps = np.random.default_rng(seed).normal(size=(n, 1, f, steps))
    return maps[:, 0].transpose(0, 2, 1)


def zero_branch(f=2, h=3) -> gru.GruBranchParams:
    p = init_branch(f, h, seed=0)
    for _, arr in param_segments(p):
        arr[...] = 0.0
    return p


class TestStep:
    def test_zero_params_from_ones(self):
        p = zero_branch()
        z, r, cand, h = gru.gru_step(np.zeros((1, 2)), np.ones((1, 3)), p)
        np.testing.assert_array_equal(z, 0.5)
        np.testing.assert_array_equal(r, 0.5)
        np.testing.assert_array_equal(cand, 0.0)
        np.testing.assert_array_equal(h, 0.5)

    def test_zero_state_is_fixed_point(self):
        p = zero_branch()
        _, _, _, h = gru.gru_step(np.zeros((1, 2)), np.zeros((1, 3)), p)
        np.testing.assert_array_equal(h, 0.0)

    def test_saturated_update_gate_selects_candidate(self):
        p = init_branch(2, 3, seed=1)
        p.b_z[...] = 50.0  # update gate pinned at ~1
        x = np.array([[0.3, -0.4]])
        h_prev = np.array([[0.9, -0.2, 0.1]])
        _, _, cand, h = gru.gru_step(x, h_prev, p)
        np.testing.assert_allclose(h, cand, atol=1e-6)

    def test_shape_errors(self):
        p = zero_branch(f=2, h=3)
        with pytest.raises(ShapeError):
            gru.gru_step(np.zeros((1, 5)), np.zeros((1, 3)), p)
        with pytest.raises(ShapeError):
            gru.gru_step(np.zeros((1, 2)), np.zeros((1, 4)), p)
        with pytest.raises(ShapeError):
            gru.gru_step(np.zeros((2, 2)), np.zeros((1, 3)), p)

    def test_gate_bounds_random(self):
        rng = np.random.default_rng(11)
        p = init_branch(3, 4, seed=11)
        for _ in range(200):
            x = rng.normal(scale=3.0, size=(1, 3))
            h_prev = rng.uniform(-1.0, 1.0, size=(1, 4))
            z, r, cand, h = gru.gru_step(x, h_prev, p)
            assert np.all((z > 0.0) & (z < 1.0))
            assert np.all((r > 0.0) & (r < 1.0))
            assert np.all((cand > -1.0) & (cand < 1.0))
            assert np.all((h >= -1.0) & (h <= 1.0))

    @pytest.mark.parametrize("n, f", [(16, 4), (1, 4), (64, 64)],
                             ids=["train", "stream", "batch_eval"])
    def test_stacked_gates_match_the_two_call_form_bitwise(self, n, f):
        # Reference: z and r through separate calls of the two-branch sigmoid.
        def sigmoid(v):
            z = np.exp(-np.abs(v))
            return np.where(v >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

        h = 32
        rng = np.random.default_rng(n + f)
        p = init_branch(f, h, seed=n + f)
        p.b_z[...], p.b_r[...] = rng.normal(size=(2, h))
        x = rng.normal(scale=2.0, size=(n, f))
        h_prev = rng.uniform(-1.0, 1.0, size=(n, h))
        update = sigmoid(x @ p.w_z.T + h_prev @ p.u_z.T + p.b_z)
        reset = sigmoid(x @ p.w_r.T + h_prev @ p.u_r.T + p.b_r)
        cand = np.tanh(x @ p.w_h.T + (reset * h_prev) @ p.u_h.T + p.b_h)
        h_new = (1.0 - update) * h_prev + update * cand
        got = gru.gru_step(x, h_prev, p)
        for name, g, want in zip(("update", "reset", "cand", "h_new"), got,
                                 (update, reset, cand, h_new)):
            np.testing.assert_array_equal(g, want, err_msg=name)


class TestBranch:
    def test_geometric_decay_closed_form(self):
        # Zero parameters: z = 1/2 and candidate = 0, so each step exactly
        # halves the state; from a state of ones, T steps give 2^-T bitwise.
        p = zero_branch()
        for steps in (1, 5, 13, 20):
            h = np.ones((1, 3))
            for _ in range(steps):
                h = gru.gru_step(np.zeros((1, 2)), h, p)[3]
            np.testing.assert_array_equal(h, 0.5 ** steps)

    def test_single_step_equals_gru_step(self):
        p = init_branch(2, 3, seed=4)
        x = np.random.default_rng(4).normal(size=(1, 1, 2))
        trace = solo_forward(x, p)
        _, _, _, h = gru.gru_step(x[:, 0], np.zeros((1, 3)), p)
        np.testing.assert_array_equal(trace.hiddens[0, :, -1], h)

    def test_hidden_bound_preserved(self):
        rng = np.random.default_rng(6)
        p = init_branch(2, 4, seed=6)
        seq = rng.normal(scale=5.0, size=(3, 30, 2))
        h = np.repeat(rng.uniform(-1, 1, size=(1, 4)), 3, axis=0)
        for t in range(30):
            h = gru.gru_step(seq[:, t], h, p)[3]
            assert np.all(np.abs(h) <= 1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            solo_forward(np.zeros((1, 0, 2)), zero_branch())


class TestAggregate:
    def test_identical_vectors(self):
        v = np.array([0.3, -0.7, 2.0])
        np.testing.assert_array_equal(gru.aggregate([v] * 6), v)

    def test_hand_example(self):
        np.testing.assert_array_equal(
            gru.aggregate([np.array([0.0, 2.0]), np.array([2.0, 0.0])]), [1.0, 1.0]
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        vecs = [rng.normal(size=4) for _ in range(6)]
        base = gru.aggregate(vecs)
        np.testing.assert_allclose(gru.aggregate(vecs[::-1]), base, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        vecs = [rng.normal(size=4) for _ in range(3)]
        np.testing.assert_allclose(
            gru.aggregate([3.0 * v for v in vecs]), 3.0 * gru.aggregate(vecs), atol=1e-14
        )

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            gru.aggregate([])


class TestEnsemble:
    def test_identical_branches_average_to_branch_state(self):
        branch = init_branch(2, 4, seed=5)
        params = gru.CsieParams(branches=[branch, branch, branch])
        seq = np.random.default_rng(5).normal(size=(2, 6, 2))
        trace = gru.csie_forward(seq, params)
        solo = solo_forward(seq, branch)
        np.testing.assert_array_equal(trace.aggregate, solo.hiddens[0, :, -1])

    def test_single_branch(self):
        params = init_csie(2, 4, k=1, seed=3)
        seq = np.random.default_rng(3).normal(size=(1, 5, 2))
        trace = gru.csie_forward(seq, params)
        solo = solo_forward(seq, params.branches[0])
        np.testing.assert_array_equal(trace.aggregate, solo.hiddens[0, :, -1])

    def test_trace_stacks_the_branches(self):
        params = init_csie(2, 4, k=3, seed=2)
        seq = np.random.default_rng(2).normal(size=(5, 7, 2))
        trace = gru.csie_forward(seq, params)
        for name in ("update", "reset", "cand"):
            assert getattr(trace, name).shape == (3, 5, 7, 4)
        assert trace.hiddens.shape == (3, 5, 8, 4)
        np.testing.assert_array_equal(trace.hiddens[:, :, 0], 0.0)
        for i, branch in enumerate(params.branches):
            solo = solo_forward(seq, branch)
            np.testing.assert_array_equal(trace.hiddens[i], solo.hiddens[0])
            np.testing.assert_array_equal(trace.update[i], solo.update[0])
        np.testing.assert_array_equal(trace.aggregate, gru.aggregate(trace.hiddens[:, :, -1]))

    def test_every_step_is_one_block(self):
        # The input is copied once into (n, T, f) order, and the trace keeps
        # its (k, n, T, h) shape over time-major storage, so each step's
        # (k, n, h) slice is one contiguous block.
        n, steps, f, h, k = 5, 7, 3, 4, 3
        view = act2_view(n, steps, f, seed=1)
        assert not view[:, 0].flags.c_contiguous
        trace = gru.csie_forward(view, init_csie(f, h, k, seed=1))
        assert trace.inputs.flags.c_contiguous
        for name, last in (("update", steps - 1), ("reset", steps - 1),
                           ("cand", steps - 1), ("hiddens", steps)):
            arr = getattr(trace, name)
            assert arr.shape == (k, n, last + 1, h), name
            for t in (0, last):
                assert arr[:, :, t].flags.c_contiguous, (name, t)

    @pytest.mark.parametrize("n, steps, f", [
        (16, 128, 4),   # train
        (1, 128, 4),    # stream
        (64, 128, 64),  # batch_eval
    ], ids=["train", "stream", "batch_eval"])
    def test_contiguous_forward_matches_the_strided_loop_bitwise(self, n, steps, f):
        params = init_csie(f, 32, 6, seed=steps + f)
        view = act2_view(n, steps, f, seed=n)
        trace = gru.csie_forward(view, params)
        names = ("update", "reset", "cand", "hiddens", "aggregate")
        for name, want in zip(names, strided_forward(view, params)):
            np.testing.assert_array_equal(getattr(trace, name), want, err_msg=name)

    def test_zero_params_zero_aggregate(self):
        params = gru.CsieParams(branches=[zero_branch(), zero_branch()])
        trace = gru.csie_forward(np.ones((2, 4, 2)), params)
        np.testing.assert_array_equal(trace.aggregate, 0.0)

    def test_branches_initialized_distinct(self):
        params = init_csie(3, 4, k=6, seed=0)
        first = params.branches[0].w_z
        assert any(
            not np.array_equal(first, b.w_z) for b in params.branches[1:]
        )


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        assert gradcheck.check_csie(seed) < 1e-4

    def test_identical_branches_get_identical_gradients(self):
        branch = init_branch(2, 4, seed=7)
        params = gru.CsieParams(branches=[branch, branch])
        seq = np.random.default_rng(7).normal(size=(2, 5, 2))
        trace = gru.csie_forward(seq, params)
        upstream = np.random.default_rng(17).normal(size=(2, 4))
        grads, _ = gru.csie_backward(trace, upstream, params)
        first, second = grads.branches
        np.testing.assert_array_equal(pack_params(first), pack_params(second))

    def test_zero_upstream_zero_grads(self):
        params = init_csie(2, 4, k=2, seed=8)
        seq = np.random.default_rng(8).normal(size=(1, 4, 2))
        trace = gru.csie_forward(seq, params)
        grads, d_seq = gru.csie_backward(trace, np.zeros((1, 4)), params)
        np.testing.assert_array_equal(d_seq, 0.0)
        for _, g in param_segments(grads):
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("n, steps, f, h, k, b_z", [
        (1, 1, 2, 3, 1, None),    # one branch, one step
        (3, 9, 3, 5, 3, 40.0),    # update gate saturated at ~1
        (4, 12, 4, 32, 2, None),  # the train shape's f and h
        (16, 128, 4, 32, 6, None),  # the train workload's batch
        (1, 128, 4, 32, 6, None),   # the stream workload's single epoch
    ])
    def test_gate_loop_matches_per_gate_reference_bitwise(self, n, steps, f, h, k, b_z):
        params = init_csie(f, h, k, seed=steps)
        if b_z is not None:
            for branch in params.branches:
                branch.b_z[...] = b_z
        rng = np.random.default_rng(steps)
        seq = rng.normal(size=(n, steps, f))
        upstream = rng.normal(size=(n, h))
        trace = gru.csie_forward(seq, params)
        grads, d_seq = gru.csie_backward(trace, upstream, params)
        share = upstream / k
        want_d_seq = None
        for i, (branch, got) in enumerate(zip(params.branches, grads.branches)):
            want, d = reference_branch_backward(trace, i, share, branch)
            for (name, a), (_, b) in zip(param_segments(got), param_segments(want)):
                np.testing.assert_array_equal(a, b, err_msg=name)
            want_d_seq = d if want_d_seq is None else want_d_seq + d
        np.testing.assert_array_equal(d_seq, want_d_seq)
        for i, j in itertools.combinations(range(k), 2):
            for _, a in param_segments(grads.branches[i]):
                for _, b in param_segments(grads.branches[j]):
                    assert not np.shares_memory(a, b)

    def test_backward_reads_the_trace_in_place(self):
        # At the train workload's batch the stacked trace is about 13 MiB;
        # a backward that copied it would peak there.
        params = init_csie(4, 32, 6, seed=0)
        rng = np.random.default_rng(0)
        trace = gru.csie_forward(rng.normal(size=(16, 128, 4)), params)
        upstream = rng.normal(size=(16, 32))
        peak = traced_peak_mib(lambda: gru.csie_backward(trace, upstream, params))
        assert peak < 4.0, f"csie_backward peaked at {peak:.2f} MiB"

    @pytest.mark.parametrize("shape", [(3, 5), (4, 4), (4,)],
                             ids=["one-column", "one-row", "rank-1"])
    def test_wrong_upstream_shape_rejected(self, shape):
        params = init_csie(2, 4, k=2, seed=9)
        trace = gru.csie_forward(np.random.default_rng(9).normal(size=(3, 5, 2)), params)
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            gru.csie_backward(trace, np.ones(shape), params)

    def test_param_count(self):
        p = init_branch(2, 4, seed=0)
        assert sum(a.size for _, a in param_segments(p)) == 84
