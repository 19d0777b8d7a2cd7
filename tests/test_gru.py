"""GRU ensemble: closed-form recursions, gate bounds, aggregation
algebra, and backpropagation through time."""

import numpy as np
import pytest

from eegfpn import gradcheck, gru
from eegfpn.errors import ShapeError
from eegfpn.model import pack_params, param_segments


def zero_branch(f=2, h=3) -> gru.GruBranchParams:
    p = gru.init_branch(f, h, seed=0)
    for _, arr in param_segments(p):
        arr[...] = 0.0
    return p


class TestStep:
    def test_zero_params_from_ones(self):
        p = zero_branch()
        z, r, cand, h = gru.gru_step(np.zeros(2), np.ones(3), p)
        np.testing.assert_array_equal(z, 0.5)
        np.testing.assert_array_equal(r, 0.5)
        np.testing.assert_array_equal(cand, 0.0)
        np.testing.assert_array_equal(h, 0.5)

    def test_zero_state_is_fixed_point(self):
        p = zero_branch()
        _, _, _, h = gru.gru_step(np.zeros(2), np.zeros(3), p)
        np.testing.assert_array_equal(h, 0.0)

    def test_saturated_update_gate_selects_candidate(self):
        p = gru.init_branch(2, 3, seed=1)
        p.b_z[...] = 50.0  # update gate pinned at ~1
        x = np.array([0.3, -0.4])
        h_prev = np.array([0.9, -0.2, 0.1])
        _, _, cand, h = gru.gru_step(x, h_prev, p)
        np.testing.assert_allclose(h, cand, atol=1e-6)

    def test_shape_errors(self):
        p = zero_branch(f=2, h=3)
        with pytest.raises(ShapeError):
            gru.gru_step(np.zeros(5), np.zeros(3), p)
        with pytest.raises(ShapeError):
            gru.gru_step(np.zeros(2), np.zeros(4), p)

    def test_gate_bounds_random(self):
        rng = np.random.default_rng(11)
        p = gru.init_branch(3, 4, seed=11)
        for _ in range(200):
            x = rng.normal(scale=3.0, size=3)
            h_prev = rng.uniform(-1.0, 1.0, size=4)
            z, r, cand, h = gru.gru_step(x, h_prev, p)
            assert np.all((z > 0.0) & (z < 1.0))
            assert np.all((r > 0.0) & (r < 1.0))
            assert np.all((cand > -1.0) & (cand < 1.0))
            assert np.all((h >= -1.0) & (h <= 1.0))


class TestBranch:
    def test_geometric_decay_closed_form(self):
        # Zero parameters: z = 1/2 and candidate = 0, so each step exactly
        # halves the state; from h0 = 1 the final state is 2^-T bitwise.
        p = zero_branch()
        for steps in (1, 5, 13, 20):
            seq = np.zeros((1, steps, 2))
            trace = gru.run_branch(seq, p, h0=np.ones(3))
            np.testing.assert_array_equal(trace.hiddens[0, -1], 0.5 ** steps)

    def test_single_step_equals_gru_step(self):
        p = gru.init_branch(2, 3, seed=4)
        x = np.random.default_rng(4).normal(size=(1, 1, 2))
        trace = gru.run_branch(x, p)
        _, _, _, h = gru.gru_step(x[0, 0], np.zeros(3), p)
        np.testing.assert_array_equal(trace.hiddens[0, -1], h)

    def test_hidden_bound_preserved(self):
        rng = np.random.default_rng(6)
        p = gru.init_branch(2, 4, seed=6)
        seq = rng.normal(scale=5.0, size=(3, 30, 2))
        trace = gru.run_branch(seq, p, h0=rng.uniform(-1, 1, size=4))
        assert np.all(np.abs(trace.hiddens) <= 1.0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            gru.run_branch(np.zeros((1, 0, 2)), zero_branch())


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

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            gru.aggregate([np.zeros(3), np.zeros(4)])


class TestEnsemble:
    def test_identical_branches_average_to_branch_state(self):
        branch = gru.init_branch(2, 4, seed=5)
        params = gru.CsieParams(branches=[branch, branch, branch])
        seq = np.random.default_rng(5).normal(size=(2, 6, 2))
        trace = gru.csie_forward(seq, params)
        solo = gru.run_branch(seq, branch)
        np.testing.assert_array_equal(trace.aggregate, solo.hiddens[:, -1])

    def test_single_branch(self):
        params = gru.init_csie(2, 4, k=1, seed=3)
        seq = np.random.default_rng(3).normal(size=(1, 5, 2))
        trace = gru.csie_forward(seq, params)
        solo = gru.run_branch(seq, params.branches[0])
        np.testing.assert_array_equal(trace.aggregate, solo.hiddens[:, -1])

    def test_zero_params_zero_aggregate(self):
        params = gru.CsieParams(branches=[zero_branch(), zero_branch()])
        trace = gru.csie_forward(np.ones((2, 4, 2)), params)
        np.testing.assert_array_equal(trace.aggregate, 0.0)

    def test_branches_initialized_distinct(self):
        params = gru.init_csie(3, 4, k=6, seed=0)
        first = params.branches[0].w_z
        assert any(
            not np.array_equal(first, b.w_z) for b in params.branches[1:]
        )

    def test_map_sequence_orientation(self):
        # Map rows are features, columns are time steps.
        compressed = np.arange(6.0).reshape(1, 1, 2, 3)
        seq = gru.map_to_sequence(compressed)
        assert seq.shape == (1, 3, 2)
        np.testing.assert_array_equal(seq[0, 0], [0.0, 3.0])
        np.testing.assert_array_equal(seq[0, 2], [2.0, 5.0])
        back = gru.sequence_to_map_grad(seq)
        np.testing.assert_array_equal(back, compressed)


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        report = gradcheck.check_csie(seed)
        assert report.max_relative_error < 1e-4

    def test_identical_branches_get_identical_gradients(self):
        branch = gru.init_branch(2, 4, seed=7)
        params = gru.CsieParams(branches=[branch, branch])
        seq = np.random.default_rng(7).normal(size=(2, 5, 2))
        trace = gru.csie_forward(seq, params)
        upstream = np.random.default_rng(17).normal(size=(2, 4))
        grads, _ = gru.csie_backward(trace, upstream, params)
        first, second = grads.branches
        np.testing.assert_array_equal(pack_params(first), pack_params(second))

    def test_zero_upstream_zero_grads(self):
        params = gru.init_csie(2, 4, k=2, seed=8)
        seq = np.random.default_rng(8).normal(size=(1, 4, 2))
        trace = gru.csie_forward(seq, params)
        grads, d_seq = gru.csie_backward(trace, np.zeros((1, 4)), params)
        np.testing.assert_array_equal(d_seq, 0.0)
        for _, g in param_segments(grads):
            np.testing.assert_array_equal(g, 0.0)

    def test_param_count(self):
        assert gru.count_branch_params(2, 4) == 84
        p = gru.init_branch(2, 4, seed=0)
        assert sum(a.size for _, a in param_segments(p)) == 84
