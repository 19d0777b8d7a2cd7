"""Conv/pool compressor: halving rule, pooling dominance, gradients."""

import numpy as np
import pytest

from eegfpn import gradcheck, reducer
from eegfpn.errors import ShapeError
from eegfpn.model import init_params


def init_nsdru(hidden: int, seed: int) -> reducer.NsdruParams:
    return init_params(reducer.nsdru_shapes(hidden), seed)


def zeroed(hidden=8):
    p = init_nsdru(hidden, seed=0)
    p.conv1_w[...] = 0.0
    p.conv1_b[...] = 0.0
    p.conv2_w[...] = 0.0
    p.conv2_b[...] = 0.0
    return p


def delta_passthrough():
    """conv1 = identity (center tap), conv2 sums hidden channels."""
    p = zeroed(hidden=2)
    p.conv1_w[:, 0, 1, 1] = 1.0
    p.conv2_w[0, :, 1, 1] = 0.5
    return p


class TestForward:
    def test_halving_large(self):
        out = reducer.nsdru_forward(np.zeros((1, 1, 128, 400)), zeroed()).act2
        assert out.shape == (1, 1, 64, 200)

    def test_halving_floors_odd(self):
        out = reducer.nsdru_forward(np.zeros((1, 1, 5, 7)), zeroed()).act2
        assert out.shape == (1, 1, 2, 3)

    def test_halving_property(self):
        rng = np.random.default_rng(7)
        p = init_nsdru(3, seed=7)
        for _ in range(25):
            ch = int(rng.integers(2, 65))
            t = int(rng.integers(2, 65))
            x = rng.normal(size=(2, 1, ch, t))
            assert reducer.nsdru_forward(x, p).act2.shape == (2, 1, ch // 2, t // 2)

    def test_zero_params_zero_output(self):
        x = np.random.default_rng(1).normal(size=(2, 1, 6, 8))
        np.testing.assert_array_equal(reducer.nsdru_forward(x, zeroed()).act2, 0.0)

    def test_relu_outputs_nonnegative(self):
        p = init_nsdru(4, seed=3)
        trace = reducer.nsdru_forward(np.random.default_rng(3).normal(size=(2, 1, 8, 10)), p)
        assert np.all(trace.act1 >= 0.0)
        assert np.all(trace.act2 >= 0.0)

    def test_pool_dominance_under_scaling(self):
        # With an identity first conv, the pooled grid is the window max;
        # doubling the unique max doubles that pooled value.
        p = delta_passthrough()
        x = np.random.default_rng(5).uniform(0.1, 1.0, size=(1, 1, 4, 4))
        trace = reducer.nsdru_forward(x, p)
        window = x[0, 0, 0:2, 0:2]
        i, j = np.unravel_index(np.argmax(window), window.shape)
        x2 = x.copy()
        x2[0, 0, i, j] *= 2.0
        trace2 = reducer.nsdru_forward(x2, p)
        assert trace2.pooled[0, 0, 0, 0] == pytest.approx(2.0 * trace.pooled[0, 0, 0, 0])

    def test_too_small_grid_rejected(self):
        with pytest.raises(ShapeError):
            reducer.nsdru_forward(np.zeros((1, 1, 1, 8)), zeroed())

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            reducer.nsdru_forward(np.zeros((1, 2, 4, 4)), zeroed())


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        report = gradcheck.check_nsdru(seed)
        assert report.max_relative_error < 1e-4

    def test_zero_upstream_zero_grads(self):
        p = init_nsdru(4, seed=2)
        trace = reducer.nsdru_forward(np.random.default_rng(2).normal(size=(1, 1, 4, 6)), p)
        g, d_x = reducer.nsdru_backward(trace, np.zeros_like(trace.act2), p)
        np.testing.assert_array_equal(g.conv1_w, 0.0)
        np.testing.assert_array_equal(g.conv2_w, 0.0)
        np.testing.assert_array_equal(d_x, 0.0)

    def test_unique_max_gets_all_window_gradient(self):
        # Identity conv path: the pool's input gradient must land on the
        # single argmax cell of each window.
        p = delta_passthrough()
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 0] = 5.0  # unique max of the only window
        trace = reducer.nsdru_forward(x, p)
        upstream = np.ones_like(trace.act2)
        _, d_x = reducer.nsdru_backward(trace, upstream, p)
        mask = d_x[0, 0] != 0.0
        assert mask.sum() == 1
        assert mask[1, 0]

    def test_param_count(self):
        p = init_nsdru(8, seed=0)
        tally = p.conv1_w.size + p.conv1_b.size + p.conv2_w.size + p.conv2_b.size
        assert tally == 153
