"""Conv/pool compressor: its 3x3 convolution and 2x2 pool kernels against
explicit loops and finite differences, the halving rule, pooling
dominance, gradients."""

import numpy as np
import pytest

from eegfpn import gradcheck, reducer
from eegfpn.errors import ShapeError
from eegfpn.model import init_params
from eegfpn.ops import relu


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

    @pytest.mark.parametrize("field,shape", [
        pytest.param("conv1_w", (3, 2, 3, 3), id="conv1_w-channels"),
        pytest.param("conv1_w", (3, 1, 5, 5), id="conv1_w-5x5"),
        pytest.param("conv1_b", (4,), id="conv1_b-width"),
        pytest.param("conv2_w", (1, 2, 3, 3), id="conv2_w-channels"),
        pytest.param("conv2_w", (1, 3, 3), id="conv2_w-rank"),
        pytest.param("conv2_b", (3,), id="conv2_b-width"),
    ])
    def test_wrong_param_shape_rejected(self, field, shape):
        # Kernel channels that do not match their input, a kernel of
        # another size or rank, and a bias that does not match its
        # kernel's output channels.
        p = zeroed(hidden=3)
        setattr(p, field, np.zeros(shape))
        with pytest.raises(ShapeError, match=field):
            reducer.nsdru_forward(np.zeros((1, 1, 4, 4)), p)


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


class TestConv3x3:
    def test_all_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 1, 4, 4))
        k = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        out = reducer._conv3x3(x, k, b)
        # Zero padding: interior cells see 9 ones, edges 6, corners 4.
        want = np.array([[4.0, 6.0, 6.0, 4.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [6.0, 9.0, 9.0, 6.0],
                         [4.0, 6.0, 6.0, 4.0]])
        np.testing.assert_array_equal(out, want[None, None])

    def test_zero_kernel_returns_bias_map(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        k = np.zeros((3, 1, 3, 3))
        b = np.array([1.0, -2.0, 0.5])
        out = reducer._conv3x3(x, k, b)
        assert out.shape == (1, 3, 4, 4)
        for c, v in enumerate(b):
            np.testing.assert_array_equal(out[0, c], np.full((4, 4), v))

    def test_same_padding_preserves_spatial_shape(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 9, 11))
        k = rng.normal(size=(4, 3, 3, 3))
        out = reducer._conv3x3(x, k, np.zeros(4))
        assert out.shape == (2, 4, 9, 11)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = reducer._conv3x3(x, k, b)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros((2, 4, 6, 7))
        for n in range(2):
            for o in range(4):
                for i in range(6):
                    for j in range(7):
                        patch = xp[n, :, i:i + 3, j:j + 3]
                        want[n, o, i, j] = np.sum(patch * k[o]) + b[o]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out", [(1, 1), (1, 4), (3, 1), (3, 2)])
    def test_summation_order_is_pinned(self, c_in, c_out):
        # Trained numbers and checkpoint hashes depend on the rounding, so
        # the bytes must equal this order: bias first, taps row-major, and
        # each tap's channel products summed in index order before adding.
        rng = np.random.default_rng(100 * c_in + 10 * c_out + 3)
        x = rng.normal(size=(2, c_in, 7, 9))
        x[:, :, :, ::3] = 0.0
        x[:, :, 2] = 0.0
        k = rng.normal(size=(c_out, c_in, 3, 3))
        b = rng.normal(size=c_out)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))).tolist()
        kl, bl = k.tolist(), b.tolist()
        want = np.empty((2, c_out, 7, 9))
        for n in range(2):
            for o in range(c_out):
                for y in range(7):
                    for z in range(9):
                        acc = bl[o]
                        for i in range(3):
                            for j in range(3):
                                tap = xp[n][0][y + i][z + j] * kl[o][0][i][j]
                                for c in range(1, c_in):
                                    tap += xp[n][c][y + i][z + j] * kl[o][c][i][j]
                                acc += tap
                        want[n, o, y, z] = acc
        assert reducer._conv3x3(x, k, b).tobytes() == want.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        up = rng.normal(size=(2, 3, 5, 6))

        def loss(xv, kv, bv):
            return float(np.sum(reducer._conv3x3(xv, kv, bv) * up))

        d_x, d_k, d_b = reducer._conv3x3_backward(up, x, k)
        eps = 1e-6
        for arr, grad in ((x, d_x), (k, d_k), (b, d_b)):
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(12, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss(x, k, b)
                flat[i] = orig - eps
                lo = loss(x, k, b)
                flat[i] = orig
                assert grad.reshape(-1)[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestMaxPool:
    def test_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(reducer._maxpool(x), [[[[4.0]]]])

    def test_odd_dims_floor(self):
        x = np.arange(35.0).reshape(1, 1, 5, 7)
        out = reducer._maxpool(x)
        assert out.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [[8.0, 10.0, 12.0], [22.0, 24.0, 26.0]])

    def test_shape_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = int(rng.integers(2, 64))
            w = int(rng.integers(2, 64))
            x = rng.normal(size=(1, 2, h, w))
            assert reducer._maxpool(x).shape == (1, 2, h // 2, w // 2)

    def test_ties_route_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0)
        out = reducer._maxpool(x)
        np.testing.assert_array_equal(out, [[[[7.0]]]])
        grad = reducer._maxpool_backward(np.ones((1, 1, 1, 1)), x, out)
        np.testing.assert_array_equal(grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_backward_scatters_to_max_position(self):
        x = np.array([[[[1.0, 9.0, 0.0, 0.0], [2.0, 3.0, 0.0, 8.0]]]])
        out = reducer._maxpool(x)
        np.testing.assert_array_equal(out, [[[[9.0, 8.0]]]])
        grad = reducer._maxpool_backward(np.array([[[[5.0, -2.0]]]]), x, out)
        np.testing.assert_array_equal(grad, [[[[0.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0]]]])

    def test_cropped_tail_receives_zero_grad(self):
        x = np.arange(15.0).reshape(1, 1, 3, 5)
        out = reducer._maxpool(x)
        grad = reducer._maxpool_backward(np.ones_like(out), x, out)
        assert grad.shape == x.shape
        np.testing.assert_array_equal(grad[0, 0, 2, :], np.zeros(5))
        np.testing.assert_array_equal(grad[0, 0, :, 4], np.zeros(3))

    def test_matches_explicit_loop_on_tie_heavy_relu_output(self):
        # Several channels, odd H and W, exact-zero ReLU ties and rounded ties.
        rng = np.random.default_rng(17)
        x = relu(np.round(rng.normal(size=(3, 4, 9, 13)), 1))
        x[:, :, ::4, :] = 0.0
        up = rng.normal(size=(3, 4, 4, 6))
        ref_out = np.empty((3, 4, 4, 6))
        ref_grad = np.zeros_like(x)
        for n, c, i, j in np.ndindex(ref_out.shape):
            cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            best = max(cells, key=lambda cell: x[n, c][cell])  # first of equal maxima
            ref_out[n, c, i, j] = x[n, c][best]
            ref_grad[n, c][best] = up[n, c, i, j]
        out = reducer._maxpool(x)
        assert np.sum(x == 0.0) > x.size // 2
        assert out.tobytes() == ref_out.tobytes()
        assert reducer._maxpool_backward(up, x, out).tobytes() == ref_grad.tobytes()
