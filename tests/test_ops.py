"""Numeric kernels checked against hand-computed values and finite
differences."""

import numpy as np
import pytest

from eegfpn import ops
from eegfpn.errors import NumericError, ShapeError


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, -0.0, 0.0, 3.5])
        np.testing.assert_array_equal(ops.relu(x), [0.0, 0.0, 0.0, 3.5])

    def test_relu_grad_zero_at_kink(self):
        # Subgradient convention: derivative 0 where the activation is 0.
        x = np.array([-1.0, 0.0, 2.0])
        a = ops.relu(x)
        g = ops.relu_grad(a, np.ones_like(x))
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])

    def test_sigmoid_log3(self):
        assert ops.sigmoid(np.array([np.log(3.0)]))[0] == pytest.approx(0.75, abs=1e-15)

    def test_sigmoid_antisymmetry(self):
        # Identity up to one rounding step of the two branch divisions.
        x = np.linspace(-30.0, 30.0, 101)
        np.testing.assert_allclose(ops.sigmoid(x) + ops.sigmoid(-x), 1.0, atol=5e-16)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = ops.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-300)
        assert y[1] == pytest.approx(1.0, abs=1e-15)

    def test_activation_grads_match_finite_differences(self):
        rng = np.random.default_rng(3)
        # Keep points away from the ReLU kink so the FD quotient is exact.
        x = rng.normal(size=200)
        x = x[np.abs(x) > 1e-3]
        eps = 1e-6
        fd = (ops.relu(x + eps) - ops.relu(x - eps)) / (2 * eps)
        np.testing.assert_allclose(ops.relu_grad(ops.relu(x), np.ones_like(x)), fd, atol=1e-9)


class TestSoftmax:
    def test_log3_pair(self):
        p = ops.softmax(np.array([np.log(3.0), 0.0]))
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=10.0, size=(50, 7))
        p = ops.softmax(z, axis=-1)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(50), atol=1e-12)
        assert np.all(p >= 0.0)

    def test_large_logits_do_not_overflow(self):
        p = ops.softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(10, 4))
        np.testing.assert_allclose(
            ops.softmax(z, axis=-1), ops.softmax(z + 123.456, axis=-1), atol=1e-12
        )


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 6))
        k = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        np.testing.assert_allclose(ops.conv2d(x, k, b), x, atol=1e-12)

    def test_all_ones_kernel_counts_neighbourhood(self):
        x = np.ones((1, 1, 4, 4))
        k = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        out = ops.conv2d(x, k, b)
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
        out = ops.conv2d(x, k, b)
        assert out.shape == (1, 3, 4, 4)
        for c, v in enumerate(b):
            np.testing.assert_array_equal(out[0, c], np.full((4, 4), v))

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_same_padding_preserves_spatial_shape(self, ksize):
        rng = np.random.default_rng(ksize)
        x = rng.normal(size=(2, 3, 9, 11))
        k = rng.normal(size=(4, 3, ksize, ksize))
        out = ops.conv2d(x, k, np.zeros(4))
        assert out.shape == (2, 4, 9, 11)

    def test_matches_explicit_loop(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 3, 6, 7))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = ops.conv2d(x, k, b)
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
    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_summation_order_is_pinned(self, c_in, c_out, ksize):
        # Trained numbers and checkpoint hashes depend on the rounding, so
        # the bytes must equal this order: bias first, taps row-major, and
        # each tap's channel products summed in index order before adding.
        rng = np.random.default_rng(100 * c_in + 10 * c_out + ksize)
        x = rng.normal(size=(2, c_in, 7, 9))
        x[:, :, :, ::3] = 0.0
        x[:, :, 2] = 0.0
        k = rng.normal(size=(c_out, c_in, ksize, ksize))
        b = rng.normal(size=c_out)
        r = ksize // 2
        xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r))).tolist()
        kl, bl = k.tolist(), b.tolist()
        want = np.empty((2, c_out, 7, 9))
        for n in range(2):
            for o in range(c_out):
                for y in range(7):
                    for z in range(9):
                        acc = bl[o]
                        for i in range(ksize):
                            for j in range(ksize):
                                tap = xp[n][0][y + i][z + j] * kl[o][0][i][j]
                                for c in range(1, c_in):
                                    tap += xp[n][c][y + i][z + j] * kl[o][c][i][j]
                                acc += tap
                        want[n, o, y, z] = acc
        assert ops.conv2d(x, k, b).tobytes() == want.tobytes()

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ops.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        up = rng.normal(size=(2, 3, 5, 6))

        def loss(xv, kv, bv):
            return float(np.sum(ops.conv2d(xv, kv, bv) * up))

        d_x, d_k, d_b = ops.conv2d_backward(up, x, k)
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
        np.testing.assert_array_equal(ops.maxpool2d(x), [[[[4.0]]]])

    def test_odd_dims_floor(self):
        x = np.arange(35.0).reshape(1, 1, 5, 7)
        out = ops.maxpool2d(x)
        assert out.shape == (1, 1, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [[8.0, 10.0, 12.0], [22.0, 24.0, 26.0]])

    def test_shape_property(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            h = int(rng.integers(2, 64))
            w = int(rng.integers(2, 64))
            x = rng.normal(size=(1, 2, h, w))
            assert ops.maxpool2d(x).shape == (1, 2, h // 2, w // 2)

    def test_ties_route_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0)
        out = ops.maxpool2d(x)
        np.testing.assert_array_equal(out, [[[[7.0]]]])
        grad = ops.maxpool2d_backward(np.ones((1, 1, 1, 1)), x, out)
        np.testing.assert_array_equal(grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_backward_scatters_to_max_position(self):
        x = np.array([[[[1.0, 9.0, 0.0, 0.0], [2.0, 3.0, 0.0, 8.0]]]])
        out = ops.maxpool2d(x)
        np.testing.assert_array_equal(out, [[[[9.0, 8.0]]]])
        grad = ops.maxpool2d_backward(np.array([[[[5.0, -2.0]]]]), x, out)
        np.testing.assert_array_equal(grad, [[[[0.0, 5.0, 0.0, 0.0], [0.0, 0.0, 0.0, -2.0]]]])

    def test_cropped_tail_receives_zero_grad(self):
        x = np.arange(15.0).reshape(1, 1, 3, 5)
        out = ops.maxpool2d(x)
        grad = ops.maxpool2d_backward(np.ones_like(out), x, out)
        assert grad.shape == x.shape
        np.testing.assert_array_equal(grad[0, 0, 2, :], np.zeros(5))
        np.testing.assert_array_equal(grad[0, 0, :, 4], np.zeros(3))

    def test_matches_explicit_loop_on_tie_heavy_relu_output(self):
        # Several channels, odd H and W, exact-zero ReLU ties and rounded ties.
        rng = np.random.default_rng(17)
        x = ops.relu(np.round(rng.normal(size=(3, 4, 9, 13)), 1))
        x[:, :, ::4, :] = 0.0
        up = rng.normal(size=(3, 4, 4, 6))
        ref_out = np.empty((3, 4, 4, 6))
        ref_grad = np.zeros_like(x)
        for n, c, i, j in np.ndindex(ref_out.shape):
            cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            best = max(cells, key=lambda cell: x[n, c][cell])  # first of equal maxima
            ref_out[n, c, i, j] = x[n, c][best]
            ref_grad[n, c][best] = up[n, c, i, j]
        out = ops.maxpool2d(x)
        assert np.sum(x == 0.0) > x.size // 2
        assert out.tobytes() == ref_out.tobytes()
        assert ops.maxpool2d_backward(up, x, out).tobytes() == ref_grad.tobytes()


class TestGradCheck:
    def test_quadratic_is_exact_to_fd_accuracy(self):
        theta = np.array([1.0, 2.0])
        report = ops.grad_check(
            lambda p: float(np.sum(p ** 2)), lambda p: 2.0 * p, theta
        )
        assert report.max_relative_error < 1e-8
        assert report.epsilon_used == 1e-5

    def test_constant_loss_has_zero_error(self):
        theta = np.array([3.0, -1.0, 0.5])
        report = ops.grad_check(lambda p: 4.2, lambda p: np.zeros_like(p), theta)
        assert report.max_relative_error == 0.0

    def test_wrong_gradient_is_flagged(self):
        theta = np.array([1.5])
        report = ops.grad_check(
            lambda p: float(np.sum(p ** 2)), lambda p: 3.0 * p, theta
        )
        assert report.max_relative_error > 0.2
        assert report.worst_parameter_index == 0

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NumericError):
            ops.grad_check(lambda p: float("nan"), lambda p: p, np.array([1.0]))

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            ops.grad_check(lambda p: 0.0, lambda p: p, np.array([1.0]), epsilon=0.0)
