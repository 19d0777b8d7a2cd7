"""Activations and softmax checked against hand-computed values and
finite differences."""

import numpy as np
import pytest
from traced_memory import traced_peak_mib

from eegfpn import ops


class TestActivations:
    def test_relu_grad_zero_at_kink(self):
        # Subgradient convention: derivative 0 where the activation is 0.
        x = np.array([-1.0, 0.0, 2.0])
        a = np.maximum(x, 0.0)
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

    def test_sigmoid_is_bitwise_the_two_branch_formula(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, tiny, -tiny, 1e-310, -1e-310]
        x = np.concatenate([edges, np.random.default_rng(5).normal(scale=30.0, size=10**5)])
        z = np.exp(-np.abs(x))
        want = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
        assert ops.sigmoid(x).tobytes() == want.tobytes()
        assert ops.sigmoid(np.float64(-0.0)) == 0.5

    def test_sigmoid_peak_two_buffers(self):
        # The output and the shared denominator, plus x >= 0's mask.
        x = np.random.default_rng(6).normal(scale=30.0, size=(64, 32768))
        peak = traced_peak_mib(lambda: ops.sigmoid(x))
        assert peak < 2.25 * x.nbytes / 2**20, f"sigmoid peak {peak:.1f} MiB"

    def test_activation_grads_match_finite_differences(self):
        rng = np.random.default_rng(3)
        # Keep points away from the ReLU kink so the FD quotient is exact.
        x = rng.normal(size=200)
        x = x[np.abs(x) > 1e-3]
        eps = 1e-6
        fd = (np.maximum(x + eps, 0.0) - np.maximum(x - eps, 0.0)) / (2 * eps)
        np.testing.assert_allclose(ops.relu_grad(np.maximum(x, 0.0), np.ones_like(x)), fd,
                                   atol=1e-9)


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
