"""Activations and softmax checked against hand-computed values and
finite differences."""

import numpy as np
import pytest
from traced_memory import traced_peak_mib

from eegfpn import ops


def two_branch_sigmoid(x):
    """1/(1+z) where x >= 0, z/(1+z) elsewhere, z = exp(-|x|)."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


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
        want = two_branch_sigmoid(x)
        assert ops.sigmoid(x).tobytes() == want.tobytes()
        assert ops.sigmoid(np.float64(-0.0)) == 0.5
        # In place: out= is x itself.
        y = x.copy()
        assert ops.sigmoid(y, out=y) is y
        assert y.tobytes() == want.tobytes()
        # A non-contiguous view, read into a fresh array and then in place;
        # the other column is not touched.
        pairs = np.stack([x, np.full_like(x, 7.0)], axis=1)
        view = pairs[:, 0]
        assert not view.flags.c_contiguous
        assert ops.sigmoid(view).tobytes() == want.tobytes()
        assert ops.sigmoid(view, out=view) is view
        assert view.tobytes() == want.tobytes()
        assert np.all(pairs[:, 1] == 7.0)
        # 0-d arrays, fresh and in place.
        for v in (-0.0, 0.0, -3.0, 3.0, -800.0, 800.0):
            a = np.array(v)
            assert ops.sigmoid(a).tobytes() == two_branch_sigmoid(a).tobytes()
            assert ops.sigmoid(a, out=a) is a
            assert a.shape == () and a.tobytes() == two_branch_sigmoid(np.array(v)).tobytes()

    def test_sigmoid_peak_two_buffers(self):
        # The output and the shared denominator; no mask, no masked copy.
        x = np.random.default_rng(6).normal(scale=30.0, size=(64, 32768))
        peak = traced_peak_mib(lambda: ops.sigmoid(x))
        assert peak < 2.25 * x.nbytes / 2**20, f"sigmoid peak {peak:.1f} MiB"

    def test_sigmoid_in_place_peak_one_buffer(self):
        # Written over x, only the denominator is allocated.
        x = np.random.default_rng(7).normal(scale=30.0, size=(64, 32768))
        peak = traced_peak_mib(lambda: ops.sigmoid(x, out=x))
        assert peak < 1.25 * x.nbytes / 2**20, f"in-place sigmoid peak {peak:.1f} MiB"

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
