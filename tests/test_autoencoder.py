"""Autoencoder pyramid: shapes, skip identities, loss oracle values,
and gradient correctness via finite differences."""

import numpy as np
import pytest

from eegfpn import autoencoder as ae
from eegfpn import gradcheck
from eegfpn.errors import ConfigError, ShapeError


def zero_params(dims: ae.AeDims) -> ae.AeParams:
    p = ae.init_ae(dims, seed=0)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5", "w6", "b6"):
        getattr(p, name)[...] = 0.0
    return p


class TestInit:
    def test_deterministic_per_seed(self):
        dims = ae.AeDims(d=10, e1=8, e2=6, z=3)
        a = ae.init_ae(dims, seed=7)
        b = ae.init_ae(dims, seed=7)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w6, b.w6)
        c = ae.init_ae(dims, seed=8)
        assert not np.array_equal(a.w1, c.w1)

    def test_glorot_bound_and_zero_biases(self):
        dims = ae.AeDims(d=20, e1=12, e2=6, z=3)
        p = ae.init_ae(dims, seed=1)
        assert np.all(np.abs(p.w1) < np.sqrt(6.0 / (20 + 12)))
        for name in ("b1", "b2", "b3", "b4", "b5", "b6"):
            np.testing.assert_array_equal(getattr(p, name), 0.0)

    def test_shapes_mirror(self):
        p = ae.init_ae(ae.AeDims(d=10, e1=8, e2=6, z=3), seed=0)
        assert p.w1.shape == (8, 10)
        assert p.w2.shape == (6, 8)
        assert p.w3.shape == (3, 6)
        assert p.w4.shape == (6, 3)
        assert p.w5.shape == (8, 6)
        assert p.w6.shape == (10, 8)

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            ae.init_ae(ae.AeDims(d=10, e1=4, e2=6, z=3), seed=0)


class TestForward:
    def test_default_width_chain(self):
        p = ae.init_ae(ae.AeDims(d=64), seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(5, 64))
        trace = ae.ae_forward(x, p)
        assert trace.enc1.shape == (5, 128)
        assert trace.enc2.shape == (5, 64)
        assert trace.latent.shape == (5, 32)
        assert trace.dec1.shape == (5, 64)
        assert trace.dec2.shape == (5, 128)
        assert trace.recon.shape == (5, 64)

    def test_zero_params_give_half_reconstruction(self):
        dims = ae.AeDims(d=6, e1=5, e2=4, z=2)
        trace = ae.ae_forward(np.random.default_rng(1).uniform(size=(3, 6)),
                              zero_params(dims))
        np.testing.assert_array_equal(trace.enc1, 0.0)
        np.testing.assert_array_equal(trace.latent, 0.0)
        np.testing.assert_array_equal(trace.recon, 0.5)

    def test_bias_passthrough(self):
        dims = ae.AeDims(d=6, e1=5, e2=4, z=2)
        p = zero_params(dims)
        p.b1[...] = 3.25
        enc1, _, _ = ae.encode(np.zeros((2, 6)), p)
        np.testing.assert_array_equal(enc1, 3.25)

    def test_skip_identity_when_decoder_layer_is_zero(self):
        dims = ae.AeDims(d=6, e1=5, e2=4, z=2)
        p = ae.init_ae(dims, seed=3)
        p.w4[...] = 0.0
        p.b4[...] = 0.0
        x = np.random.default_rng(3).uniform(size=(4, 6))
        trace = ae.ae_forward(x, p)
        np.testing.assert_array_equal(trace.dec1_skip, trace.enc2)
        p.w5[...] = 0.0
        p.b5[...] = 0.0
        trace = ae.ae_forward(x, p)
        np.testing.assert_array_equal(trace.dec2_skip, trace.enc1)

    def test_relu_mode_confines_reconstruction(self):
        p = ae.init_ae(ae.AeDims(d=12, e1=8, e2=6, z=3), seed=5)
        x = np.random.default_rng(5).uniform(size=(8, 12))
        relu_recon = ae.ae_forward(x, p, "relu").recon
        assert np.all(relu_recon >= 0.5) and np.all(relu_recon < 1.0)
        linear_recon = ae.ae_forward(x, p, "linear").recon
        assert np.all((linear_recon > 0.0) & (linear_recon < 1.0))
        assert linear_recon.min() < 0.5  # linear mode can reach below

    def test_nonnegative_relu_activations(self):
        p = ae.init_ae(ae.AeDims(d=12, e1=8, e2=6, z=3), seed=9)
        trace = ae.ae_forward(np.random.default_rng(9).normal(size=(6, 12)), p)
        for name in ("enc1", "enc2", "latent", "dec1", "dec2", "dec3"):
            assert np.all(getattr(trace, name) >= 0.0), name

    def test_width_mismatch_raises(self):
        p = ae.init_ae(ae.AeDims(d=10, e1=8, e2=6, z=3), seed=0)
        with pytest.raises(ShapeError):
            ae.encode(np.zeros((2, 11)), p)

    def test_bad_activation_name(self):
        p = ae.init_ae(ae.AeDims(d=6, e1=5, e2=4, z=2), seed=0)
        with pytest.raises(ConfigError):
            ae.ae_forward(np.zeros((1, 6)), p, "tanh")

    def test_forward_is_deterministic(self):
        p = ae.init_ae(ae.AeDims(d=12, e1=8, e2=6, z=3), seed=2)
        x = np.random.default_rng(2).uniform(size=(3, 12))
        a = ae.ae_forward(x, p)
        b = ae.ae_forward(x, p)
        np.testing.assert_array_equal(a.recon, b.recon)


class TestReconstructionLoss:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).uniform(size=(4, 7))
        assert ae.reconstruction_loss(x, x) == 0.0

    def test_constant_offset(self):
        x = np.random.default_rng(1).uniform(0.0, 0.9, size=(4, 7))
        assert ae.reconstruction_loss(x + 0.1, x) == pytest.approx(0.01, abs=1e-12)

    def test_half_versus_balanced_binary(self):
        target = np.array([[0.0, 1.0, 0.0, 1.0]])
        assert ae.reconstruction_loss(np.full((1, 4), 0.5), target) == 0.25

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ae.reconstruction_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check(self, seed):
        report = gradcheck.check_autoencoder(seed)
        assert report.max_relative_error < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check_linear_mode(self, seed):
        report = gradcheck.check_autoencoder(seed, output_activation="linear")
        assert report.max_relative_error < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        p = ae.init_ae(ae.AeDims(d=8, e1=6, e2=4, z=2), seed=4)
        x = np.random.default_rng(4).uniform(size=(3, 8))
        trace = ae.ae_forward(x, p)
        g, d_x = ae.ae_backward(trace, np.zeros_like(trace.recon), p)
        for name in ("w1", "b3", "w4", "w6"):
            np.testing.assert_array_equal(getattr(g, name), 0.0)
        np.testing.assert_array_equal(d_x, 0.0)

    def test_skip_carries_gradient_when_decoder_path_dead(self):
        # With the first decoder layer zeroed its ReLU output is all zero,
        # so the only route from the loss back to the second encoder layer
        # is the additive skip; the encoder weights must still get signal.
        dims = ae.AeDims(d=8, e1=6, e2=4, z=2)
        p = ae.init_ae(dims, seed=6)
        p.w4[...] = 0.0
        p.b4[...] = 0.0
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(3, 8))
        target = rng.uniform(size=(3, 8))
        trace = ae.ae_forward(x, p)
        d_recon = 2.0 * (trace.recon - target) / target.size
        g, _ = ae.ae_backward(trace, d_recon, p)
        assert np.any(g.w2 != 0.0)
        # And the routing is numerically exact: finite differences on b2.
        eps = 1e-6
        for i in range(p.b2.size):
            p.b2[i] += eps
            hi = ae.reconstruction_loss(ae.ae_forward(x, p).recon, target)
            p.b2[i] -= 2 * eps
            lo = ae.reconstruction_loss(ae.ae_forward(x, p).recon, target)
            p.b2[i] += eps
            assert g.b2[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-8)

    def test_param_count_closed_form(self):
        # 8320+8256+2080+2112+8320+8256 for the paper-default widths at d=64.
        assert ae.count_ae_params(ae.AeDims(d=64)) == 37344
