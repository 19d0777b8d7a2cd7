"""Autoencoder pyramid: shapes, skip identities, loss oracle values,
and gradient correctness via finite differences."""

import re

import numpy as np
import pytest

from eegfpn import autoencoder as ae
from eegfpn import gradcheck
from eegfpn.errors import ConfigError, ShapeError
from eegfpn.model import init_params, n_params
from eegfpn.ops import relu_grad, sigmoid
from traced_memory import traced_peak_mib


PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5", "w6", "b6")


def init_ae(widths: tuple, seed: int) -> ae.AeParams:
    """Parameters for ae_shapes(d, e1, e2, z) given as one tuple."""
    return init_params(ae.ae_shapes(*widths), seed)


def zero_params(widths: tuple) -> ae.AeParams:
    p = init_ae(widths, seed=0)
    for name in PARAM_NAMES:
        getattr(p, name)[...] = 0.0
    return p


def relu(v):
    return np.maximum(v, 0.0)


def unrolled_forward(x, p, output_activation):
    """The pyramid written out layer by layer: the algebra `ae_forward`'s
    loop must reproduce bit for bit."""
    def dense(v, w, b):
        return v @ w.T + b

    enc1 = relu(dense(x, p.w1, p.b1))
    enc2 = relu(dense(enc1, p.w2, p.b2))
    latent = relu(dense(enc2, p.w3, p.b3))
    dec1 = relu(dense(latent, p.w4, p.b4))
    dec1_skip = dec1 + enc2
    dec2 = relu(dense(dec1_skip, p.w5, p.b5))
    dec2_skip = dec2 + enc1
    pre = dense(dec2_skip, p.w6, p.b6)
    dec3 = relu(pre) if output_activation == "relu" else pre
    return dict(
        x=x, enc1=enc1, enc2=enc2, latent=latent, dec1=dec1, dec1_skip=dec1_skip,
        dec2=dec2, dec2_skip=dec2_skip, dec3=dec3, recon=sigmoid(dec3),
    )


def unrolled_backward(a, d_recon, p, output_activation):
    """The reverse of `unrolled_forward`, block by block, in the operand
    order `ae_backward` must keep."""
    d_dec3 = d_recon * a["recon"] * (1.0 - a["recon"])
    if output_activation == "relu":
        d_dec3 = relu_grad(a["dec3"], d_dec3)
    d_w6, d_b6 = d_dec3.T @ a["dec2_skip"], d_dec3.sum(axis=0)
    d_dec2_skip = d_dec3 @ p.w6
    d_dec2 = relu_grad(a["dec2"], d_dec2_skip)
    d_w5, d_b5 = d_dec2.T @ a["dec1_skip"], d_dec2.sum(axis=0)
    d_dec1_skip = d_dec2 @ p.w5
    d_dec1 = relu_grad(a["dec1"], d_dec1_skip)
    d_w4, d_b4 = d_dec1.T @ a["latent"], d_dec1.sum(axis=0)
    d_latent = d_dec1 @ p.w4
    d_pre3 = relu_grad(a["latent"], d_latent)
    d_w3, d_b3 = d_pre3.T @ a["enc2"], d_pre3.sum(axis=0)
    d_enc2 = d_pre3 @ p.w3 + d_dec1_skip
    d_pre2 = relu_grad(a["enc2"], d_enc2)
    d_w2, d_b2 = d_pre2.T @ a["enc1"], d_pre2.sum(axis=0)
    d_enc1 = d_pre2 @ p.w2 + d_dec2_skip
    d_pre1 = relu_grad(a["enc1"], d_enc1)
    d_w1, d_b1 = d_pre1.T @ a["x"], d_pre1.sum(axis=0)
    return ae.AeParams(
        w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2, w3=d_w3, b3=d_b3,
        w4=d_w4, b4=d_b4, w5=d_w5, b5=d_b5, w6=d_w6, b6=d_b6,
    )


class TestAgainstUnrolled:
    @pytest.mark.parametrize("output_activation", ae.OUTPUT_ACTIVATIONS)
    @pytest.mark.parametrize("widths", [
        (12, 8, 6, 3),
        (64, 128, 64, 32),
        (9, 5, 5, 5),
    ], ids=str)
    def test_bitwise_equal(self, widths, output_activation):
        d = widths[0]
        p = init_ae(widths, seed=d)
        rng = np.random.default_rng(d)
        for name in PARAM_NAMES[1::2]:  # biases that gate some ReLUs shut
            getattr(p, name)[...] = rng.normal(scale=0.5, size=getattr(p, name).shape)
        p.b6[...] = rng.normal(size=d)  # both signs ahead of the output ReLU
        x = rng.uniform(size=(7, d))
        d_recon = rng.normal(size=(7, d))

        trace = ae.ae_forward(x, p, output_activation)
        ref = unrolled_forward(x, p, output_activation)
        np.testing.assert_array_equal(trace.recon, ref["recon"])
        for gate, name in zip(trace.gates, ("enc1", "enc2", "latent", "dec1", "dec2", "dec3")):
            if name == "dec3" and output_activation == "linear":
                assert gate is None
            else:
                np.testing.assert_array_equal(gate, ref[name] > 0.0)
        for inp, name in zip(trace.inputs, ("x", "enc1", "enc2", "latent", "dec1_skip", "dec2_skip")):
            np.testing.assert_array_equal(inp, ref[name])
        # The trace shares the input instead of copying it, and keeps one
        # bool per ReLU output.
        assert trace.inputs[0] is trace.x
        masks = [g for g in trace.gates if g is not None]
        assert all(g.dtype == np.bool_ for g in masks)
        assert 0.0 < np.mean(np.concatenate([g.ravel() for g in masks])) < 1.0

        got = ae.ae_backward(trace, d_recon, p)
        want = unrolled_backward(ref, d_recon, p, output_activation)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestInit:
    def test_deterministic_per_seed(self):
        widths = (10, 8, 6, 3)
        a = init_ae(widths, seed=7)
        b = init_ae(widths, seed=7)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w6, b.w6)
        c = init_ae(widths, seed=8)
        assert not np.array_equal(a.w1, c.w1)

    def test_glorot_bound_and_zero_biases(self):
        widths = (20, 12, 6, 3)
        p = init_ae(widths, seed=1)
        assert np.all(np.abs(p.w1) < np.sqrt(6.0 / (20 + 12)))
        for name in ("b1", "b2", "b3", "b4", "b5", "b6"):
            np.testing.assert_array_equal(getattr(p, name), 0.0)

    def test_shapes_mirror(self):
        p = init_ae((10, 8, 6, 3), seed=0)
        assert p.w1.shape == (8, 10)
        assert p.w2.shape == (6, 8)
        assert p.w3.shape == (3, 6)
        assert p.w4.shape == (6, 3)
        assert p.w5.shape == (8, 6)
        assert p.w6.shape == (10, 8)

    def test_rejects_bad_widths(self):
        with pytest.raises(ConfigError):
            init_ae((10, 4, 6, 3), seed=0)


class TestForward:
    def test_default_width_chain(self):
        p = init_ae((64, 128, 64, 32), seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(5, 64))
        trace = ae.ae_forward(x, p)
        assert [g.shape for g in trace.gates] == [
            (5, 128), (5, 64), (5, 32), (5, 64), (5, 128), (5, 64)
        ]
        assert [i.shape for i in trace.inputs] == [
            (5, 64), (5, 128), (5, 64), (5, 32), (5, 64), (5, 128)
        ]
        assert trace.recon.shape == (5, 64)

    def test_zero_params_give_half_reconstruction(self):
        widths = (6, 5, 4, 2)
        trace = ae.ae_forward(np.random.default_rng(1).uniform(size=(3, 6)),
                              zero_params(widths))
        np.testing.assert_array_equal(trace.inputs[1], 0.0)  # first encoder layer
        np.testing.assert_array_equal(trace.inputs[3], 0.0)  # bottleneck
        assert not np.any(trace.gates[0]) and not np.any(trace.gates[2])
        np.testing.assert_array_equal(trace.recon, 0.5)

    def test_bias_passthrough(self):
        widths = (6, 5, 4, 2)
        p = zero_params(widths)
        p.b1[...] = 3.25
        trace = ae.ae_forward(np.zeros((2, 6)), p)
        np.testing.assert_array_equal(trace.inputs[1], 3.25)  # layer 1's output
        assert np.all(trace.gates[0])

    def test_skip_identity_when_decoder_layer_is_zero(self):
        widths = (6, 5, 4, 2)
        p = init_ae(widths, seed=3)
        p.w4[...] = 0.0
        p.b4[...] = 0.0
        x = np.random.default_rng(3).uniform(size=(4, 6))
        trace = ae.ae_forward(x, p)
        # Layer 5 reads layer 4's output, now zero, plus layer 2's.
        assert not np.any(trace.gates[3])
        np.testing.assert_array_equal(trace.inputs[4], trace.inputs[2])
        p.w5[...] = 0.0
        p.b5[...] = 0.0
        trace = ae.ae_forward(x, p)
        # Layer 6 reads layer 5's output, now zero, plus layer 1's.
        assert not np.any(trace.gates[4])
        np.testing.assert_array_equal(trace.inputs[5], trace.inputs[1])

    def test_relu_mode_confines_reconstruction(self):
        p = init_ae((12, 8, 6, 3), seed=5)
        x = np.random.default_rng(5).uniform(size=(8, 12))
        relu_recon = ae.ae_forward(x, p, "relu").recon
        assert np.all(relu_recon >= 0.5) and np.all(relu_recon < 1.0)
        linear_recon = ae.ae_forward(x, p, "linear").recon
        assert np.all((linear_recon > 0.0) & (linear_recon < 1.0))
        assert linear_recon.min() < 0.5  # linear mode can reach below

    def test_nonnegative_relu_activations(self):
        p = init_ae((12, 8, 6, 3), seed=9)
        trace = ae.ae_forward(np.random.default_rng(9).normal(size=(6, 12)), p)
        assert len(trace.gates) == 6
        # Layers 2-6 read ReLU outputs, or their sums with a skip.
        for n, inp in enumerate(trace.inputs[1:], start=2):
            assert np.all(inp >= 0.0), n
        assert np.all(trace.recon >= 0.5)  # the sigmoid of a ReLU output

    def test_width_mismatch_raises(self):
        p = init_ae((10, 8, 6, 3), seed=0)
        with pytest.raises(ShapeError):
            ae.ae_forward(np.zeros((2, 11)), p)

    def test_bad_activation_name(self):
        p = init_ae((6, 5, 4, 2), seed=0)
        with pytest.raises(ConfigError):
            ae.ae_forward(np.zeros((1, 6)), p, "tanh")

    def test_forward_peak_at_a_wide_layer(self):
        # Above its inputs, the forward holds layer 6's output and its ReLU
        # mask, and the sigmoid, written over that output block by block,
        # one block's denominator: about 1.25 reconstructions (5.06 MiB of
        # a 4 MiB reconstruction; 8.56 MiB when the sigmoid's denominator
        # was a whole second reconstruction).
        p = init_ae((32768, 128, 64, 32), seed=0)
        x = np.random.default_rng(0).uniform(size=(16, 32768))
        peak = traced_peak_mib(lambda: ae.ae_forward(x, p))
        assert peak < 1.5 * x.nbytes / 2**20, f"forward peak {peak:.1f} MiB"

    @pytest.mark.parametrize("activation", ae.OUTPUT_ACTIVATIONS)
    def test_sigmoid_blocks_do_not_change_the_reconstruction(self, monkeypatch, activation):
        # Blocks of 3 elements on rows of 7 run one row per call; the
        # sigmoid is element-wise, so every block size gives the same bytes.
        p = init_ae((7, 5, 4, 2), seed=3)
        x = np.random.default_rng(3).normal(size=(9, 7))
        whole = ae.ae_forward(x, p, activation).recon
        monkeypatch.setattr(ae, "SIGMOID_BLOCK", 3)
        blocked = ae.ae_forward(x, p, activation).recon
        assert blocked.tobytes() == whole.tobytes()
        monkeypatch.setattr(ae, "SIGMOID_BLOCK", 15)  # two rows per call, one left over
        assert ae.ae_forward(x, p, activation).recon.tobytes() == whole.tobytes()

    def test_forward_is_deterministic(self):
        p = init_ae((12, 8, 6, 3), seed=2)
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
        assert gradcheck.check_autoencoder(seed) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_check_linear_mode(self, seed):
        assert gradcheck.check_autoencoder(seed, output_activation="linear") < 1e-4

    def test_backward_follows_the_forward_activation(self):
        # A linear output layer keeps no mask, so the backward passes
        # gradient through negative pre-activations, which a relu would mask.
        p = init_ae((8, 6, 4, 2), seed=3)
        p.b6[...] = -5.0
        x = np.random.default_rng(3).uniform(size=(3, 8))
        trace = ae.ae_forward(x, p, "linear")
        assert trace.gates[5] is None
        assert np.all(trace.recon < 0.5)  # the output layer was negative
        g = ae.ae_backward(trace, np.ones_like(trace.recon), p)
        np.testing.assert_allclose(g.b6, (trace.recon * (1.0 - trace.recon)).sum(axis=0))

    def test_zero_upstream_gives_zero_grads(self):
        p = init_ae((8, 6, 4, 2), seed=4)
        x = np.random.default_rng(4).uniform(size=(3, 8))
        trace = ae.ae_forward(x, p)
        g = ae.ae_backward(trace, np.zeros_like(trace.recon), p)
        for name in ("w1", "b3", "w4", "w6"):
            np.testing.assert_array_equal(getattr(g, name), 0.0)

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (1, 12)],
                             ids=["rank-1", "one-column", "one-row"])
    def test_wrong_upstream_shape_rejected(self, shape):
        # Each of these would broadcast against the (3, 12) reconstruction.
        p = init_ae((12, 8, 6, 3), seed=5)
        trace = ae.ae_forward(np.random.default_rng(5).uniform(size=(3, 12)), p)
        with pytest.raises(ShapeError, match=re.escape(f"{shape}") + ".*" + re.escape("(3, 12)")):
            ae.ae_backward(trace, np.ones(shape), p)

    def test_skip_carries_gradient_when_decoder_path_dead(self):
        # With the first decoder layer zeroed its ReLU output is all zero,
        # so the only route from the loss back to the second encoder layer
        # is the additive skip; the encoder weights must still get signal.
        widths = (8, 6, 4, 2)
        p = init_ae(widths, seed=6)
        p.w4[...] = 0.0
        p.b4[...] = 0.0
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(3, 8))
        target = rng.uniform(size=(3, 8))
        trace = ae.ae_forward(x, p)
        d_recon = 2.0 * (trace.recon - target) / target.size
        g = ae.ae_backward(trace, d_recon, p)
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
        assert n_params(init_ae((64, 128, 64, 32), seed=0)) == 37344
