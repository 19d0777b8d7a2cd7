"""Closed-form cost accounting checked against independent hand tallies."""

import pytest

from eegfpn import costing
from eegfpn.config import RunConfig
from eegfpn.errors import ConfigError
from eegfpn.gradcheck import toy_config
from eegfpn.model import init_model, n_params


class TestPrimitives:
    def test_dense_64_to_128(self):
        assert costing.dense_flops(64, 128) == 16512

    def test_dense_general(self):
        # 2*in*out multiply-adds plus one add per output for the bias.
        assert costing.dense_flops(3, 5) == 2 * 3 * 5 + 5

    def test_conv_counts_kernel_positions(self):
        # Same-padded 3x3, 1->8 channels over a 4x6 map.
        assert costing.conv_flops(3, 3, 1, 8, 4, 6) == 2 * 9 * 1 * 8 * 24 + 8 * 24

    def test_gru_step(self):
        f, h = 2, 4
        gates = 3 * (2 * f * h + 2 * h * h + 2 * h)
        assert costing.gru_step_flops(f, h) == gates + 9 * h


class TestParamCount:
    def test_matches_runtime_tally(self):
        config = toy_config()
        params = init_model(config, config.ch, config.t, seed=0)
        assert costing.count_params(config) == n_params(params)

    def test_odd_grid_matches_runtime_tally(self):
        config = RunConfig(ch=5, t=17, k=1, nsdru_hidden_channels=1)
        params = init_model(config, config.ch, config.t, seed=0)
        assert costing.count_params(config) == n_params(params)

    def test_default_widths_hand_tally(self):
        config = RunConfig(ch=8, t=16)
        d = 128
        ae = ((d * 128 + 128) + (128 * 64 + 64) + (64 * 32 + 32)
              + (32 * 64 + 64) + (64 * 128 + 128) + (128 * d + d))
        nsdru = (9 * 8 + 8) + (9 * 8 * 1 + 1)
        branch = 3 * (4 * 32 + 32 * 32 + 32)
        head = 32 * 2 + 2
        assert costing.count_params(config) == ae + nsdru + 6 * branch + head

    def test_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            costing.count_params(RunConfig(ch=1, t=16))


class TestFlopCount:
    def test_hand_tally_toy(self):
        config = toy_config()  # ch=4 t=16 e1=16 e2=8 z=4 h=4 k=2
        d = 64
        enc = costing.dense_flops(d, 16) + costing.dense_flops(16, 8) + costing.dense_flops(8, 4)
        dec = costing.dense_flops(4, 8) + costing.dense_flops(8, 16) + costing.dense_flops(16, d)
        conv = costing.conv_flops(3, 3, 1, 8, 4, 16) + costing.conv_flops(3, 3, 8, 1, 2, 8)
        gru = 2 * 8 * costing.gru_step_flops(2, 4)
        head = costing.dense_flops(4, 2)
        assert costing.count_flops(config) == enc + dec + conv + gru + head

    def test_independent_of_anything_but_config(self):
        config = toy_config()
        assert costing.count_flops(config) == costing.count_flops(toy_config())


class TestReport:
    def test_format_lists_convention(self):
        config = toy_config()
        text = costing.cost_report(config)
        assert f"trainable_params: {costing.count_params(config)}\n" in text
        assert f"flops_per_inference: {costing.count_flops(config)}\n" in text
        assert "MAC = 2 FLOPs" in text

    def test_timing_line_optional(self):
        assert "cpu_ms" not in costing.cost_report(toy_config())
