"""Pipeline assembly and the checkpoint format."""

import numpy as np
import pytest

from eegfpn import checkpoint, gradcheck
from eegfpn.config import RunConfig
from eegfpn.errors import FormatError, ShapeError
from eegfpn.model import (
    init_model,
    model_backward,
    model_forward,
    model_loss,
    n_params,
    pack_params,
    param_segments,
    unpack_params,
)


def toy():
    return gradcheck.toy_config()


class TestAssembly:
    def test_init_deterministic(self):
        config = toy()
        a = init_model(config, 4, 16, seed=9)
        b = init_model(config, 4, 16, seed=9)
        np.testing.assert_array_equal(pack_params(a), pack_params(b))

    def test_components_get_distinct_streams(self):
        params = init_model(toy(), 4, 16, seed=9)
        assert not np.array_equal(
            params.ae.w3[: params.head.w.shape[0], : params.head.w.shape[1]],
            params.head.w,
        )

    def test_forward_shapes(self):
        config = toy()
        params = init_model(config, 4, 16, seed=0)
        rows = np.random.default_rng(0).uniform(size=(3, 64))
        trace = model_forward(rows, 4, 16, params)
        assert trace.ae.recon.shape == (3, 64)
        assert trace.nsdru.act2.shape == (3, 1, 2, 8)
        assert trace.csie.aggregate.shape == (3, 4)
        assert trace.logits.shape == (3, 2)
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_row_width_checked(self):
        params = init_model(toy(), 4, 16, seed=0)
        with pytest.raises(ShapeError):
            model_forward(np.zeros((2, 63)), 4, 16, params)

    def test_loss_composition(self):
        config = toy()
        params = init_model(config, 4, 16, seed=1)
        rows = np.random.default_rng(1).uniform(size=(4, 64))
        labels = np.array([0, 1, 0, 1])
        trace = model_forward(rows, 4, 16, params)
        ce_only = model_loss(trace, labels, 0.0)
        joint = model_loss(trace, labels, 0.5)
        mse = float(np.mean((trace.ae.recon - trace.ae.x) ** 2))
        assert joint == pytest.approx(ce_only + 0.5 * mse, rel=1e-12)

    def test_pack_unpack_roundtrip(self):
        params = init_model(toy(), 4, 16, seed=2)
        theta = pack_params(params)
        rebuilt = unpack_params(theta + 1.0, params)
        np.testing.assert_array_equal(pack_params(rebuilt), theta + 1.0)
        # Original untouched.
        np.testing.assert_array_equal(pack_params(params), theta)

    def test_segment_order_documented(self):
        config = RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=4, k=2)
        params = init_model(config, 4, 16, seed=0)
        names = [name for name, _ in param_segments(params)]
        assert names[:4] == ["ae.w1", "ae.b1", "ae.w2", "ae.b2"]
        assert names[12:16] == [
            "nsdru.conv1_w", "nsdru.conv1_b", "nsdru.conv2_w", "nsdru.conv2_b"
        ]
        assert names[16] == "gru0.w_z"
        assert names[24] == "gru0.b_h"
        assert names[25] == "gru1.w_z"
        assert names[-2:] == ["head.w", "head.b"]

    def test_grad_segments_align(self):
        config = toy()
        params = init_model(config, 4, 16, seed=3)
        rows = np.random.default_rng(3).uniform(size=(2, 64))
        labels = np.array([0, 1])
        trace = model_forward(rows, 4, 16, params)
        grads = model_backward(trace, labels, params, 0.1)
        want = [(name, arr.shape) for name, arr in param_segments(params)]
        assert [(name, g.shape) for name, g in param_segments(grads)] == want

    @pytest.mark.parametrize("seed", gradcheck.FULL_PIPELINE_SEEDS)
    def test_full_pipeline_grad_check(self, seed):
        report = gradcheck.check_full_pipeline(seed)
        assert report.max_relative_error < 1e-4


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=5)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        back = checkpoint.load_checkpoint(path)
        np.testing.assert_array_equal(pack_params(back), pack_params(params))
        assert back.csie.k == params.csie.k

    def test_save_load_save_byte_identical(self, tmp_path):
        config = RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=4, k=3)
        params = init_model(config, 4, 16, seed=7)
        first, second = str(tmp_path / "a.cfpn"), str(tmp_path / "b.cfpn")
        checkpoint.save_checkpoint(params, first)
        back = checkpoint.load_checkpoint(first)
        assert back.csie.k == 3
        checkpoint.save_checkpoint(back, second)
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_save_leaves_neighbouring_tmp_file_alone(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=4)
        path = tmp_path / "model.cfpn"
        (tmp_path / "model.cfpn.tmp").write_bytes(b"someone else's file")
        checkpoint.save_checkpoint(params, str(path))
        assert (tmp_path / "model.cfpn.tmp").read_bytes() == b"someone else's file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.cfpn", "model.cfpn.tmp"]
        # Same permissions as a file made by a plain open(), not mkstemp's 0600.
        (tmp_path / "plain").write_bytes(b"")
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
        np.testing.assert_array_equal(
            pack_params(checkpoint.load_checkpoint(str(path))), pack_params(params)
        )

    def test_element_tally_matches_n_params(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=6)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        assert checkpoint.checkpoint_element_count(path) == n_params(params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfpn"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        (tmp_path / "v99.cfpn").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            checkpoint.load_checkpoint(str(tmp_path / "v99.cfpn"))

    def test_truncation_names_segment(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = open(path, "rb").read()
        (tmp_path / "cut.cfpn").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            checkpoint.load_checkpoint(str(tmp_path / "cut.cfpn"))
        assert "truncated" in str(err.value)

    def test_missing_segment_named(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        segments = checkpoint.read_segments(path)
        # Rebuild the file without the head weights.
        import struct
        chunks = [b"CFPN", struct.pack("<I", 1), struct.pack("<I", len(segments) - 1)]
        for name, arr in segments.items():
            if name == "head.w":
                continue
            enc = name.encode()
            chunks += [struct.pack("<B", len(enc)), enc, struct.pack("<I", arr.ndim),
                       struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        (tmp_path / "missing.cfpn").write_bytes(b"".join(chunks))
        with pytest.raises(FormatError, match="head.w"):
            checkpoint.load_checkpoint(str(tmp_path / "missing.cfpn"))

    def test_trailing_garbage_rejected(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = open(path, "rb").read() + b"\x00" * 8
        (tmp_path / "trail.cfpn").write_bytes(blob)
        with pytest.raises(FormatError, match="trailing"):
            checkpoint.load_checkpoint(str(tmp_path / "trail.cfpn"))
