"""Pipeline assembly and the checkpoint format."""

import dataclasses
import hashlib
import os
import struct
from pathlib import Path
from operator import attrgetter

import numpy as np
import pytest

from eegfpn import checkpoint, gradcheck, gru, head, reducer
from eegfpn.config import RunConfig
from eegfpn.errors import FormatError, ShapeError
from eegfpn.model import (
    init_model,
    init_params,
    model_backward,
    model_forward,
    model_loss,
    n_params,
    pack_params,
    param_segments,
    unpack_params,
)
from traced_memory import traced_peak_mib


def toy():
    return gradcheck.toy_config()


_BRANCH = init_params(gru.branch_shapes(2, 3), seed=0)
_HEAD = init_params(head.head_shapes(3), seed=0)
_MODEL = init_model(toy(), 4, 16, seed=0)

def alive_forward():
    """The toy model and its forward of three random rows, with conv2's
    kernel made non-negative so that act2 is not dead for every input."""
    params = init_model(toy(), 4, 16, seed=0)
    params.nsdru.conv2_w[...] = np.abs(params.nsdru.conv2_w)
    rows = np.random.default_rng(0).uniform(size=(3, 64))
    return params, model_forward(rows, 4, 16, params, "linear")


# Each layer entry point called with one sample and no batch axis. The
# reducer's entry is keyed by its first layer, the 3x3 conv2d.
UNBATCHED_CALLS = {
    "conv2d": lambda: reducer.nsdru_forward(np.zeros((1, 4, 4)), _MODEL.nsdru),
    "gru_step": lambda: gru.gru_step(np.zeros(2), np.zeros(3), _BRANCH),
    "csie_forward": lambda: gru.csie_forward(np.zeros((5, 2)), gru.CsieParams(branches=[_BRANCH])),
    "logits": lambda: head.logits(np.zeros(3), _HEAD),
    "cross_entropy": lambda: head.cross_entropy(np.array([0.5, 0.5]), 0),
    "model_forward": lambda: model_forward(np.zeros(64), 4, 16, _MODEL),
}


class TestAssembly:
    def test_init_deterministic(self):
        config = toy()
        a = init_model(config, 4, 16, seed=9)
        b = init_model(config, 4, 16, seed=9)
        np.testing.assert_array_equal(pack_params(a), pack_params(b))

    @pytest.mark.parametrize("config,digest", [
        (RunConfig(), "3a4446176762974d5a5393a1207bd03bf3806bcd14a9527a4cb5d10ae0bc409e"),
        (toy(), "d518709b2c3716fad8860e06fb7830e5c3874758fc0e0094b1262f07e60104d1"),
    ], ids=["default", "toy"])
    def test_init_pinned(self, config, digest):
        # Any change to the initialization rule, the seeding or the draw
        # order changes these digests; update them only on purpose.
        params = init_model(config, config.ch, config.t, seed=0)
        assert hashlib.sha256(pack_params(params).tobytes()).hexdigest() == digest

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
        # 4 x 8 rows fit their grid but not a model trained on 4 x 16.
        with pytest.raises(ShapeError, match=r"width 32 .*width 64"):
            model_forward(np.zeros((2, 32)), 4, 8, params)

    def test_reducer_sees_reconstruction_channel_major(self):
        _, trace = alive_forward()
        maps, recon = trace.nsdru.x[:, 0], trace.ae.recon
        assert maps.shape == (3, 4, 16)
        assert np.unique(recon).size == recon.size  # every index below means one value
        # A row holds channel 0's 16 samples, then channel 1's, and so on.
        np.testing.assert_array_equal(maps[:, 0, 0], recon[:, 0])
        np.testing.assert_array_equal(maps[:, 0, 15], recon[:, 15])
        np.testing.assert_array_equal(maps[:, 1, 0], recon[:, 16])
        np.testing.assert_array_equal(maps[:, 2, 5], recon[:, 37])
        np.testing.assert_array_equal(maps[:, 3, 15], recon[:, 63])

    def test_ensemble_sees_map_rows_as_features(self):
        _, trace = alive_forward()
        act2 = trace.nsdru.act2[:, 0]  # 2 compressed channels by 8 time columns
        inputs = trace.csie.inputs
        assert inputs.shape == (3, 8, 2)
        assert np.unique(act2).size == act2.size
        # Step j is column j; its features are the map's rows.
        np.testing.assert_array_equal(inputs[:, 0, 0], act2[:, 0, 0])
        np.testing.assert_array_equal(inputs[:, 0, 1], act2[:, 1, 0])
        np.testing.assert_array_equal(inputs[:, 3, 0], act2[:, 0, 3])
        np.testing.assert_array_equal(inputs[:, 7, 1], act2[:, 1, 7])

    def test_reducer_backward_gets_the_sequence_gradient_as_a_map(self, monkeypatch):
        seen = {}
        csie_backward, nsdru_backward = gru.csie_backward, reducer.nsdru_backward

        def keep_sequence_grad(*args):
            grads, seen["d_seq"] = csie_backward(*args)
            return grads, seen["d_seq"]

        def keep_map_grad(trace, upstream, p):
            seen["d_map"] = upstream
            return nsdru_backward(trace, upstream, p)

        monkeypatch.setattr(gru, "csie_backward", keep_sequence_grad)
        monkeypatch.setattr(reducer, "nsdru_backward", keep_map_grad)
        params, trace = alive_forward()
        model_backward(trace, [0, 1, 0], params, 0.1)
        d_seq, d_map = seen["d_seq"], seen["d_map"]
        assert d_seq.shape == (3, 8, 2)
        assert d_map.shape == (3, 1, 2, 8) and d_map.flags.c_contiguous
        assert np.unique(d_seq).size == d_seq.size
        np.testing.assert_array_equal(d_map[:, 0, 0, 0], d_seq[:, 0, 0])
        np.testing.assert_array_equal(d_map[:, 0, 1, 0], d_seq[:, 0, 1])
        np.testing.assert_array_equal(d_map[:, 0, 0, 3], d_seq[:, 3, 0])
        np.testing.assert_array_equal(d_map[:, 0, 1, 7], d_seq[:, 7, 1])

    @pytest.mark.parametrize("entry", sorted(UNBATCHED_CALLS))
    def test_layers_reject_unbatched_input(self, entry):
        with pytest.raises(ShapeError):
            UNBATCHED_CALLS[entry]()

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
        # The rebuilt arrays are views: a write into the vector shows through.
        views = unpack_params(theta, params)
        theta[-1] += 1.0
        assert views.head.b[-1] == theta[-1]

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


# (config, batch): the toy model at k = 2, 1 and 6, and the default
# 8 x 256 model at batch 64 with k = 6 and 1.
FORWARD_ONLY_CASES = {
    "toy-k2": (toy(), 3),
    "toy-k1": (dataclasses.replace(toy(), k=1), 3),
    "toy-k6": (dataclasses.replace(toy(), k=6), 3),
    "8x256-k6": (RunConfig(), 64),
    "8x256-k1": (RunConfig(k=1), 64),
}


def _ae_trace_bytes(trace):
    """Each field's arrays as (dtype, shape, bytes), None kept as None."""
    def key(a):
        return None if a is None else (a.dtype, a.shape, a.tobytes())

    out = {}
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        out[f.name] = [key(a) for a in value] if isinstance(value, list) else key(value)
    return out


class TestForwardOnly:
    """A forward with `keep_trace=False` keeps no GRU trace, and reads
    bitwise as the full forward does."""

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    @pytest.mark.parametrize("config, n", FORWARD_ONLY_CASES.values(),
                             ids=FORWARD_ONLY_CASES.keys())
    def test_matches_the_full_forward_bitwise(self, monkeypatch, config, n, activation):
        ch, t = config.ch, config.t
        params = init_model(config, ch, t, seed=0)
        params.nsdru.conv2_w[...] = np.abs(params.nsdru.conv2_w)
        rows = np.random.default_rng(1).uniform(size=(n, ch * t))
        calls, step = [0], gru.gru_step

        def counted(*args):
            calls[0] += 1
            return step(*args)

        monkeypatch.setattr(gru, "gru_step", counted)
        full = model_forward(rows, ch, t, params, activation)
        assert calls[0] == config.k * (t // 2)
        light = model_forward(rows, ch, t, params, activation, keep_trace=False)
        assert calls[0] == 2 * config.k * (t // 2)
        assert np.ptp(full.probs[:, 0]) > 0.0  # not a constant forward
        assert full.csie.update is not None
        for name in ("probs", "csie.aggregate", "ae.recon", "nsdru.act2"):
            assert attrgetter(name)(light).tobytes() == attrgetter(name)(full).tobytes(), name
        # The reducer has one forward: both traces hold its input and output.
        for trace in (full, light):
            assert [f.name for f in dataclasses.fields(trace.nsdru)] == ["x", "act2"]
        # The autoencoder has one forward: both traces hold the same arrays.
        assert _ae_trace_bytes(light.ae) == _ae_trace_bytes(full.ae)
        assert all(getattr(light.csie, f) is None for f in ("update", "reset", "cand", "hiddens"))

    def test_backward_of_a_forward_only_trace_rejected(self):
        params = init_model(toy(), 4, 16, seed=0)
        rows = np.random.default_rng(0).uniform(size=(3, 64))
        light = model_forward(rows, 4, 16, params, keep_trace=False)
        with pytest.raises(ValueError, match="keep_trace"):
            model_backward(light, [0, 1, 0], params, 0.1)

    def test_peak_memory(self):
        # The full trace of this batch holds about 50 MiB, most of it the
        # GRU's four (k, n, T, h) arrays; forward-only peaks at about 7.8.
        config = RunConfig()
        params = init_model(config, 8, 256, seed=0)
        rows = np.random.default_rng(1).uniform(size=(64, 8 * 256))
        peak = traced_peak_mib(lambda: model_forward(rows, 8, 256, params, keep_trace=False))
        assert peak < 16.0, f"forward-only peak {peak:.1f} MiB"


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
        assert Path(first).read_bytes() == Path(second).read_bytes()

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
        assert sum(arr.size for _, arr in checkpoint.read_segments(path)) == n_params(params)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cfpn"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            checkpoint.load_checkpoint(str(path))

    def test_unsupported_version(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = bytearray(Path(path).read_bytes())
        blob[4] = 99
        (tmp_path / "v99.cfpn").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            checkpoint.load_checkpoint(str(tmp_path / "v99.cfpn"))

    def test_truncation_names_segment(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = Path(path).read_bytes()
        (tmp_path / "cut.cfpn").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            checkpoint.load_checkpoint(str(tmp_path / "cut.cfpn"))
        assert "truncated" in str(err.value)

    @staticmethod
    def _rewrite(tmp_path, edit):
        """Save a model, then write its segments back as `edit` lists them."""
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        segments = edit(checkpoint.read_segments(path))
        chunks = [b"CFPN", struct.pack("<I", 1), struct.pack("<I", len(segments))]
        for name, arr in segments:
            enc = name.encode()
            chunks += [struct.pack("<B", len(enc)), enc, struct.pack("<I", arr.ndim),
                       struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        (tmp_path / "edited.cfpn").write_bytes(b"".join(chunks))
        return str(tmp_path / "edited.cfpn")

    def test_missing_segment_named(self, tmp_path):
        path = self._rewrite(
            tmp_path, lambda segs: [(n, a) for n, a in segs if n != "head.w"]
        )
        with pytest.raises(FormatError, match="head.w"):
            checkpoint.load_checkpoint(path)

    def test_reordered_segments_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, lambda segs: segs[::-1])
        with pytest.raises(FormatError, match="head.b"):
            checkpoint.load_checkpoint(path)

    def test_repeated_segment_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, lambda segs: segs + [("ae.w1", segs[0][1] + 1.0)])
        with pytest.raises(FormatError, match="ae.w1"):
            checkpoint.load_checkpoint(path)

    @pytest.mark.parametrize("name,arr", [
        ("head.b", np.array([0.7])),
        ("gru1.u_z", np.zeros((toy().h - 1, toy().h - 1))),
        ("ae.w1", np.zeros(64)),
    ], ids=["bias", "recurrent", "rank"])
    def test_wrong_shape_rejected(self, tmp_path, name, arr):
        path = self._rewrite(
            tmp_path, lambda segs: [(n, arr if n == name else a) for n, a in segs]
        )
        with pytest.raises(FormatError, match=rf"'{name}', \({arr.shape[0]},"):
            checkpoint.load_checkpoint(path)

    def test_bad_widths_rejected(self, tmp_path):
        # A bottleneck wider than the layer before it breaks e2 >= z.
        e2 = toy().e2
        path = self._rewrite(
            tmp_path,
            lambda segs: [(n, np.zeros((e2 + 1, e2)) if n == "ae.w3" else a) for n, a in segs],
        )
        with pytest.raises(FormatError, match="widths must satisfy"):
            checkpoint.load_checkpoint(path)

    def test_non_finite_rejected(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        params.head.w[0, 0] = np.nan
        params.head.b[1] = np.inf  # a later segment; the first one is named
        path = str(tmp_path / "nan.cfpn")
        checkpoint.save_checkpoint(params, path)
        with pytest.raises(FormatError, match="'head.w' holds a NaN"):
            checkpoint.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        params = init_model(toy(), 4, 16, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        blob = Path(path).read_bytes() + b"\x00" * 8
        (tmp_path / "trail.cfpn").write_bytes(blob)
        with pytest.raises(FormatError, match=f"8 trailing bytes at offset {len(blob) - 8}"):
            checkpoint.load_checkpoint(str(tmp_path / "trail.cfpn"))

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)])
    def test_oversized_header_rejected(self, tmp_path, dims):
        # The payload size is exact; an int64 product would wrap to a
        # small or zero size here.
        path = tmp_path / "huge.cfpn"
        path.write_bytes(
            b"CFPN" + struct.pack("<II", 1, 1) + struct.pack("<B", 5) + b"ae.w1"
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + b"\x00" * 64
        )
        with pytest.raises(FormatError, match=r"huge\.cfpn: truncated .*'ae\.w1' payload"):
            checkpoint.read_segments(str(path))

    def test_rank_numpy_cannot_hold_named(self, tmp_path):
        # Rank 65 is past numpy's limit: 64 on numpy 2, 32 on numpy 1.x.
        path = tmp_path / "deep.cfpn"
        path.write_bytes(
            b"CFPN" + struct.pack("<II", 1, 1) + struct.pack("<B", 5) + b"ae.w1"
            + struct.pack("<I65I", 65, *[1] * 65) + b"\x00" * 8
        )
        with pytest.raises(FormatError, match=r"deep\.cfpn: segment 'ae\.w1' has rank 65"):
            checkpoint.read_segments(str(path))

    def test_non_ascii_name_named(self, tmp_path):
        path = tmp_path / "latin.cfpn"
        path.write_bytes(
            b"CFPN" + struct.pack("<II", 1, 1) + struct.pack("<B", 2) + b"\xffa"
            + struct.pack("<II", 1, 1) + b"\x00" * 8
        )
        with pytest.raises(FormatError, match=r"latin\.cfpn: segment 0 name is not ASCII"):
            checkpoint.read_segments(str(path))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_rejected(self, tmp_path):
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(init_model(toy(), 4, 16, seed=0), path)
        blob = Path(path).read_bytes()
        assert len(blob) < 2**16  # fits the pipe's buffer, so no writer blocks
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, blob)
            os.close(write_end)
            with pytest.raises(FormatError, match="must be a regular file"):
                checkpoint.load_checkpoint(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)


class TestCheckpointMemory:
    """Loading reads each payload straight into its array and saving
    writes the arrays themselves, so neither stages the file's bytes."""

    @staticmethod
    def _saved(tmp_path):
        config = RunConfig(ch=32, t=256)
        params = init_model(config, config.ch, config.t, seed=0)
        path = str(tmp_path / "model.cfpn")
        checkpoint.save_checkpoint(params, path)
        return params, path

    def test_load_peak_near_file_size(self, tmp_path):
        _, path = self._saved(tmp_path)
        size = os.path.getsize(path) / 2**20
        peak = traced_peak_mib(lambda: checkpoint.load_checkpoint(path))
        assert peak <= 1.1 * size, f"file {size:.1f} MiB, load peak {peak:.1f} MiB"

    def test_save_stages_nothing(self, tmp_path):
        params, path = self._saved(tmp_path)
        peak = traced_peak_mib(lambda: checkpoint.save_checkpoint(params, path))
        assert peak < 1.0, f"save peak {peak:.2f} MiB"
