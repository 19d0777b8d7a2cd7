"""Signal path tests. Filter design is cross-checked against an
independent SciPy implementation of the same Butterworth bandpass."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy.signal

from eegfpn import signals
from eegfpn.errors import ConfigError, FormatError
from eegfpn.signals import BiquadCascade, Epoch, FilterSpec
from filter_response import freq_response, poles


class TestFilterDesign:
    @pytest.mark.parametrize(
        "f_low,f_high,order,fs",
        [(0.5, 30.0, 4, 500.0), (0.5, 30.0, 4, 250.0), (1.0, 40.0, 6, 200.0),
         (4.0, 8.0, 2, 128.0), (0.5, 45.0, 8, 1000.0)],
    )
    def test_magnitude_matches_scipy(self, f_low, f_high, order, fs):
        cascade = signals.design_bandpass(FilterSpec(f_low, f_high, order), fs)
        # scipy's N counts pole pairs for bandpass; total poles = 2N = order.
        sos = scipy.signal.butter(
            order // 2, [f_low, f_high], btype="bandpass", fs=fs, output="sos"
        )
        freqs = np.linspace(0.05, fs / 2 * 0.98, 512)
        ours = np.abs(freq_response(cascade, freqs, fs))
        _, h = scipy.signal.sosfreqz(sos, worN=2 * np.pi * freqs / fs)
        np.testing.assert_allclose(ours, np.abs(h), atol=1e-8)

    def test_pole_radii_match_scipy(self):
        fs = 500.0
        cascade = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), fs)
        sos = scipy.signal.butter(2, [0.5, 30.0], btype="bandpass", fs=fs, output="sos")
        ours = np.sort(np.abs(poles(cascade)))
        theirs = np.sort(np.abs(np.concatenate([np.roots(s[3:]) for s in sos])))
        np.testing.assert_allclose(ours, theirs, atol=1e-9)
        assert ours.max() < 1.0

    def test_section_count_and_order(self):
        cascade = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), 500.0)
        assert cascade.sections.shape == (2, 5)
        assert len(poles(cascade)) == 4
        cascade6 = signals.design_bandpass(FilterSpec(0.5, 30.0, 6), 500.0)
        assert cascade6.sections.shape == (3, 5)

    def test_unit_gain_at_center(self):
        fs = 500.0
        spec = FilterSpec(0.5, 30.0, 4)
        cascade = signals.design_bandpass(spec, fs)
        # The normalization point is the prewarped geometric center.
        wl = 2 * fs * np.tan(np.pi * spec.f_low / fs)
        wh = 2 * fs * np.tan(np.pi * spec.f_high / fs)
        theta = 2 * np.arctan(np.sqrt(wl * wh) / (2 * fs))
        fc = theta * fs / (2 * np.pi)
        mag = np.abs(freq_response(cascade, [fc], fs))[0]
        assert mag == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigError):
            signals.design_bandpass(FilterSpec(30.0, 0.5, 4), 500.0)
        with pytest.raises(ConfigError):
            signals.design_bandpass(FilterSpec(0.5, 30.0, 3), 500.0)
        with pytest.raises(ConfigError):
            signals.design_bandpass(FilterSpec(0.5, 300.0, 4), 500.0)  # Nyquist


class TestZeroPhaseFiltering:
    def setup_method(self):
        self.fs = 500.0
        self.cascade = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), self.fs)

    def _tone(self, freq, t=4096, ch=2, dc=0.0):
        times = np.arange(t) / self.fs
        return np.sin(2 * np.pi * freq * times)[None, :] * np.ones((ch, 1)) + dc

    def _steady_amplitude(self, x, freq):
        out = signals.apply_bandpass(x, self.cascade)
        core = out[0, 1024:-1024]
        return np.sqrt(2.0 * np.mean(core ** 2))

    def test_passband_response_flat(self):
        # Flatness is a property of the designed response; the applied
        # filter doubles the attenuation (forward + reverse pass).
        mags = np.abs(freq_response(self.cascade, [5.0, 10.0, 15.0, 20.0], self.fs))
        assert np.all(mags >= 0.9) and np.all(mags <= 1.05), mags

    def test_passband_tone_rms_preserved(self):
        # Mid-passband tone through the applied (forward + reverse) filter:
        # steady-state output/input RMS ratio stays within 5 percent. The
        # input is a unit sine, so the amplitude estimate IS that ratio.
        ratio = self._steady_amplitude(self._tone(10.0), 10.0)
        assert 0.95 <= ratio <= 1.05, ratio

    def test_stopband_tone_attenuated(self):
        # Stopband bound holds after the zero-phase double pass.
        amp = self._steady_amplitude(self._tone(60.0), 60.0)
        assert 20 * np.log10(amp) <= -20.0

    def test_dc_removed(self):
        out = signals.apply_bandpass(np.ones((3, 4096)), self.cascade)
        assert np.abs(np.mean(out[:, 1024:-1024])) < 0.02

    def test_pulse_output_symmetric(self):
        # Zero phase: the impulse response through forward+reverse passes
        # is symmetric about the pulse location.
        t = 2001
        x = np.zeros((1, t))
        x[0, t // 2] = 1.0
        out = signals.apply_bandpass(x, self.cascade)[0]
        peak = int(np.argmax(np.abs(out)))
        assert abs(peak - t // 2) <= 1
        # Mirror symmetry is approximate: the reverse pass is truncated at
        # the record edges, leaving a small residual.
        w = 400
        left = out[t // 2 - w : t // 2]
        right = out[t // 2 + 1 : t // 2 + 1 + w][::-1]
        np.testing.assert_allclose(left, right, atol=1e-5)

    def test_preserves_metadata(self):
        # A plain array carries its shape as its only metadata: every leading
        # axis is kept, and each signal is filtered on its own, so one epoch
        # of a stacked (n, ch, t) array equals that epoch filtered alone.
        x = np.random.default_rng(3).normal(size=(3, 2, 256)).astype(np.float32)
        out = signals.apply_bandpass(x, self.cascade)
        assert out.shape == x.shape and out.dtype == np.float64
        np.testing.assert_array_equal(out[1], signals.apply_bandpass(x[1], self.cascade))

    def test_input_left_unchanged(self):
        # Past OPERATOR_MAX_T the cascade runs in place on a copy; a (1, t)
        # input is the case where a transposed view would already count as
        # contiguous.
        x = np.random.default_rng(5).normal(size=(1, signals.OPERATOR_MAX_T + 1))
        before = x.copy()
        signals.apply_bandpass(x, self.cascade)
        np.testing.assert_array_equal(x, before)

    def test_matches_scipy_filtfilt_steady_state(self):
        # Both zero-phase routes settle to the same interior once the slow
        # 0.5 Hz edge transient (pole radius ~0.996) has decayed; the two
        # differ only in how they treat the record edges.
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 15000))
        ours = signals.apply_bandpass(x, self.cascade)
        sos = scipy.signal.butter(2, [0.5, 30.0], btype="bandpass", fs=self.fs, output="sos")
        theirs = scipy.signal.sosfiltfilt(sos, x, axis=1, padlen=0)
        np.testing.assert_allclose(
            ours[:, 5000:-5000], theirs[:, 5000:-5000], atol=1e-7
        )


    # T on both sides of OPERATOR_MAX_T: the operator and the cascade.
    @pytest.mark.parametrize("t", [4, 256, 1024, 1025])
    @pytest.mark.parametrize("fs", [250.0, 1000.0])
    def test_zero_state_forward_then_time_reversed_pass(self, fs, t):
        # The edges are not padded: the filter is sosfilt from a zero state,
        # then sosfilt from a zero state over the time-reversed result.
        # README "Filter edges" gives how far that sits from sosfiltfilt.
        x = np.random.default_rng(0).normal(size=(64, t))
        cascade = signals.design_bandpass(FilterSpec(), fs)
        sos = np.insert(cascade.sections, 3, 1.0, axis=1)  # scipy's a0 = 1
        forward = scipy.signal.sosfilt(sos, x, axis=-1)
        expected = scipy.signal.sosfilt(sos, forward[:, ::-1], axis=-1)[:, ::-1]
        np.testing.assert_allclose(
            signals.apply_bandpass(x, cascade), expected, rtol=0, atol=1e-12
        )

    def test_operator_cached_read_only_and_per_rate(self):
        key = self.cascade.sections.tobytes()
        op = signals._zero_phase_operator(key, 256)
        assert signals._zero_phase_operator(key, 256) is op
        hits = signals._zero_phase_operator.cache_info().hits
        signals.apply_bandpass(np.ones((2, 256)), self.cascade)
        assert signals._zero_phase_operator.cache_info().hits == hits + 1
        assert op.shape == (256, 256) and op.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0
        other = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), 250.0)
        assert not np.array_equal(signals._zero_phase_operator(other.sections.tobytes(), 256), op)

    @pytest.mark.parametrize("t", [4, 256, signals.OPERATOR_MAX_T])
    def test_operator_output_is_c_order(self, t):
        # Each signal's samples are one contiguous row, so minmax_normalize
        # and the reshape to rows read them in place.
        x = np.random.default_rng(6).normal(size=(3, 2, t))
        assert signals.apply_bandpass(x, self.cascade).flags.c_contiguous


class TestNormalizeAndFlatten:
    def test_minmax_range(self):
        rng = np.random.default_rng(1)
        out = signals.minmax_normalize(rng.normal(size=(4, 100)))
        assert out.min(axis=1) == pytest.approx(np.zeros(4))
        assert out.max(axis=1) == pytest.approx(np.ones(4))

    def test_constant_channel_maps_to_half(self):
        x = np.vstack([np.full(16, 3.0), np.linspace(0, 1, 16)])
        out = signals.minmax_normalize(x)
        np.testing.assert_array_equal(out[0], np.full(16, 0.5))


class TestSyntheticData:
    def test_balanced_and_labeled(self):
        eps = signals.generate_synthetic(5, 4, 128, 250.0, 10.0, seed=0)
        assert len(eps) == 10
        assert [e.label for e in eps] == [0] * 5 + [1] * 5
        assert all(e.samples.shape == (4, 128) for e in eps)
        assert all(e.subject_id == "synth" for e in eps)

    def test_deterministic_per_seed(self):
        a = signals.generate_synthetic(3, 2, 64, 250.0, 10.0, seed=5)
        b = signals.generate_synthetic(3, 2, 64, 250.0, 10.0, seed=5)
        c = signals.generate_synthetic(3, 2, 64, 250.0, 10.0, seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)
        assert not np.array_equal(a[0].samples, c[0].samples)

    def test_class_tones_dominate_spectrum(self):
        fs = 250.0
        eps = signals.generate_synthetic(1, 1, 1024, fs, 20.0, seed=3)
        for epoch, tone in zip(eps, (6.0, 20.0)):
            spec = np.abs(np.fft.rfft(epoch.samples[0]))
            peak_hz = np.fft.rfftfreq(1024, 1 / fs)[np.argmax(spec[1:]) + 1]
            assert peak_hz == pytest.approx(tone, abs=fs / 1024)

    def test_noise_level_tracks_snr(self):
        fs, t = 250.0, 8192
        eps = signals.generate_synthetic(4, 8, t, fs, 10.0, seed=9)
        signal_power = signals.SYNTH_AMPLITUDE_UV ** 2 / 2.0
        times = np.arange(t) / fs
        # Subtract the best-fit tone to recover the noise floor.
        noise_vars = []
        for e in eps[:4]:
            for row in e.samples:
                basis = np.vstack(
                    [np.sin(2 * np.pi * 6.0 * times), np.cos(2 * np.pi * 6.0 * times)]
                ).T
                coef, *_ = np.linalg.lstsq(basis, row, rcond=None)
                noise_vars.append(np.var(row - basis @ coef))
        snr_db = 10 * np.log10(signal_power / np.mean(noise_vars))
        assert snr_db == pytest.approx(10.0, abs=0.3)

    def test_values_are_float32_representable(self):
        eps = signals.generate_synthetic(1, 2, 32, 250.0, 10.0, seed=1)
        x = eps[0].samples
        np.testing.assert_array_equal(x, x.astype(np.float32).astype(np.float64))

    # -760 and -3236 dB give a noise level finite in float64 that float32 cannot hold.
    @pytest.mark.parametrize("snr_db", [float("nan"), -np.inf, -1e308, 4000.0, -760.0, -3236.0])
    def test_snr_without_finite_noise_level_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db"):
            signals.generate_synthetic(1, 2, 32, 250.0, snr_db, seed=1)

    def test_infinite_snr_gives_noise_free_tones(self):
        eps = signals.generate_synthetic(1, 2, 32, 250.0, np.inf, seed=1)
        times = np.arange(32) / 250.0
        for epoch, tone in zip(eps, (6.0, 20.0)):
            phase = 2 * np.pi * tone * times
            basis = np.vstack([np.sin(phase), np.cos(phase)]).T
            for row in epoch.samples:
                coef, *_ = np.linalg.lstsq(basis, row, rcond=None)
                np.testing.assert_allclose(basis @ coef, row, atol=1e-5)


class TestEpochFiles:
    def test_roundtrip_bitwise(self, tmp_path):
        eps = signals.generate_synthetic(1, 3, 50, 128.0, 5.0, seed=2, subject_id="sub01")
        path = str(tmp_path / "e.eeg")
        signals.write_epoch_file(eps[0], path)
        back = signals.read_epoch_file(path)
        np.testing.assert_array_equal(back.samples, eps[0].samples)
        assert back.label == eps[0].label
        assert back.subject_id == "sub01"
        assert back.sampling_rate == 128.0

    def test_header_layout(self, tmp_path):
        epoch = Epoch(
            samples=np.zeros((2, 4), dtype=np.float64),
            sampling_rate=100.0, label=1, subject_id="ab",
        )
        path = str(tmp_path / "h.eeg")
        signals.write_epoch_file(epoch, path)
        blob = Path(path).read_bytes()
        assert len(blob) == 36 + 2 * 4 * 4
        assert blob[:4] == b"EEG1"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 4
        assert blob[20] == 1
        assert blob[21:36] == b"ab" + b"\x00" * 13

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.eeg"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(FormatError, match="magic"):
            signals.read_epoch_file(str(path))

    def test_truncation_rejected_with_offset(self, tmp_path):
        eps = signals.generate_synthetic(1, 2, 16, 100.0, 5.0, seed=0)
        path = str(tmp_path / "t.eeg")
        signals.write_epoch_file(eps[0], path)
        blob = Path(path).read_bytes()
        (tmp_path / "cut.eeg").write_bytes(blob[:40])
        with pytest.raises(FormatError, match="offset"):
            signals.read_epoch_file(str(tmp_path / "cut.eeg"))

    def test_trailing_bytes_rejected_with_offset(self, tmp_path):
        eps = signals.generate_synthetic(1, 4, 16, 100.0, 5.0, seed=0)
        path = str(tmp_path / "t.eeg")
        signals.write_epoch_file(eps[0], path)
        blob = Path(path).read_bytes()
        (tmp_path / "long.eeg").write_bytes(blob + b"\x00" * 64)
        with pytest.raises(FormatError, match=f"64 trailing bytes at offset {len(blob)}"):
            signals.read_epoch_file(str(tmp_path / "long.eeg"))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_rejected(self, tmp_path):
        path = tmp_path / "e.eeg"
        signals.write_epoch_file(signals.generate_synthetic(1, 2, 16, 100.0, 5.0, seed=0)[0], str(path))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes())
            os.close(write_end)
            with pytest.raises(FormatError, match=f"/dev/fd/{read_end}: must be a regular file"):
                signals.read_epoch_file(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_long_subject_id_rejected(self, tmp_path):
        epoch = Epoch(
            samples=np.zeros((1, 4)), sampling_rate=10.0, label=0,
            subject_id="x" * 16,
        )
        with pytest.raises(FormatError, match=r"x\.eeg: subject_id"):
            signals.write_epoch_file(epoch, str(tmp_path / "x.eeg"))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="sampling_rate must be finite and positive"):
            Epoch(samples=np.zeros((1, 4)), sampling_rate=rate, label=0)

    @pytest.mark.parametrize("rate", [1e40, 1e-50], ids=["overflows", "rounds-to-zero"])
    def test_rate_float32_cannot_hold_rejected(self, tmp_path, rate):
        path = str(tmp_path / "x.eeg")
        epoch = Epoch(samples=np.zeros((1, 4)), sampling_rate=rate, label=0)
        with pytest.raises(FormatError, match=r"x\.eeg: sampling_rate .* float32"):
            signals.write_epoch_file(epoch, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("offset,data,field", [
        (20, b"\x02", "label must be 0 or 1, got 2"),
        (16, struct.pack("<f", -1.0), "sampling_rate must be finite and positive, got -1.0"),
        (16, struct.pack("<f", float("nan")), "sampling_rate must be finite and positive, got nan"),
        (21, b"\xff", "subject id at offset 21 is not UTF-8"),
        (8, bytes(4), r"ch >= 1"),
    ], ids=["label", "negative-rate", "nan-rate", "subject", "channels"])
    def test_header_rejection_names_file_and_field(self, tmp_path, offset, data, field):
        path = tmp_path / "e.eeg"
        epoch = Epoch(samples=np.zeros((2, 4)), sampling_rate=100.0, label=1, subject_id="ab")
        signals.write_epoch_file(epoch, str(path))
        blob = bytearray(path.read_bytes())
        blob[offset:offset + len(data)] = data
        if offset == 8:  # no channels: no payload either
            blob = blob[:36]
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=rf"e\.eeg: .*{field}"):
            signals.read_epoch_file(str(path))

    def test_manifest_roundtrip_with_comments(self, tmp_path):
        eps = signals.generate_synthetic(2, 2, 8, 100.0, 5.0, seed=4)
        names = []
        for i, e in enumerate(eps):
            name = f"epoch_{i}.eeg"
            signals.write_epoch_file(e, str(tmp_path / name))
            names.append(name)
        man = tmp_path / "manifest.txt"
        man.write_text("# synthetic set\n" + "\n".join(names) + "\n\n")
        loaded = signals.load_dataset(str(man))
        assert len(loaded) == 4
        for orig, back in zip(eps, loaded):
            np.testing.assert_array_equal(orig.samples, back.samples)

    def test_write_manifest(self, tmp_path):
        man = str(tmp_path / "m.txt")
        signals.write_manifest(man, ["a.eeg", "b.eeg"])
        assert Path(man).read_text() == "a.eeg\nb.eeg\n"

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        (tmp_path / "m.txt").write_text("old\n")
        with pytest.raises(TypeError):
            signals.atomic_write(str(tmp_path / "m.txt"), "text, not bytes")
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
        assert (tmp_path / "m.txt").read_text() == "old\n"
