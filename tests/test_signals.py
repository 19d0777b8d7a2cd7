"""Signal path tests. Filter design is cross-checked against an
independent SciPy implementation of the same Butterworth bandpass."""

import numpy as np
import pytest
import scipy.signal

from eegfpn import signals
from eegfpn.errors import ConfigError, FormatError, ShapeError
from eegfpn.signals import BiquadCascade, Epoch, FilterSpec


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
        ours = np.abs(signals.freq_response(cascade, freqs, fs))
        _, h = scipy.signal.sosfreqz(sos, worN=2 * np.pi * freqs / fs)
        np.testing.assert_allclose(ours, np.abs(h), atol=1e-8)

    def test_pole_radii_match_scipy(self):
        fs = 500.0
        cascade = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), fs)
        sos = scipy.signal.butter(2, [0.5, 30.0], btype="bandpass", fs=fs, output="sos")
        ours = np.sort(np.abs(cascade.poles()))
        theirs = np.sort(np.abs(np.concatenate([np.roots(s[3:]) for s in sos])))
        np.testing.assert_allclose(ours, theirs, atol=1e-9)
        assert ours.max() < 1.0

    def test_section_count_and_order(self):
        cascade = signals.design_bandpass(FilterSpec(0.5, 30.0, 4), 500.0)
        assert cascade.sections.shape == (2, 5)
        assert len(cascade.poles()) == 4
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
        mag = np.abs(signals.freq_response(cascade, [fc], fs))[0]
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

    def _tone_epoch(self, freq, t=4096, ch=2, dc=0.0):
        times = np.arange(t) / self.fs
        x = np.sin(2 * np.pi * freq * times)[None, :] * np.ones((ch, 1)) + dc
        return Epoch(samples=x, sampling_rate=self.fs, label=0)

    def _steady_amplitude(self, epoch, freq):
        out = signals.apply_bandpass(epoch, self.cascade)
        core = out.samples[0, 1024:-1024]
        return np.sqrt(2.0 * np.mean(core ** 2))

    def test_passband_response_flat(self):
        # Flatness is a property of the designed response; the applied
        # filter doubles the attenuation (forward + reverse pass).
        mags = np.abs(signals.freq_response(self.cascade, [5.0, 10.0, 15.0, 20.0], self.fs))
        assert np.all(mags >= 0.9) and np.all(mags <= 1.05), mags

    def test_passband_tone_rms_preserved(self):
        # Mid-passband tone through the applied (forward + reverse) filter:
        # steady-state output/input RMS ratio stays within 5 percent. The
        # input is a unit sine, so the amplitude estimate IS that ratio.
        ratio = self._steady_amplitude(self._tone_epoch(10.0), 10.0)
        assert 0.95 <= ratio <= 1.05, ratio

    def test_stopband_tone_attenuated(self):
        # Stopband bound holds after the zero-phase double pass.
        amp = self._steady_amplitude(self._tone_epoch(60.0), 60.0)
        assert 20 * np.log10(amp) <= -20.0

    def test_dc_removed(self):
        epoch = Epoch(
            samples=np.ones((3, 4096)), sampling_rate=self.fs, label=1
        )
        out = signals.apply_bandpass(epoch, self.cascade)
        assert np.abs(np.mean(out.samples[:, 1024:-1024])) < 0.02

    def test_pulse_output_symmetric(self):
        # Zero phase: the impulse response through forward+reverse passes
        # is symmetric about the pulse location.
        t = 2001
        x = np.zeros((1, t))
        x[0, t // 2] = 1.0
        out = signals.apply_bandpass(
            Epoch(samples=x, sampling_rate=self.fs, label=0), self.cascade
        ).samples[0]
        peak = int(np.argmax(np.abs(out)))
        assert abs(peak - t // 2) <= 1
        # Mirror symmetry is approximate: the reverse pass is truncated at
        # the record edges, leaving a small residual.
        w = 400
        left = out[t // 2 - w : t // 2]
        right = out[t // 2 + 1 : t // 2 + 1 + w][::-1]
        np.testing.assert_allclose(left, right, atol=1e-5)

    def test_matches_scipy_filtfilt_steady_state(self):
        # Both zero-phase routes settle to the same interior once the slow
        # 0.5 Hz edge transient (pole radius ~0.996) has decayed; the two
        # differ only in how they treat the record edges.
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 15000))
        epoch = Epoch(samples=x, sampling_rate=self.fs, label=0)
        ours = signals.apply_bandpass(epoch, self.cascade).samples
        sos = scipy.signal.butter(2, [0.5, 30.0], btype="bandpass", fs=self.fs, output="sos")
        theirs = scipy.signal.sosfiltfilt(sos, x, axis=1, padlen=0)
        np.testing.assert_allclose(
            ours[:, 5000:-5000], theirs[:, 5000:-5000], atol=1e-7
        )

    def test_preserves_metadata(self):
        epoch = Epoch(
            samples=np.zeros((2, 64)), sampling_rate=self.fs, label=1, subject_id="s07"
        )
        out = signals.apply_bandpass(epoch, self.cascade)
        assert (out.label, out.subject_id, out.sampling_rate) == (1, "s07", self.fs)


class TestNormalizeAndFlatten:
    def test_minmax_range(self):
        rng = np.random.default_rng(1)
        epoch = Epoch(samples=rng.normal(size=(4, 100)), sampling_rate=100.0, label=0)
        out = signals.minmax_normalize(epoch)
        assert out.samples.min(axis=1) == pytest.approx(np.zeros(4))
        assert out.samples.max(axis=1) == pytest.approx(np.ones(4))

    def test_constant_channel_maps_to_half(self):
        x = np.vstack([np.full(16, 3.0), np.linspace(0, 1, 16)])
        out = signals.minmax_normalize(Epoch(samples=x, sampling_rate=10.0, label=0))
        np.testing.assert_array_equal(out.samples[0], np.full(16, 0.5))

    def test_flatten_is_channel_major(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        feats = signals.flatten([Epoch(samples=x, sampling_rate=10.0, label=1)])
        np.testing.assert_array_equal(feats.rows[0], [1, 2, 3, 4, 5, 6, 7, 8])
        assert (feats.ch, feats.t) == (2, 4)
        np.testing.assert_array_equal(feats.labels, [1])

    def test_flatten_rejects_mixed_shapes(self):
        a = Epoch(samples=np.zeros((2, 8)), sampling_rate=10.0, label=0)
        b = Epoch(samples=np.zeros((2, 9)), sampling_rate=10.0, label=0)
        with pytest.raises(ShapeError):
            signals.flatten([a, b])


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
        blob = open(path, "rb").read()
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
        blob = open(path, "rb").read()
        (tmp_path / "cut.eeg").write_bytes(blob[:40])
        with pytest.raises(FormatError, match="offset"):
            signals.read_epoch_file(str(tmp_path / "cut.eeg"))

    def test_long_subject_id_rejected(self, tmp_path):
        epoch = Epoch(
            samples=np.zeros((1, 4)), sampling_rate=10.0, label=0,
            subject_id="x" * 16,
        )
        with pytest.raises(FormatError):
            signals.write_epoch_file(epoch, str(tmp_path / "x.eeg"))

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
        assert open(man).read() == "a.eeg\nb.eeg\n"

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        (tmp_path / "m.txt").write_text("old\n")
        with pytest.raises(TypeError):
            signals.atomic_write(str(tmp_path / "m.txt"), "text, not bytes")
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]
        assert (tmp_path / "m.txt").read_text() == "old\n"
