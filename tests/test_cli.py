"""Command-line interface, driven through main() so exit codes and
output land exactly as a shell user would see them."""

import os

import numpy as np
import pytest

from eegfpn import checkpoint, cli, gradcheck, model, signals
from eegfpn.config import parse_config
from eegfpn.errors import ConfigError, FormatError, NumericError, ParseError, ShapeError

TINY_CONFIG = """
ch = 4
t = 32
e1 = 16
e2 = 8
z = 4
nsdru_hidden_channels = 4
k = 2
h = 4
batch_size = 8
max_epochs = 2
seed = 0
"""


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    code = cli.main(["synth", "--out", str(out), "--n", "6",
                     "--ch", "4", "--t", "32", "--fs", "128", "--seed", "0"])
    assert code == 0
    return str(out / "manifest.txt")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


class TestSynth:
    def test_writes_balanced_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert cli.main(["synth", "--out", str(out), "--n", "3",
                         "--ch", "4", "--t", "32", "--fs", "128"]) == 0
        files = sorted(os.listdir(out))
        assert files.count("manifest.txt") == 1
        assert len([f for f in files if f.endswith(".eeg")]) == 6
        assert capsys.readouterr().out.strip() == str(out / "manifest.txt")
        epochs = signals.load_dataset(str(out / "manifest.txt"))
        assert sum(ep.label for ep in epochs) == 3

    def test_missing_required_flag_exits_1(self, capsys):
        assert cli.main(["synth", "--out", "/tmp/x"]) == 1
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("fs", ["nan", "inf", "1e40"])
    def test_unusable_rate_exits_2(self, tmp_path, capsys, fs):
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--n", "1", "--fs", fs]) == 2
        assert "sampling_rate" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--ch", "0"), ("--ch", "-1"), ("--t", "3"), ("--t", "0"), ("--t", "-5"), ("--n", "0"),
    ])
    def test_rejected_shape_leaves_no_directory(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--out", str(tmp_path / "d"), "--n", "1", flag, value]
        assert cli.main(argv) == 2
        shape = {"--ch": f"({value}, 256)", "--t": f"(8, {value})"}
        want = (f"epoch needs ch >= 1 and t >= 4, got {shape[flag]}" if flag in shape
                else "n_per_class must be >= 1, got 0")
        assert f"error: {want}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_rejected_run_keeps_existing_empty_directory(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        assert cli.main(["synth", "--out", str(out), "--n", "1", "--fs", "1e40"]) == 2
        assert out.is_dir() and os.listdir(out) == []

    def test_rejected_run_removes_the_parents_it_made(self, tmp_path, capsys):
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "a" / "b", tmp_path / "kept" / "c" / "d"):
            assert cli.main(["synth", "--out", str(out), "--n", "1", "--fs", "1e40"]) == 2
        assert os.listdir(tmp_path) == ["kept"]
        assert os.listdir(tmp_path / "kept") == []

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "d"), "--n", "1", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("snr", ["nan", "-inf", "-1e308", "4000", "-760"])
    def test_snr_without_finite_noise_level_exits_2(self, tmp_path, capsys, snr):
        argv = ["synth", "--out", str(tmp_path / "d"), "--n", "1", f"--snr={snr}"]
        assert cli.main(argv) == 2
        assert "snr_db" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestFilter:
    def test_filter_writes_new_dataset(self, tmp_path, dataset, capsys):
        out = tmp_path / "filtered"
        assert cli.main(["filter", "--data", dataset, "--out", str(out)]) == 0
        filtered = signals.load_dataset(str(out / "manifest.txt"))
        original = signals.load_dataset(dataset)
        assert len(filtered) == len(original)
        for a, b in zip(filtered, original):
            assert a.samples.shape == b.samples.shape
            assert (a.label, a.subject_id, a.sampling_rate) == (b.label, b.subject_id, b.sampling_rate)
        # The originals are untouched.
        assert not np.array_equal(filtered[0].samples, original[0].samples)

    def test_manifest_read_once(self, tmp_path, dataset, monkeypatch, capsys):
        # The output names come from the same read of the manifest as the
        # epochs, so a manifest that changes mid-run cannot pair a file
        # with another file's name.
        reads = []
        read_manifest = signals.read_manifest
        monkeypatch.setattr(signals, "read_manifest",
                            lambda path: reads.append(path) or read_manifest(path))
        out = tmp_path / "filtered"
        assert cli.main(["filter", "--data", dataset, "--out", str(out)]) == 0
        assert reads == [dataset]
        names = [os.path.basename(path) for path in read_manifest(dataset)]
        assert (out / "manifest.txt").read_text().split() == names

    # Past OPERATOR_MAX_T samples the filter returns time-major arrays,
    # which the epoch file must still hold channel-major.
    @pytest.mark.parametrize("t", [256, 2001])
    def test_each_file_filtered_at_its_own_rate(self, tmp_path, capsys, t):
        src = tmp_path / "mixed"
        src.mkdir()
        rng = np.random.default_rng(4)
        names = []
        for fs in (250.0, 1000.0):
            epoch = signals.Epoch(samples=rng.normal(size=(2, t)), sampling_rate=fs, label=0)
            names.append(f"fs{int(fs)}.eeg")
            signals.write_epoch_file(epoch, str(src / names[-1]))
        signals.write_manifest(str(src / "manifest.txt"), names)
        out = tmp_path / "filtered"
        assert cli.main(["filter", "--data", str(src / "manifest.txt"), "--out", str(out)]) == 0
        for name, fs in zip(names, (250.0, 1000.0)):
            original = signals.read_epoch_file(str(src / name)).samples
            want = signals.apply_bandpass(
                original, signals.design_bandpass(signals.FilterSpec(), fs)
            )
            assert want.flags.c_contiguous == (t <= signals.OPERATOR_MAX_T)
            got = signals.read_epoch_file(str(out / name)).samples
            np.testing.assert_array_equal(got, want.astype("<f4"))

    def test_band_above_nyquist_leaves_no_directory(self, tmp_path, capsys):
        src = tmp_path / "slow"
        assert cli.main(["synth", "--out", str(src), "--n", "1", "--fs", "50"]) == 0
        out = tmp_path / "filtered"
        assert cli.main(["filter", "--data", str(src / "manifest.txt"), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = cli.main(["filter", "--data", str(tmp_path / "no.txt"),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainEval:
    def test_train_writes_run_dir(self, tmp_path, dataset, config_file, capsys):
        run = tmp_path / "run"
        assert cli.main(["train", "--data", dataset, "--out", str(run),
                         "--config", config_file]) == 0
        for name in (cli.RUN_CONFIG_NAME, cli.RUN_HISTORY_NAME,
                     cli.RUN_CHECKPOINT_NAME, cli.RUN_COST_NAME):
            assert (run / name).exists(), name
        assert capsys.readouterr().out.startswith("best_epoch=")
        # The echoed config records the grid actually trained on.
        echoed = (run / cli.RUN_CONFIG_NAME).read_text()
        assert "ch = 4" in echoed and "t = 32" in echoed
        history = (run / cli.RUN_HISTORY_NAME).read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(history) == 3

    def test_unusable_out_exits_2_before_training(
        self, tmp_path, dataset, config_file, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli.train_mod, "train", lambda *args: calls.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["train", "--data", dataset, "--out", str(taken),
                         "--config", config_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert calls == []

    def test_failed_training_removes_the_directories_it_made(self, tmp_path, capsys):
        src = tmp_path / "one-class"
        src.mkdir()
        rng = np.random.default_rng(5)
        names = [f"e{i}.eeg" for i in range(4)]
        for name in names:
            epoch = signals.Epoch(samples=rng.normal(size=(2, 32)), sampling_rate=128.0, label=0)
            signals.write_epoch_file(epoch, str(src / name))
        signals.write_manifest(str(src / "manifest.txt"), names)
        code = cli.main(["train", "--data", str(src / "manifest.txt"),
                         "--out", str(tmp_path / "a" / "run")])
        assert code == 2
        assert "both classes" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_eval_roundtrip_stdout(self, tmp_path, dataset, config_file, capsys):
        run = tmp_path / "run"
        cli.main(["train", "--data", dataset, "--out", str(run),
                  "--config", config_file])
        capsys.readouterr()
        code = cli.main(["eval", "--ckpt", str(run / cli.RUN_CHECKPOINT_NAME),
                         "--data", dataset, "--config", config_file])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "subject_id,accuracy,precision,recall,f1"
        assert lines[1].startswith("synth,")

    def test_eval_to_file(self, tmp_path, dataset, config_file):
        run = tmp_path / "run"
        cli.main(["train", "--data", dataset, "--out", str(run),
                  "--config", config_file])
        out = tmp_path / "metrics.csv"
        code = cli.main(["eval", "--ckpt", str(run / cli.RUN_CHECKPOINT_NAME),
                         "--data", dataset, "--config", config_file,
                         "--out", str(out)])
        assert code == 0 and out.exists()

    def test_eval_of_wrong_rank_checkpoint_exits_2(
        self, tmp_path, dataset, config_file, capsys
    ):
        params = model.init_model(parse_config(config_file), 4, 32, seed=0)
        params.ae.w1 = params.ae.w1.reshape(-1)
        ckpt = str(tmp_path / "rank1.cfpn")
        checkpoint.save_checkpoint(params, ckpt)
        code = cli.main(["eval", "--ckpt", ckpt, "--data", dataset, "--config", config_file])
        assert code == 2
        assert "ae.w1" in capsys.readouterr().err

    def test_eval_of_non_finite_checkpoint_exits_2(
        self, tmp_path, dataset, config_file, capsys
    ):
        params = model.init_model(parse_config(config_file), 4, 32, seed=0)
        params.head.w[0, 0] = np.nan
        ckpt = str(tmp_path / "nan.cfpn")
        checkpoint.save_checkpoint(params, ckpt)
        code = cli.main(["eval", "--ckpt", ckpt, "--data", dataset, "--config", config_file])
        captured = capsys.readouterr()
        assert code == 2
        assert "head.w" in captured.err
        assert captured.out == ""

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("where", ["manifest-entry", "data", "config"])
    def test_eval_reading_a_pipe_exits_2(
        self, where, tmp_path, dataset, config_file, capsys
    ):
        ckpt = str(tmp_path / "init.cfpn")
        checkpoint.save_checkpoint(model.init_model(parse_config(config_file), 4, 32, seed=0), ckpt)
        flags = {"--ckpt": ckpt, "--data": dataset, "--config": config_file}
        entry = os.path.join(os.path.dirname(dataset), "epoch_00000.eeg")
        with open(flags.get(f"--{where}", entry), "rb") as fh:
            blob = fh.read()
        read_end, write_end = os.pipe()
        pipe = f"/dev/fd/{read_end}"
        try:
            # The pipe holds a whole file of the kind it stands in for, so
            # a reader that accepted it would not block.
            os.write(write_end, blob)
            os.close(write_end)
            if where == "manifest-entry":
                with open(dataset, "a", encoding="utf-8") as fh:
                    fh.write(f"{pipe}\n")
            else:
                flags[f"--{where}"] = pipe
            code = cli.main(["eval", *(arg for flag in flags.items() for arg in flag)])
        finally:
            os.close(read_end)
        captured = capsys.readouterr()
        assert code == 2
        assert f"{pipe}: must be a regular file" in captured.err
        assert captured.out == ""

    def test_train_rerun_bitwise_identical(self, tmp_path, dataset, config_file):
        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            cli.main(["train", "--data", dataset, "--out", str(run),
                      "--config", config_file])
            runs.append(run)
        ck = [(r / cli.RUN_CHECKPOINT_NAME).read_bytes() for r in runs]
        assert ck[0] == ck[1]
        assert ((runs[0] / cli.RUN_HISTORY_NAME).read_text()
                == (runs[1] / cli.RUN_HISTORY_NAME).read_text())

    def test_bad_config_exits_2(self, tmp_path, dataset, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("k = banana\n")
        code = cli.main(["train", "--data", dataset, "--out",
                         str(tmp_path / "r"), "--config", str(bad)])
        assert code == 2


class TestGradcheck:
    def test_toy_suite_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max_relative_error" in out
        assert "full_pipeline" in out

    def test_negative_seed_names_the_flag(self, capsys):
        assert cli.main(["gradcheck", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_failure_exits_3(self, monkeypatch, capsys):
        def fake_suite(seed):
            return {"stage": 1.0}
        monkeypatch.setattr(cli.gradcheck, "run_suite", fake_suite)
        assert cli.main(["gradcheck"]) == 3
        assert "failed" in capsys.readouterr().err


class TestCost:
    def test_report_to_stdout(self, capsys):
        assert cli.main(["cost", "--ch", "8", "--t", "16"]) == 0
        out = capsys.readouterr().out
        assert "trainable_params:" in out
        assert "flop_convention:" in out

    def test_invalid_override_exits_2(self, capsys):
        assert cli.main(["cost", "--ch", "1"]) == 2

    @pytest.mark.parametrize("error, code", [
        (ConfigError, 2), (ParseError, 2), (FormatError, 2), (ShapeError, 2),
        (NumericError, 3),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_package_error_exit_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error(f"{error.__name__} from the command")

        monkeypatch.setattr(cli, "_cmd_cost", fail)
        assert cli.main(["cost"]) == code
        assert f"error: {error.__name__} from the command" in capsys.readouterr().err


class TestExport:
    def test_raw(self, tmp_path, dataset, config_file, capsys):
        out = tmp_path / "raw.csv"
        assert cli.main(["export-embeddings", "--data", dataset, "--stage", "raw",
                         "--out", str(out), "--config", config_file]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12 and len(lines[0].split(",")) == 4 * 32 + 1

    def test_latent_requires_checkpoint(self, dataset, tmp_path, capsys):
        code = cli.main(["export-embeddings", "--data", dataset, "--stage",
                         "latent", "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert "ckpt" in capsys.readouterr().err

    def test_latent_from_checkpoint(self, tmp_path, dataset, config_file):
        run = tmp_path / "run"
        cli.main(["train", "--data", dataset, "--out", str(run),
                  "--config", config_file])
        out = tmp_path / "latent.csv"
        code = cli.main(["export-embeddings", "--data", dataset, "--stage",
                         "latent", "--out", str(out),
                         "--ckpt", str(run / cli.RUN_CHECKPOINT_NAME),
                         "--config", config_file])
        assert code == 0
        assert all(len(line.split(",")) == 5
                   for line in out.read_text().strip().splitlines())


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_command_exits_1(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self, capsys):
        assert cli.main(["cost", "--bogus"]) == 1
