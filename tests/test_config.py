"""Config file parsing, validation and round-tripping."""

import dataclasses

import pytest

from eegfpn.autoencoder import ae_shapes
from eegfpn.config import RunConfig, format_config, parse_config
from eegfpn.errors import ConfigError, ParseError
from eegfpn.signals import FilterSpec


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = parse_config(write(tmp_path, ""))
        assert config == RunConfig()

    def test_single_override(self, tmp_path):
        config = parse_config(write(tmp_path, "k = 3\n"))
        assert config.k == 3
        assert config.h == RunConfig().h

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# full line comment\n\nh = 16  # trailing comment\n   \n"
        assert parse_config(write(tmp_path, text)).h == 16

    def test_bool_and_float_forms(self, tmp_path):
        config = parse_config(write(tmp_path, "learning_rate = 5e-4\n"))
        assert config.learning_rate == 5e-4

    def test_string_field(self, tmp_path):
        config = parse_config(write(tmp_path, "ae_output_activation = linear\n"))
        assert config.ae_output_activation == "linear"

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            parse_config(write(tmp_path, "k = 3\nnot a pair\n"))

    def test_bad_int_reports_line_and_key(self, tmp_path):
        with pytest.raises(ParseError, match="line 1.*'k'"):
            parse_config(write(tmp_path, "k = banana\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(write(tmp_path, "momentum = 0.9\n"))

    def test_last_assignment_wins(self, tmp_path):
        assert parse_config(write(tmp_path, "k = 2\nk = 5\n")).k == 5

    # `eval` reads two config files, so each error names the one at fault.
    @pytest.mark.parametrize("text, error, detail", [
        ("k = 3\nnot a pair\n", ParseError, "line 2"),
        ("k = banana\n", ParseError, "line 1"),
        ("momentum = 0.9\n", ConfigError, "momentum"),
        ("k = 0\n", ConfigError, "k"),
    ], ids=["no-equals", "bad-int", "unknown-key", "rejected-value"])
    def test_error_starts_with_the_path(self, tmp_path, text, error, detail):
        path = write(tmp_path, text)
        with pytest.raises(error) as caught:
            parse_config(path)
        message = str(caught.value)
        assert message.startswith(f"{path}: ") and detail in message
        assert message.count(path) == 1


class TestRoundTrip:
    def test_format_then_parse_identity(self, tmp_path):
        config = RunConfig(ch=4, t=32, k=2, h=8, learning_rate=3e-4,
                           ae_output_activation="linear")
        back = parse_config(write(tmp_path, format_config(config)))
        assert back == config

    def test_format_covers_every_field(self):
        text = format_config(RunConfig())
        for f in dataclasses.fields(RunConfig):
            assert f"{f.name} = " in text


class TestValidation:
    @pytest.mark.parametrize("text", [
        "ch = 1\n",
        "t = 3\n",
        "e2 = 256\n",          # violates e1 >= e2
        "z = 0\n",
        "k = 0\n",
        "h = 0\n",
        "lambda_recon = -0.1\n",
        "lambda_recon = nan\n",
        "lambda_recon = inf\n",
        "learning_rate = 0\n",
        "learning_rate = nan\n",
        "learning_rate = inf\n",
        "beta1 = 1.0\n",
        "beta1 = -0.1\n",
        "beta2 = 1.5\n",
        "beta2 = nan\n",
        "adam_epsilon = 0\n",
        "adam_epsilon = nan\n",
        "adam_epsilon = inf\n",
        "f_low = 0\n",
        "f_low = 40\n",       # above f_high
        "filter_order = 3\n",
        "batch_size = 0\n",
        "max_epochs = 0\n",
        "split_fraction = 1.0\n",
        "ae_output_activation = softplus\n",
        "nsdru_hidden_channels = 0\n",
        "seed = -1\n",
    ])
    def test_rejected_settings(self, tmp_path, text):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))

    # A settings object is checked when it is built, however it is built,
    # and cannot be changed afterwards.
    @pytest.mark.parametrize("build, error", [
        (lambda: RunConfig(k=0), ConfigError),
        (lambda: dataclasses.replace(RunConfig(), e2=256), ConfigError),
        (lambda: FilterSpec(30.0, 0.5), ConfigError),
        (lambda: ae_shapes(10, 4, 6, 3), ConfigError),
        (lambda: setattr(RunConfig(), "k", 0), dataclasses.FrozenInstanceError),
    ], ids=["run-config", "replace", "filter-spec", "ae-dims", "assignment"])
    def test_settings_are_checked_when_built(self, build, error):
        with pytest.raises(error):
            build()

    def test_derived_input_width(self):
        assert RunConfig(ch=8, t=256).d == 2048
