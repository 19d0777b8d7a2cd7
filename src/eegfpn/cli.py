"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/format/configuration error,
3 numeric failure (a gradient check above tolerance, or a non-finite
loss or gradient). Diagnostics go to stderr; results go to files or stdout.
"""

import argparse
import dataclasses
import os
import sys

from . import checkpoint, costing, gradcheck, signals
from . import train as train_mod
from .config import RunConfig, format_config, parse_config
from .errors import ConfigError, NumericError
from .head import METRICS_CSV_HEADER, metrics_csv_row

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

RUN_CONFIG_NAME = "config.txt"
RUN_HISTORY_NAME = "history.csv"
RUN_CHECKPOINT_NAME = "best.cfpn"
RUN_COST_NAME = "cost.txt"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write_text(path: str, text: str):
    signals.atomic_write(path, text.encode("utf-8"))


def _load_config(path) -> RunConfig:
    return parse_config(path) if path else RunConfig()


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _missing_dirs(path: str) -> list:
    """`path` and each ancestor up to the first that exists, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _write_dataset(out: str, named_epochs) -> int:
    """Write (name, epoch) pairs and their manifest into `out`, making `out`
    and its missing parents at the first write; if that write fails, the
    directories made here are removed."""
    names = []
    for name, epoch in named_epochs:
        made = [] if names else _missing_dirs(out)
        if made:
            os.makedirs(out)
        try:
            signals.write_epoch_file(epoch, os.path.join(out, name))
        except BaseException:
            for path in made:
                os.rmdir(path)
            raise
        names.append(name)
    manifest = os.path.join(out, "manifest.txt")
    signals.write_manifest(manifest, names)
    print(manifest)
    return EXIT_OK


def _cmd_synth(args) -> int:
    epochs = signals.generate_synthetic(args.n, args.ch, args.t, args.fs, args.snr, args.seed)
    return _write_dataset(args.out, ((f"epoch_{i:05d}.eeg", e) for i, e in enumerate(epochs)))


def _cmd_filter(args) -> int:
    config = _load_config(args.config)
    paths = signals.read_manifest(args.data)
    if not paths:
        raise ConfigError(f"manifest {args.data} lists no epochs")
    epochs = [signals.read_epoch_file(path) for path in paths]
    spec = signals.FilterSpec(config.f_low, config.f_high, config.filter_order)

    def filtered():
        for path, epoch in zip(paths, epochs):
            cascade = signals.design_bandpass(spec, epoch.sampling_rate)
            samples = signals.apply_bandpass(epoch.samples, cascade)
            yield os.path.basename(path), dataclasses.replace(epoch, samples=samples)
    return _write_dataset(args.out, filtered())


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    epochs = signals.load_dataset(args.data)
    made = _missing_dirs(args.out)
    os.makedirs(args.out, exist_ok=True)
    try:
        result = train_mod.train(config, epochs)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    used = dataclasses.replace(config, ch=result.ch, t=result.t)
    _write_text(os.path.join(args.out, RUN_CONFIG_NAME), format_config(used))
    _write_text(os.path.join(args.out, RUN_HISTORY_NAME), result.history.csv())
    checkpoint.save_checkpoint(
        result.params, os.path.join(args.out, RUN_CHECKPOINT_NAME)
    )
    _write_text(os.path.join(args.out, RUN_COST_NAME), costing.cost_report(used))
    print(f"best_epoch={result.best_epoch} best_val_accuracy={result.best_val_accuracy:.6f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _load_config(args.config)
    params = checkpoint.load_checkpoint(args.ckpt)
    epochs = signals.load_dataset(args.data)
    rows = [METRICS_CSV_HEADER]
    for subject, metrics in train_mod.evaluate_by_subject(params, epochs, config):
        rows.append(metrics_csv_row(subject, metrics))
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    reports = gradcheck.run_suite(args.seed)
    worst = 0.0
    for stage, error in reports.items():
        print(f"{stage} max_relative_error={error:.6e}")
        worst = max(worst, error)
    if worst >= gradcheck.GRAD_TOLERANCE:
        print(
            f"gradient check failed: {worst:.6e} >= {gradcheck.GRAD_TOLERANCE:g}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_cost(args) -> int:
    config = _load_config(args.config)
    if args.ch is not None:
        config = dataclasses.replace(config, ch=args.ch)
    if args.t is not None:
        config = dataclasses.replace(config, t=args.t)
    sys.stdout.write(costing.cost_report(config))
    return EXIT_OK


def _cmd_export(args) -> int:
    config = _load_config(args.config)
    epochs = signals.load_dataset(args.data)
    if args.stage == "latent":
        if not args.ckpt:
            raise ConfigError("--ckpt is required when --stage latent")
        params = checkpoint.load_checkpoint(args.ckpt)
    else:
        params = None
    text = train_mod.export_embeddings(params, epochs, args.stage, config)
    _write_text(args.out, text)
    print(args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="eegfpn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a balanced synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="epochs per class")
    p.add_argument("--ch", type=int, default=8)
    p.add_argument("--t", type=int, default=256)
    p.add_argument("--fs", type=float, default=250.0)
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("filter", help="bandpass a dataset to a new directory")
    p.add_argument("--data", required=True, help="input manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("train", help="train end to end, write a run directory")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, print metrics CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=gradcheck.FULL_PIPELINE_SEEDS[0])
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("cost", help="parameter and FLOP report")
    p.add_argument("--config", default=None)
    p.add_argument("--ch", type=int, default=None, help="override input channels")
    p.add_argument("--t", type=int, default=None, help="override samples per epoch")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("export-embeddings", help="dump raw or latent features as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--stage", required=True, choices=("raw", "latent"))
    p.add_argument("--out", required=True)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            # numpy's own rejection of a negative seed names no flag
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    # The package's ConfigError, ParseError, FormatError and ShapeError are
    # ValueErrors; NumericError, an ArithmeticError, is the one outside.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
