"""The three workloads. Each is a closed loop: one caller issues an
operation, waits for its result, then issues the next.

A workload has two halves. `make_fixtures` writes its inputs from the
seed and runs in a child process, so that neither its time nor its
memory is charged to the program. The class itself drives eegfpn only
through public functions, looked up on their modules at call time so
that the tracer's wrappers see every call, and checks the outputs with
the oracles once the timing is over.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import eegfpn.checkpoint
import eegfpn.cli
import eegfpn.config
import eegfpn.model
import eegfpn.signals
import eegfpn.train

import oracles
from harness import FS

T = 256
SNR_DB = 10.0
# Gaps the checks allow. Filtering and batch invariance measure 0 and
# 1e-16 today; the model forward about 1e-16 in probability.
FILTER_DESIGN_TOL = 1e-9
PREPROCESS_TOL = 1e-12
BATCH_TOL = 1e-12
FORWARD_TOL = 1e-9


def _sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _cli(argv) -> tuple:
    """In-process `eegfpn <argv>`; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = eegfpn.cli.main(argv)
    return code, out.getvalue()


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _fixture_checkpoint(ch: int, seed: int, path: Path):
    """An initialised model for the grid, with the second convolution's
    kernel made non-negative. At initialisation that layer's ReLU is
    often dead for every input, and the probabilities then read exactly
    0.5 for every epoch, which leaves nothing for the forward check to
    compare."""
    config = eegfpn.config.RunConfig(ch=ch, t=T)
    params = eegfpn.model.init_model(config, ch, T, seed=seed)
    params.nsdru.conv2_w = np.abs(params.nsdru.conv2_w)
    eegfpn.checkpoint.save_checkpoint(params, str(path))


def _filter_checks(config, epochs_samples, program_rows) -> dict:
    """Design against scipy's Butterworth; rows against sosfilt + min-max."""
    spec = eegfpn.signals.FilterSpec(config.f_low, config.f_high, config.filter_order)
    sections = eegfpn.signals.design_bandpass(spec, FS).sections
    design = oracles.design_gap(sections, config.f_low, config.f_high,
                                config.filter_order, FS)
    ref = np.stack([oracles.preprocess(s, sections) for s in epochs_samples])
    rows_gap = float(np.max(np.abs(ref - program_rows)))
    return {
        "filter_design_gap": (design, design <= FILTER_DESIGN_TOL),
        "preprocess_gap": (rows_gap, rows_gap <= PREPROCESS_TOL),
    }, ref


def _forward_check(rows, ch, params, seg) -> tuple:
    """Program probabilities against the reference forward on `rows`."""
    prog = eegfpn.model.model_forward(rows, ch, T, params).probs
    ref = oracles.reference_forward(rows, ch, T, seg)
    gap = float(np.max(np.abs(prog - ref)))
    return (gap, gap <= FORWARD_TOL), ref


def _agree(preds, ref_probs) -> bool:
    """Predictions match the reference argmax wherever the reference is
    not a tie within the forward tolerance."""
    decided = np.abs(ref_probs[:, 1] - ref_probs[:, 0]) > FORWARD_TOL
    return bool(np.all(np.asarray(preds)[decided] == np.argmax(ref_probs, 1)[decided]))


class Workload:
    name = ""
    ch = 8
    min_rounds = 1
    tail_percentile = None  # None: report the slowest operation

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.config_path = self.work / "config.txt"

    def model_config(self):
        return eegfpn.config.RunConfig(ch=self.ch, t=T)


class Train(Workload):
    """`eegfpn train` at the default config on 6 Hz vs 20 Hz epochs."""

    name = "train"
    N_PER_CLASS = 100
    PASSES = 20
    HELD_OUT_PER_CLASS = 100
    # Reference held-out accuracy may trail the program's own validation
    # accuracy (40 epochs, so +-0.08 at one sigma) by at most this much.
    ACCURACY_MARGIN = 0.2
    LEARNED = 0.7

    @classmethod
    def make_fixtures(cls, work: Path, seed: int):
        code, _ = _cli(["synth", "--out", str(work / "data"), "--n", str(cls.N_PER_CLASS),
                        "--ch", "8", "--t", str(T), "--fs", str(FS), "--snr", str(SNR_DB),
                        "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"eegfpn synth exited {code}")
        (work / "config.txt").write_text(f"max_epochs = {cls.PASSES}\nseed = {seed}\n")

    def prepare(self):
        self.digests = []
        self.run_dir = self.work / "run"

    def round(self):
        return [self._op]

    def _op(self):
        code, out = _cli(["train", "--data", str(self.work / "data" / "manifest.txt"),
                          "--out", str(self.run_dir), "--config", str(self.config_path)])
        if code != 0:
            return False, 0
        names = ("history.csv", "best.cfpn", "cost.txt", "config.txt")
        self.digests.append((_digest(*(self.run_dir / n for n in names)), out))
        return True, 2 * self.N_PER_CLASS * self.PASSES

    def check(self) -> dict:
        checks = {"identical_runs": (len(set(self.digests)), len(set(self.digests)) == 1)}
        config = eegfpn.config.parse_config(str(self.config_path))
        history = np.loadtxt(self.run_dir / "history.csv", delimiter=",", skiprows=1, ndmin=2)
        checks["history_finite"] = (history.shape[0], bool(np.all(np.isfinite(history))))
        loss = history[:, 1]
        checks["train_loss_falls"] = ((loss[0], loss[-1]), bool(loss[-1] < loss[0]))

        ckpt = self.run_dir / "best.cfpn"
        seg = oracles.read_cfpn(ckpt)
        cost = dict(line.split(": ", 1) for line in
                    (self.run_dir / "cost.txt").read_text().splitlines())
        elements = sum(a.size for a in seg.values())
        checks["cost_params_match_checkpoint"] = (
            (int(cost["trainable_params"]), elements),
            int(cost["trainable_params"]) == elements)

        # Held out: another data seed, filtered and classified by the oracles.
        held = eegfpn.signals.generate_synthetic(
            self.HELD_OUT_PER_CLASS, self.ch, T, FS, SNR_DB, _sub_seed(self.seed, 1))
        samples = [e.samples for e in held]
        labels = np.array([e.label for e in held])
        rows, _, _, _ = eegfpn.train.preprocess(held, config)
        filt, ref_rows = _filter_checks(config, samples, rows)
        checks.update(filt)
        params = eegfpn.checkpoint.load_checkpoint(str(ckpt))
        checks["forward_gap"], _ = _forward_check(rows[:16], self.ch, params, seg)
        ref_probs = oracles.reference_forward(ref_rows, self.ch, T, seg)
        accuracy = float(np.mean(np.argmax(ref_probs, 1) == labels))
        val = float(self.digests[0][1].split("best_val_accuracy=")[1])
        checks["held_out_accuracy"] = (
            (accuracy, val), accuracy >= val - self.ACCURACY_MARGIN)
        self.learned = accuracy >= self.LEARNED
        return checks


class Stream(Workload):
    """One epoch at a time through preprocess and predict_rows at batch 1.
    Runnable, but not in BENCHMARK.json: see the README's Steadiness."""

    name = "stream"
    POOL_PER_CLASS = 32
    BATCH_CHECKED = 16  # epochs compared at batch 1 and batched
    min_rounds = 4  # 256 samples: at least ten beyond the 95th percentile
    tail_percentile = 95.0

    @classmethod
    def make_fixtures(cls, work: Path, seed: int):
        code, _ = _cli(["synth", "--out", str(work / "pool"), "--n", str(cls.POOL_PER_CLASS),
                        "--ch", "8", "--t", str(T), "--fs", str(FS), "--snr", str(SNR_DB),
                        "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"eegfpn synth exited {code}")
        _fixture_checkpoint(8, _sub_seed(seed, 2), work / "model.cfpn")
        (work / "config.txt").write_text("# defaults\n")

    def prepare(self):
        self.config = eegfpn.config.parse_config(str(self.config_path))
        self.paths = eegfpn.signals.read_manifest(str(self.work / "pool" / "manifest.txt"))
        self.epochs = [eegfpn.signals.read_epoch_file(p) for p in self.paths]
        self.params = eegfpn.checkpoint.load_checkpoint(str(self.work / "model.cfpn"))
        self.rows = [None] * len(self.epochs)
        self.preds = [set() for _ in self.epochs]

    def round(self):
        return [lambda i=i: self._op(i) for i in range(len(self.epochs))]

    def _op(self, i):
        train = eegfpn.train
        rows, _, ch, t = train.preprocess([self.epochs[i]], self.config)
        pred = train.predict_rows(rows, ch, t, self.params, self.config, batch_size=1)
        if self.rows[i] is None:
            self.rows[i] = rows[0]
        self.preds[i].add(int(pred[0]))
        return True, 1

    def check(self) -> dict:
        checks = {"stable_predictions": (
            sum(len(p) for p in self.preds), all(len(p) == 1 for p in self.preds))}
        rows = np.stack(self.rows)
        samples = [oracles.read_eeg1(p)[0] for p in self.paths]
        filt, ref_rows = _filter_checks(self.config, samples, rows)
        checks.update(filt)
        some = rows[::len(rows) // self.BATCH_CHECKED]
        batched = eegfpn.model.model_forward(some, self.ch, T, self.params).probs
        single = np.concatenate([
            eegfpn.model.model_forward(some[i:i + 1], self.ch, T, self.params).probs
            for i in range(some.shape[0])])
        gap = float(np.max(np.abs(single - batched)))
        checks["batch_invariance_gap"] = (gap, gap <= BATCH_TOL)
        seg = oracles.read_cfpn(self.work / "model.cfpn")
        checks["forward_gap"], ref = _forward_check(ref_rows, self.ch, self.params, seg)
        preds = [next(iter(p)) for p in self.preds]
        checks["predictions_match_reference"] = (None, _agree(preds, ref))
        return checks


class BatchEval(Workload):
    """`eegfpn eval` over a multi-subject 128-channel set."""

    name = "batch_eval"
    ch = 128
    SUBJECTS = 4
    PER_CLASS = 8  # per subject

    @classmethod
    def make_fixtures(cls, work: Path, seed: int):
        data = work / "data"
        data.mkdir(parents=True)
        names = []
        for s in range(cls.SUBJECTS):
            epochs = eegfpn.signals.generate_synthetic(
                cls.PER_CLASS, cls.ch, T, FS, SNR_DB, _sub_seed(seed, 3, s),
                subject_id=f"s{s:02d}")
            for i, epoch in enumerate(epochs):
                names.append(f"s{s:02d}_{i:03d}.eeg")
                eegfpn.signals.write_epoch_file(epoch, str(data / names[-1]))
        eegfpn.signals.write_manifest(str(data / "manifest.txt"), names)
        _fixture_checkpoint(cls.ch, _sub_seed(seed, 4), work / "model.cfpn")
        (work / "config.txt").write_text(f"ch = {cls.ch}\n")

    def prepare(self):
        self.csv = self.work / "metrics.csv"
        self.outputs = []

    def round(self):
        return [self._op]

    def _op(self):
        code, _ = _cli(["eval", "--ckpt", str(self.work / "model.cfpn"),
                        "--data", str(self.work / "data" / "manifest.txt"),
                        "--config", str(self.config_path), "--out", str(self.csv)])
        if code != 0:
            return False, 0
        self.outputs.append(self.csv.read_text())
        return True, 2 * self.SUBJECTS * self.PER_CLASS

    def check(self) -> dict:
        checks = {"identical_runs": (len(set(self.outputs)), len(set(self.outputs)) == 1)}
        config = eegfpn.config.parse_config(str(self.config_path))
        paths = eegfpn.signals.read_manifest(str(self.work / "data" / "manifest.txt"))
        files = [oracles.read_eeg1(p) for p in paths]
        samples = [f[0] for f in files]
        sample = slice(0, None, self.PER_CLASS)  # one epoch per subject and class
        epochs = [eegfpn.signals.read_epoch_file(p) for p in paths[sample]]
        rows, _, _, _ = eegfpn.train.preprocess(epochs, config)
        filt, _ = _filter_checks(config, samples[sample], rows)
        checks.update(filt)
        sections = eegfpn.signals.design_bandpass(
            eegfpn.signals.FilterSpec(config.f_low, config.f_high, config.filter_order),
            FS).sections
        ref_rows = np.stack([oracles.preprocess(s, sections) for s in samples])
        seg = oracles.read_cfpn(self.work / "model.cfpn")
        params = eegfpn.checkpoint.load_checkpoint(str(self.work / "model.cfpn"))
        checks["forward_gap"], _ = _forward_check(rows, self.ch, params, seg)
        ref = oracles.reference_forward(ref_rows, self.ch, T, seg)
        want = oracles.subject_metrics_rows(
            np.argmax(ref, 1), [f[2] for f in files], [f[3] for f in files])
        got = self.outputs[0].splitlines()
        decided = bool(np.all(np.abs(ref[:, 1] - ref[:, 0]) > FORWARD_TOL))
        checks["subject_metrics"] = (
            len(want), got[0] == "subject_id,accuracy,precision,recall,f1"
            and (got[1:] == want or not decided))
        return checks


WORKLOADS = {w.name: w for w in (Train, Stream, BatchEval)}
