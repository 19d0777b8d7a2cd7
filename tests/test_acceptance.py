"""Acceptance gate: nine release criteria, each printed as one
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see the
lines as they happen; without -s pytest shows them for failures).

Criterion 6 trains three full models and dominates the runtime of this
file (a few minutes of CPU).
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from eegfpn import costing, gradcheck, gru, head, signals
from eegfpn import train as trainer
from eegfpn.autoencoder import ae_shapes
from eegfpn.checkpoint import read_segments, save_checkpoint
from eegfpn.config import RunConfig
from eegfpn.model import init_model, init_params, model_forward, n_params, pack_params
from eegfpn.ops import softmax
from eegfpn.signals import FilterSpec, apply_bandpass, design_bandpass
from filter_response import freq_response


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in gradcheck.FULL_PIPELINE_SEEDS:
        worst = max(worst, *gradcheck.run_suite(seed).values())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(1, "gradient suite", ok,
            f"max relative error {worst:.2e} (< 1e-4), "
            f"{len(gradcheck.FULL_PIPELINE_SEEDS)} seeds x 4 stages in {elapsed:.1f}s (< 60s)")


def test_criterion_2_shape_conformance():
    rng = np.random.default_rng(2024)
    failures = []
    for case in range(100):
        ch = int(rng.integers(2, 17))
        t = int(rng.integers(8, 65))
        config = RunConfig(ch=ch, t=t)
        params = init_model(config, ch, t, seed=case)
        rows = rng.uniform(size=(2, ch * t))
        trace = model_forward(rows, ch, t, params)
        e1, e2, z, d = config.e1, config.e2, config.z, ch * t
        chain = (
            [g.shape for g in trace.ae.gates] == [(2, w) for w in (e1, e2, z, e2, e1, d)]
            and [i.shape for i in trace.ae.inputs] == [(2, w) for w in (d, e1, e2, z, e2, e1)]
            and trace.ae.recon.shape == (2, d)
            and trace.nsdru.act2.shape == (2, 1, ch // 2, t // 2)
            and trace.csie.aggregate.shape == (2, config.h)
            and trace.probs.shape == (2, 2)
        )
        if not chain:
            failures.append((ch, t))
    _report(2, "shape conformance", not failures,
            f"100 random grids ch in [2,16], t in [8,64], {len(failures)} failures")


def test_criterion_3_filter_dsp():
    fs = 500.0
    cascade = design_bandpass(FilterSpec(0.5, 30.0, 4), fs)

    gains = np.abs(freq_response(cascade, np.array([5.0, 10.0, 15.0, 20.0]), fs))
    passband_ok = bool(np.all((gains >= 0.9) & (gains <= 1.05)))

    t = np.arange(4000) / fs
    tone = np.sin(2 * np.pi * 60.0 * t)
    out = apply_bandpass(tone[None, :], cascade)[0, 500:-500]
    ratio = np.sqrt(np.mean(out**2) / np.mean(tone[500:-500] ** 2))
    stop_db = 20.0 * np.log10(max(ratio, 1e-300))
    stopband_ok = stop_db <= -20.0

    dc_mean = float(np.abs(np.mean(apply_bandpass(np.ones((1, 4000)), cascade)[0, 500:-500])))
    dc_ok = dc_mean < 0.02

    pulse = np.zeros(2001)
    pulse[990:1011] = np.hanning(21)
    peak_shift = abs(int(np.argmax(apply_bandpass(pulse[None, :], cascade)[0])) - 1000)
    pulse_ok = peak_shift <= 1

    ok = passband_ok and stopband_ok and dc_ok and pulse_ok
    _report(3, "filter DSP checks", ok,
            f"passband gains {np.round(gains, 4).tolist()} in [0.9, 1.05]: {passband_ok}; "
            f"60 Hz at {stop_db:.1f} dB (<= -20): {stopband_ok}; "
            f"DC interior mean {dc_mean:.2e} (< 0.02): {dc_ok}; "
            f"pulse peak shift {peak_shift} samples (<= 1): {pulse_ok}")


def test_criterion_4_gru_closed_forms():
    h = 4
    zero = gru.GruBranchParams(
        w_z=np.zeros((h, 2)), u_z=np.zeros((h, h)), b_z=np.zeros(h),
        w_r=np.zeros((h, 2)), u_r=np.zeros((h, h)), b_r=np.zeros(h),
        w_h=np.zeros((h, 2)), u_h=np.zeros((h, h)), b_h=np.zeros(h),
    )
    decay_err = 0.0
    for steps in range(1, 21):
        state = np.ones((1, h))
        for _ in range(steps):
            state = gru.gru_step(np.zeros((1, 2)), state, zero)[3]
        decay_err = max(decay_err, float(np.max(np.abs(state - 0.5**steps))))
    decay_ok = decay_err <= 1e-12

    rng = np.random.default_rng(4)
    branch = init_params(gru.branch_shapes(3, 5), seed=4)
    bounds_ok = True
    h_prev = np.zeros((1, 5))
    for _ in range(10_000):
        z, r, c, h_prev = gru.gru_step(rng.normal(scale=3.0, size=(1, 3)), h_prev, branch)
        if not (np.all((z > 0) & (z < 1)) and np.all((r > 0) & (r < 1))
                and np.all(np.abs(c) < 1)):
            bounds_ok = False
            break

    shared = init_params(gru.branch_shapes(2, 4), seed=7)
    params = gru.CsieParams(branches=[shared] * 5)
    seq = np.random.default_rng(7).normal(size=(3, 6, 2))
    solo = gru.csie_forward(seq, gru.CsieParams(branches=[shared])).hiddens[0, :, -1]
    ident_ok = bool(np.array_equal(gru.csie_forward(seq, params).aggregate, solo))

    ok = decay_ok and bounds_ok and ident_ok
    _report(4, "recurrence closed forms", ok,
            f"halving decay max |h_T - 0.5^T| = {decay_err:.1e} (<= 1e-12) for T <= 20: {decay_ok}; "
            f"gate bounds over 10^4 random steps: {bounds_ok}; "
            f"identical branches aggregate bitwise to the branch state: {ident_ok}")


def test_criterion_5_metrics_oracle():
    mismatches = 0
    for bits in itertools.product((0, 1), repeat=12):
        preds, labels = np.array(bits[:6]), np.array(bits[6:])
        m = head.compute_metrics(*head.confusion(preds, labels))
        # Independent direct-count reference.
        tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
        fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
        tn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
        fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
        acc = (tp + tn) / 6
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        if (m.tp, m.fp, m.tn, m.fn) != (tp, fp, tn, fn) or (
            m.accuracy, m.precision, m.recall, m.f1
        ) != (acc, prec, rec, f1):
            mismatches += 1
    f1_point = head.f1_score(0.791, 0.953)
    point_ok = abs(f1_point - 0.8645) < 5e-4 and abs(f1_point - 0.862) < 0.005
    ok = mismatches == 0 and point_ok
    _report(5, "metrics oracle", ok,
            f"4096 exhaustive 6-sample cases, {mismatches} mismatches; "
            f"f1(0.791, 0.953) = {f1_point:.4f} "
            f"(= 0.8645, within 0.005 of 0.862): {point_ok}")


def test_criterion_6_learnability():
    data = signals.generate_synthetic(
        n_per_class=200, ch=8, t=256, sampling_rate=250.0, snr_db=10.0, seed=0
    )
    results = []
    ok = True
    for seed in (1, 3, 5):
        config = RunConfig(seed=seed, max_epochs=16)
        t0 = time.perf_counter()
        result = trainer.train(config, data)
        elapsed = time.perf_counter() - t0
        results.append((seed, result.best_val_accuracy, elapsed))
        if result.best_val_accuracy < 0.95 or elapsed >= 300.0:
            ok = False
    detail = "; ".join(
        f"seed {s}: best held-out accuracy {acc:.3f} (>= 0.95) in {dt:.0f}s (< 300s)"
        for s, acc, dt in results
    )
    _report(6, "end-to-end learnability", ok, detail + "; 16 epochs (<= 200 budget)")


def test_criterion_7_cost_accounting(tmp_path):
    configs = [
        gradcheck.toy_config(),
        RunConfig(ch=8, t=32),
        RunConfig(ch=6, t=20, e1=32, e2=16, z=8, h=8, k=3, nsdru_hidden_channels=4),
    ]
    tallies = []
    agree = True
    for i, config in enumerate(configs):
        params = init_model(config, config.ch, config.t, seed=i)
        path = str(tmp_path / f"m{i}.cfpn")
        save_checkpoint(params, path)
        analytic = costing.count_params(config)
        serialized = sum(arr.size for _, arr in read_segments(path))
        tallies.append((analytic, serialized))
        if analytic != serialized:
            agree = False
    dense_ok = costing.dense_flops(64, 128) == 16512
    ae_count = n_params(init_params(ae_shapes(64, 128, 64, 32), seed=0))
    ae_ok = ae_count == 37344
    ok = agree and dense_ok and ae_ok
    _report(7, "cost accounting", ok,
            f"analytic vs serialized element counts {tallies} all equal: {agree}; "
            f"dense 64->128 = {costing.dense_flops(64, 128)} (= 16512): {dense_ok}; "
            f"autoencoder params at d=64 default widths = "
            f"{ae_count} (= 37344): {ae_ok}")


def test_criterion_8_determinism(tmp_path):
    data = signals.generate_synthetic(
        n_per_class=12, ch=4, t=32, sampling_rate=128.0, snr_db=10.0, seed=5
    )
    config = RunConfig(ch=4, t=32, e1=16, e2=8, z=4, h=4, k=2,
                       nsdru_hidden_channels=4, batch_size=8, max_epochs=3,
                       seed=3)
    blobs, csvs = [], []
    for name in ("a", "b"):
        result = trainer.train(config, data)
        path = str(tmp_path / f"{name}.cfpn")
        save_checkpoint(result.params, path)
        blobs.append(Path(path).read_bytes())
        csvs.append(result.history.csv())
    ok = blobs[0] == blobs[1] and csvs[0] == csvs[1]
    _report(8, "determinism", ok,
            f"two runs, identical seed/config/data: checkpoints bitwise equal: "
            f"{blobs[0] == blobs[1]}; history CSVs identical: {csvs[0] == csvs[1]}")


def test_criterion_9_softmax_argmax_invariants():
    rng = np.random.default_rng(9)
    shift_err = 0.0
    class_stable = True
    for _ in range(10_000):
        logits = rng.normal(scale=4.0, size=2)
        c = rng.normal(scale=10.0)
        base = softmax(logits)
        shifted = softmax(logits + c)
        shift_err = max(shift_err, float(np.max(np.abs(base - shifted))))
        if int(np.argmax(base)) != int(np.argmax(shifted)):
            class_stable = False
    # Equal logits through the path `eval` runs: a zero head weight leaves
    # only the bias, and a tie must predict class 0.
    config = gradcheck.toy_config()
    params = init_model(config, config.ch, config.t, seed=9)
    params.head.w[...] = 0.0
    rows = rng.uniform(size=(8, config.d))
    tie_ok = True
    for bias in (1.3, 0.0):
        params.head.b[...] = bias
        preds = trainer.predict_rows(rows, config.ch, config.t, params, config)
        tie_ok = tie_ok and preds.tolist() == [0] * 8
    ok = shift_err < 1e-12 and class_stable and tie_ok
    _report(9, "softmax/argmax invariants", ok,
            f"shift invariance max deviation {shift_err:.1e} (< 1e-12) over 10^4 pairs; "
            f"predicted class shift-invariant: {class_stable}; tie -> class 0: {tie_ok}")
