"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eegfpn import checkpoint, costing, model, signals, train  # noqa: E402
from eegfpn.config import RunConfig  # noqa: E402


def test_tail_percentile_has_ten_samples_beyond():
    # No tail below forty samples: even p75 would leave fewer than ten.
    assert all(stats.tail_percentile(n) is None for n in range(1, 40))
    for n in range(40, 3000):
        p = stats.tail_percentile(n)
        assert stats.samples_beyond(n, p) >= stats.MIN_BEYOND
        higher = [q for q in stats.TAIL_CANDIDATES if q > p]
        assert all(stats.samples_beyond(n, q) < stats.MIN_BEYOND for q in higher)


def test_stream_tail_holds_at_its_minimum_rounds():
    n = workloads.Stream.min_rounds * 2 * workloads.Stream.POOL_PER_CLASS
    assert stats.tail_percentile(n) >= workloads.Stream.tail_percentile
    values = list(range(1, n + 1))
    beyond = [v for v in values if v > stats.percentile(values, workloads.Stream.tail_percentile)]
    assert len(beyond) >= stats.MIN_BEYOND


def test_self_time_of_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 1),
        S("a", 1.0, 4.0, 0, 1),
        S("a.inner", 2.0, 3.0, 1, 1),
        S("b", 5.0, 9.0, 0, 1),
        S("a", 11.0, 12.5, -1, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    table, roots = tracing.summarize(spans)
    assert table["a"] == (2, 3.5, 2)
    assert roots == 11.5
    assert sum(t for _, t, _ in table.values()) == roots


def test_tracer_spans_cover_a_real_forward_and_uninstall():
    config = RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=5, k=3, nsdru_hidden_channels=3)
    params = model.init_model(config, 4, 16, seed=1)
    rows = np.random.default_rng(0).uniform(size=(5, 64))
    original = train.model_forward
    with tracing.Tracer() as tracer:
        train.model_forward(rows, 4, 16, params)
    assert train.model_forward is original
    names = [s.name for s in tracer.spans]
    assert names == ["model.fwd", "autoencoder.fwd", "reducer.fwd", "gru.fwd", "head.fwd"]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.spans[1].items == 5
    assert tracer.counts["gru.step"] == 3 * 8
    table, roots = tracing.summarize(tracer.spans)
    assert sum(t for _, t, _ in table.values()) == pytest.approx(roots, abs=1e-12)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_flop_split_adds_up_to_costing(workload):
    config = workloads.WORKLOADS[workload](Path("."), 0).model_config()
    split = tracing.forward_flops(config)
    assert sum(split.values()) == costing.count_flops(config)


@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_reference_forward_matches_model_forward(tmp_path, activation):
    config = RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=5, k=3, nsdru_hidden_channels=3)
    params = model.init_model(config, 4, 16, seed=2)
    params.nsdru.conv2_w = np.abs(params.nsdru.conv2_w)
    path = tmp_path / "m.cfpn"
    checkpoint.save_checkpoint(params, str(path))
    rows = np.random.default_rng(1).uniform(size=(6, 64))
    want = model.model_forward(rows, 4, 16, params, activation).probs
    got = oracles.reference_forward(rows, 4, 16, oracles.read_cfpn(path), activation)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.ptp(want[:, 1]) > 0  # the comparison is not between constants


def test_reference_preprocess_matches_program():
    config = RunConfig()
    epochs = signals.generate_synthetic(2, 8, 256, 250.0, 10.0, 3)
    rows, _, _, _ = train.preprocess(epochs, config)
    sections = signals.design_bandpass(signals.FilterSpec(), 250.0).sections
    ref = np.stack([oracles.preprocess(e.samples, sections) for e in epochs])
    assert np.max(np.abs(ref - rows)) < 1e-12
    assert oracles.design_gap(sections, 0.5, 30.0, 4, 250.0) < 1e-9


def test_subject_metrics_rows():
    rows = oracles.subject_metrics_rows([1, 0, 1, 1], [1, 0, 0, 1], ["b", "a", "b", "b"])
    assert rows == ["a,1.000000,0.000000,0.000000,0.000000",
                    "b,0.666667,0.666667,1.000000,0.800000"]


def _declared(kind):
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_metrics_match_benchmark_json():
    import harness

    m = harness.Measurement()
    m.latency[False] = [0.5, 0.7, 0.6]
    m.epochs, m.wall = 30, 1.8
    e2e = harness.end_to_end(workloads.Train, m, [0.1, 0.2, 0.15], 100.0)
    assert [(k, u) for k, (_, u) in e2e.items()] == _declared("end_to_end")

    config = RunConfig(ch=4, t=16, e1=16, e2=8, z=4, h=5, k=3, nsdru_hidden_channels=3)
    params = model.init_model(config, 4, 16, seed=1)
    with tracing.Tracer() as tracer:
        train.model_forward(np.full((2, 64), 0.5), 4, 16, params)
    rows = tracing.layer_table(tracer, [1.0], tracing.forward_flops(config))
    per_layer = tracing.per_layer_metrics(rows, 0.0)
    assert [(k, u) for k, (_, u) in per_layer.items()] == _declared("per_layer")
