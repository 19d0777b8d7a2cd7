"""Spans around the calls into each layer of eegfpn, recorded from outside
the package.

Every entry point below is looked up through its module at call time by
its callers (`gru.csie_forward` inside `model_forward`, `adam_step` inside
`train.train`, and so on), so replacing the module attribute puts a span
around every call without changing a file of the package. Spans stay in
memory until the run ends.
"""

import importlib
import time
from dataclasses import dataclass

# (span name, module, attribute)
SPANS = (
    ("cli.main", "eegfpn.cli", "main"),
    ("signals.read", "eegfpn.signals", "read_epoch_file"),
    ("signals.bandpass", "eegfpn.train", "apply_bandpass"),
    ("signals.minmax", "eegfpn.train", "minmax_normalize"),
    ("train.preprocess", "eegfpn.train", "preprocess"),
    ("checkpoint.load", "eegfpn.checkpoint", "load_checkpoint"),
    ("checkpoint.save", "eegfpn.checkpoint", "save_checkpoint"),
    ("autoencoder.fwd", "eegfpn.autoencoder", "ae_forward"),
    ("autoencoder.bwd", "eegfpn.autoencoder", "ae_backward"),
    ("reducer.fwd", "eegfpn.reducer", "nsdru_forward"),
    ("reducer.bwd", "eegfpn.reducer", "nsdru_backward"),
    ("gru.fwd", "eegfpn.gru", "csie_forward"),
    ("gru.bwd", "eegfpn.gru", "csie_backward"),
    ("head.fwd", "eegfpn.head", "logits"),
    ("head.bwd", "eegfpn.head", "head_backward"),
    ("model.fwd", "eegfpn.train", "model_forward"),
    ("model.bwd", "eegfpn.train", "model_backward"),
    ("train.adam", "eegfpn.train", "adam_step"),
    ("train.loop", "eegfpn.train", "train"),
)

# Called too often for a span each; counted only.
COUNTERS = (("gru.step", "eegfpn.gru", "gru_step"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    items: int  # leading-axis length of the first argument: epochs in a batch


def _items(args) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if len(shape) >= 2 else 1


class Tracer:
    """Records spans while installed; `with tracer:` installs and removes."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, _items(args))
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for table, wrap in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, module_name, attr in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.
    Children of one span never overlap (one thread), so the covered time
    is the sum of their durations."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans):
    """{name: (calls, self seconds, items)}, plus the summed duration of
    the root spans."""
    table = {}
    for s, self_s in zip(spans, self_times(spans)):
        calls, total, items = table.get(s.name, (0, 0.0, 0))
        table[s.name] = (calls + 1, total + self_s, items + s.items)
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    return table, roots


def forward_flops(config) -> dict:
    """FLOPs per epoch of each forward span, from costing's formulas."""
    from eegfpn import costing

    widths = [config.d, config.e1, config.e2, config.z, config.e2, config.e1, config.d]
    c = config.nsdru_hidden_channels
    return {
        "autoencoder.fwd": sum(
            costing.dense_flops(a, b) for a, b in zip(widths[:-1], widths[1:])
        ),
        "reducer.fwd": costing.conv_flops(3, 3, 1, c, config.ch, config.t)
        + costing.conv_flops(3, 3, c, 1, config.ch // 2, config.t // 2),
        "gru.fwd": config.k * (config.t // 2)
        * costing.gru_step_flops(config.ch // 2, config.h),
        "head.fwd": costing.dense_flops(config.h, 2),
    }


# Spans that every workload in BENCHMARK.json calls. Their self times go
# into the per-layer metrics; the others appear in the layer table only,
# since a time that reads 0 on a workload that never calls the layer
# measures nothing.
EVERY_WORKLOAD = (
    "cli.main", "signals.read", "signals.bandpass", "signals.minmax",
    "train.preprocess", "autoencoder.fwd", "reducer.fwd", "gru.fwd", "head.fwd",
    "model.fwd",
)


def layer_table(tracer, traced_laps, flops) -> dict:
    """Per span, averaged over the traced operations: calls, self ms,
    share of the traced wall time and GFLOP/s where costing counts FLOPs.
    `untraced` is the part of the operations that no span covers."""
    table, roots = summarize(tracer.spans)
    n, wall = len(traced_laps), sum(traced_laps)
    rows = {}
    for name, _, _ in SPANS:
        calls, self_s, items = table.get(name, (0, 0.0, 0))
        row = {"calls": calls / n, "self_ms": self_s * 1e3 / n,
               "share_pct": 100.0 * self_s / wall}
        if name in flops and self_s > 0:
            row["gflop_per_s"] = flops[name] * items / self_s / 1e9
        rows[name] = row
    for name, _, _ in COUNTERS:
        rows[name] = {"calls": tracer.counts[name] / n}
    rows["untraced"] = {"calls": 0, "self_ms": (wall - roots) * 1e3 / n,
                        "share_pct": 100.0 * (wall - roots) / wall}
    return rows


def per_layer_metrics(rows, overhead_pct) -> dict:
    """{metric: (value, unit)} for BENCHMARK.json's per-layer list."""
    out = {}
    for name, _, _ in SPANS + COUNTERS:
        out[f"{name}.calls"] = (rows[name]["calls"], "count")
    for name in EVERY_WORKLOAD:
        out[f"{name}.self_ms"] = (rows[name]["self_ms"], "ms")
    for name in ("autoencoder.fwd", "reducer.fwd", "gru.fwd", "head.fwd"):
        out[f"{name}.gflop_per_s"] = (rows[name]["gflop_per_s"], "GFLOP/s")
    out["untraced.self_ms"] = (rows["untraced"]["self_ms"], "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
