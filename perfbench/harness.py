"""Timing loop, set-up timing, memory and the machine record.

Nothing here imports eegfpn at module level, since `SetupTimer` times
that import.
"""

import contextlib
import importlib
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import stats

FS = 250.0  # sampling rate of every workload's epochs, Hz
SETUP_FIRST = 5  # set-up samples before the first round
SETUP_REPEATS = 11  # at least this many in all, one after each round
PROBE_REPEATS = 5


def _package_modules():
    return [m for m in sys.modules if m == "eegfpn" or m.startswith("eegfpn.")]


class SetupTimer:
    """Times the program's set-up: importing the package, loading the run
    config and designing the bandpass (numpy is already loaded). Each
    sample imports eegfpn afresh and then puts back the modules in use, so
    samples can be spread between the rounds of a run."""

    def __init__(self, config_path: str, fs: float):
        self.config_path = config_path
        self.fs = fs
        self.samples = []

    def sample(self):
        saved = {m: sys.modules.pop(m) for m in _package_modules()}
        try:
            start = time.perf_counter()
            importlib.import_module("eegfpn.cli")
            config = importlib.import_module("eegfpn.config").parse_config(self.config_path)
            signals = importlib.import_module("eegfpn.signals")
            signals.design_bandpass(
                signals.FilterSpec(config.f_low, config.f_high, config.filter_order), self.fs)
            self.samples.append(time.perf_counter() - start)
        finally:
            for m in _package_modules():
                del sys.modules[m]
            sys.modules.update(saved)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Machine record and reference-speed probe
# ---------------------------------------------------------------------------

def machine() -> dict:
    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # numpy < 1.26 has no mode=
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_madvise_hugepage": (
            getattr(np, "_core", None) or np.core).multiarray._get_madvise_hugepage(),
    }


def probe() -> dict:
    """Median ms of a fixed pure-Python loop and of forty 200x200 GEMMs.
    Recorded next to the metrics to tell a slow machine state from a
    regression; never divided into them."""
    a = np.random.default_rng(0).standard_normal((200, 200))

    def loop():
        total = 0
        for i in range(300_000):
            total += i * i
        return total

    def gemm():
        for _ in range(40):
            a @ a

    out = {}
    for name, fn in (("python_loop_ms", loop), ("gemm_ms", gemm)):
        laps = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            fn()
            laps.append((time.perf_counter() - start) * 1e3)
        out[name] = stats.median(laps)
    return out


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Measurement:
    def __init__(self):
        self.latency = {False: [], True: []}  # keyed by traced
        self.epochs = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0  # summed duration of the rounds


def run(workload, seconds: float, tracer=None, setup=None) -> Measurement:
    """Whole rounds of the workload's operations until `seconds` of rounds
    have passed and its minimum rounds are done. With a tracer, operations
    alternate untraced and traced, and the run ends on a traced one. With a set-up
    timer, set-up samples are taken before, between and after the rounds,
    outside the rounds' time."""
    m = Measurement()
    min_rounds = 2 if tracer else workload.min_rounds
    for _ in range(SETUP_FIRST if setup else 0):
        setup.sample()
    while True:
        start = time.perf_counter()
        for op in workload.round():
            traced = tracer is not None and m.attempted % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    ok, n = op()
                except Exception:  # an operation's failure is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    ok, n = False, 0
                lap = time.perf_counter() - t0
            m.attempted += 1
            if ok:
                m.latency[traced].append(lap)
                m.epochs += n
            else:
                m.failed += 1
        m.wall += time.perf_counter() - start
        m.rounds += 1
        if setup:
            setup.sample()
        done = m.wall >= seconds and m.rounds >= min_rounds
        if done and (tracer is None or m.attempted % 2 == 0):
            break
    while setup and len(setup.samples) < SETUP_REPEATS:
        setup.sample()
    return m


def end_to_end(workload, m: Measurement, setup_samples, rss_mb: float) -> dict:
    laps = m.latency[False]
    if workload.tail_percentile is None:
        tail = max(laps)
    else:
        if (stats.tail_percentile(len(laps)) or 0.0) < workload.tail_percentile:
            raise RuntimeError(
                f"{len(laps)} samples leave fewer than {stats.MIN_BEYOND} beyond "
                f"p{workload.tail_percentile}")
        tail = stats.percentile(laps, workload.tail_percentile)
    return {
        "setup_s": (stats.median(setup_samples), "s"),
        "eeg_epochs_per_s": (m.epochs / m.wall, "1/s"),
        "latency_p50_ms": (stats.median(laps) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
