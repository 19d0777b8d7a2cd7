"""Benchmark of eegfpn, end to end and layer by layer.

    python3 perfbench/run.py --workload {train,stream,batch_eval} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it imports the package from `src/`.
Each workload runs in this one process with one BLAS thread and without
numpy's huge-page advice. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. A fuller record, with the machine and
the reference-speed probe, goes to `perfbench/results/`.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent-huge-page advice from numpy: whether the kernel can then
# supply huge pages depends on the machine's memory at the time, and moved
# batch_eval's peak RSS between 509 and 541 MB from one hour to the next.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("train", "stream", "batch_eval")
FIXTURE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "eegfpn" / "__init__.py").is_file():
        print(f"error: the eegfpn package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "fixtures.py"), args.workload, str(work),
             str(args.seed)],
            check=True, stdout=sys.stderr, timeout=FIXTURE_TIMEOUT_S)
        record = _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    _report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


def _measure(args, work: Path) -> dict:
    import harness
    import stats
    import tracing

    machine = harness.machine()
    probe_start = harness.probe()
    setup = None if args.trace else harness.SetupTimer(str(work / "config.txt"), harness.FS)
    if setup:
        setup.sample()  # the first import compiles the package; not a set-up sample
        setup.samples.clear()

    import workloads

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    workload.prepare()
    tracer = tracing.Tracer() if args.trace else None
    m = harness.run(workload, args.seconds, tracer, setup)
    rss = harness.peak_rss_mb()
    probe_end = harness.probe()
    try:
        checks = workload.check()
    except Exception as exc:  # a check that cannot run fails the run's correctness
        traceback.print_exc(file=sys.stderr)
        checks = {"checks_ran": (repr(exc), False)}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "probe_start": probe_start, "probe_end": probe_end,
        "setup_samples_s": setup.samples if setup else [],
        "attempted": m.attempted, "failed": m.failed, "rounds": m.rounds,
        "wall_s": m.wall, "epochs": m.epochs,
        "latency_ms": [x * 1e3 for x in m.latency[False]],
        "checks": {k: {"value": v, "ok": ok} for k, (v, ok) in checks.items()},
        "correct": all(ok for _, ok in checks.values()),
    }
    if hasattr(workload, "learned"):
        record["learned"] = workload.learned
    if tracer is None:
        record["metrics"] = harness.end_to_end(workload, m, setup.samples, rss)
    else:
        traced, untraced = m.latency[True], m.latency[False]
        overhead = 100.0 * (stats.median(traced) / stats.median(untraced) - 1.0)
        rows = tracing.layer_table(
            tracer, traced, tracing.forward_flops(workload.model_config()))
        record["traced_latency_ms"] = [x * 1e3 for x in traced]
        record["layers"] = rows
        record["metrics"] = tracing.per_layer_metrics(rows, overhead)
        spans = HERE / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        spans.parent.mkdir(exist_ok=True)
        with open(spans, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.items]) + "\n")
    return record


def _report(record: dict):
    """Human-readable summary ahead of the JSON line."""
    print(f"# {record['workload']} seed {record['seed']}: {record['attempted']} ops "
          f"in {record['rounds']} rounds, {record['wall_s']:.1f} s, "
          f"{record['failed']} failed")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# probe start {record['probe_start']} end {record['probe_end']}")
    for name, check in record["checks"].items():
        print(f"# check {name}: {'ok' if check['ok'] else 'FAILED'} {check['value']}")
    for name, row in record.get("layers", {}).items():
        cells = " ".join(f"{k}={v:.4g}" for k, v in row.items())
        print(f"# layer {name:18s} {cells}")
    for name, (value, unit) in record["metrics"].items():
        print(f"# {name} = {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
