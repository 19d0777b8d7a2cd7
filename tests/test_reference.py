"""Reference outputs: one small end-to-end run whose files are pinned by
their sha256 digests in `reference_digests.txt`, and whose parsed values
are pinned next to them.

The run, in-process through `cli.main`: `synth --n 30 --seed 3`; `train`
with `max_epochs = 6` and `seed = 1`; `eval`; `export-embeddings` for the
latent and the raw stage; and `gradcheck --seed` 0, 9 and 11.

Most digests depend on the environment: synth's float64 `np.sin` takes a
SIMD path, and every GEMM runs OpenBLAS kernels chosen for the CPU. The
digest file therefore records where it was made (numpy version, BLAS name
and version, `platform.machine()`, whether the CPU has AVX512F, and the
CPU core whose kernels OpenBLAS runs, which `OPENBLAS_CORETYPE` can
override). In any other environment those comparisons skip, and the skip
names the first difference. `cost.txt` and `config.txt` are compared everywhere.

The values are compared everywhere too, each within a relative
VALUE_BOUND of its recorded value: every `history.csv` and `eval.csv`
cell; the sum and norm of the latent embedding matrix; each `best.cfpn`
segment's sum and norm. A sum is compared relative to its norm, since its
terms may cancel. The latent matrix is printed to 8 significant digits,
so its sum and norm may also move by one unit in the last printed digit
of each element. Every gradient check stays below 1e-4 everywhere,
because `gradcheck` exits non-zero otherwise and `_cli` asserts exit 0.

A change that is meant to keep every number leaves the digest file alone.
A change that moves numbers on purpose rewrites it with

    PYTHONPATH=src python3 tests/test_reference.py

and says so in CHANGES.md. Before rewriting, these must still hold:
perfbench's oracles agree with the reference forward within 1e-9; every
gradient check stays below 1e-4; acceptance criteria 4 (identical GRU
branches) and 8 (bitwise reruns) hold bitwise; criterion 6 (learnability)
passes.
"""

import contextlib
import csv
import ctypes
import hashlib
import io
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from eegfpn import checkpoint, cli

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

REFERENCE = Path(__file__).with_name("reference_digests.txt")
TRAIN_CONFIG = "max_epochs = 6\nseed = 1\n"
GRADCHECK_SEEDS = (0, 9, 11)
RUN_FILES = ("best.cfpn", "history.csv", "cost.txt", "config.txt")
OUTPUTS = RUN_FILES + ("eval.csv", "embeddings_latent.csv", "embeddings_raw.csv") + tuple(
    f"gradcheck_seed{seed}.txt" for seed in GRADCHECK_SEEDS
)
PORTABLE = ("cost.txt", "config.txt")
VALUE_SOURCES = ("history.csv", "eval.csv", "embeddings_latent.csv", "best.cfpn")
# Under another OpenBLAS core (Haswell) these values moved by at most 1.4e-14.
VALUE_BOUND = 1e-9


def openblas_core() -> str:
    """The core numpy's bundled OpenBLAS chose its kernels for, or
    "unknown" where no bundled library exports the name."""
    here = Path(np.__file__).parent
    libs = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment() -> dict:
    """What the environment-dependent digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "avx512f": str(bool(__cpu_features__.get("AVX512F"))),
        "openblas_core": openblas_core(),
    }


def _cli(*argv) -> str:
    """Run one command; its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, f"eegfpn {' '.join(map(str, argv))} exited {code}"
    return out.getvalue()


def _sum_and_norm(key: str, arr) -> dict:
    flat = np.asarray(arr, dtype=np.float64).ravel()
    return {f"{key}:sum": math.fsum(flat), f"{key}:norm": math.sqrt(math.fsum(flat * flat))}


def _print_unit(v: float) -> float:
    """One unit in the last digit that `%.8g` prints of v."""
    return 0.0 if v == 0.0 else 10.0 ** (math.floor(math.log10(abs(v))) - 7)


def parsed_values(blobs: dict, ckpt: Path) -> tuple:
    """({name: value}, {name: slack}) of the reference outputs: each CSV
    cell keyed by its file, row label and column; the latent matrix's and
    each checkpoint segment's sum and norm. Slack is the absolute amount
    the latent matrix's printing may add to a gap."""
    values = {}
    for source in ("history.csv", "eval.csv"):
        header, *rows = csv.reader(io.StringIO(blobs[source].decode("utf-8")))
        for row in rows:
            for column, cell in zip(header[1:], row[1:]):
                values[f"{source}:{row[0]}:{column}"] = float(cell)
    latent = np.loadtxt(io.StringIO(blobs["embeddings_latent.csv"].decode("utf-8")),
                        delimiter=",", ndmin=2)[:, 1:]
    values.update(_sum_and_norm("embeddings_latent.csv", latent))
    units = np.vectorize(_print_unit)(latent).ravel()
    slack = {"embeddings_latent.csv:sum": math.fsum(units),
             "embeddings_latent.csv:norm": math.sqrt(math.fsum(units * units))}
    for name, arr in checkpoint.read_segments(str(ckpt)):
        values.update(_sum_and_norm(f"best.cfpn:{name}", arr))
    return values, slack


def run_reference(work: Path) -> tuple:
    """Run the reference commands inside `work`: ({output name: sha256},
    {name: value}, {name: slack}) as `parsed_values` gives them."""
    data, run = work / "data", work / "run"
    config = work / "reference.cfg"
    config.write_text(TRAIN_CONFIG, encoding="utf-8")
    manifest, ckpt = data / "manifest.txt", run / "best.cfpn"
    _cli("synth", "--out", data, "--n", 30, "--seed", 3)
    _cli("train", "--data", manifest, "--out", run, "--config", config)
    blobs = {name: (run / name).read_bytes() for name in RUN_FILES}
    _cli("eval", "--ckpt", ckpt, "--data", manifest, "--out", work / "eval.csv")
    blobs["eval.csv"] = (work / "eval.csv").read_bytes()
    for stage in ("latent", "raw"):
        path = work / f"embeddings_{stage}.csv"
        _cli("export-embeddings", "--data", manifest, "--stage", stage, "--ckpt", ckpt,
             "--out", path)
        blobs[path.name] = path.read_bytes()
    for seed in GRADCHECK_SEEDS:
        blobs[f"gradcheck_seed{seed}.txt"] = _cli("gradcheck", "--seed", seed).encode()
    digests = {name: hashlib.sha256(blobs[name]).hexdigest() for name in OUTPUTS}
    return (digests,) + parsed_values(blobs, ckpt)


def read_reference() -> tuple:
    """(environment, digests, values) as recorded in REFERENCE."""
    recorded = {"env": {}, "digest": {}, "value": {}}
    for line in REFERENCE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            kind, key, value = line.split(" ", 2)
            recorded[kind][key] = value
    values = {key: float(value) for key, value in recorded["value"].items()}
    return recorded["env"], recorded["digest"], values


def format_reference(digests: dict, values: dict) -> str:
    lines = [
        "# sha256 of the reference run's outputs, and its parsed values;",
        "# see tests/test_reference.py.",
        "# Rewrite on purpose with: PYTHONPATH=src python3 tests/test_reference.py",
    ]
    lines += [f"env {key} {value}" for key, value in environment().items()]
    lines += [f"digest {name} {digests[name]}" for name in OUTPUTS]
    lines += [f"value {key} {value!r}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return run_reference(tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_reference(name, reference):
    digests = reference[0]
    recorded_env, recorded, _ = read_reference()
    if name not in PORTABLE:
        here = environment()
        for key, value in recorded_env.items():
            if here.get(key) != value:
                pytest.skip(f"digests recorded with {key} {value}, this environment has "
                            f"{key} {here.get(key)}")
    assert digests[name] == recorded[name], (
        f"{name} changed: sha256 {digests[name]}, recorded {recorded[name]}"
    )


@pytest.mark.parametrize("source", VALUE_SOURCES)
def test_values_match_reference(source, reference):
    _, values, slack = reference
    recorded = read_reference()[2]
    mine = sorted(key for key in values if key.split(":")[0] == source)
    assert mine == sorted(key for key in recorded if key.split(":")[0] == source)
    assert mine, f"no values recorded for {source}"
    off = []
    for key in mine:
        scale = recorded[key.removesuffix(":sum") + ":norm"] if key.endswith(":sum") else recorded[key]
        allowed = VALUE_BOUND * abs(scale) + slack.get(key, 0.0)
        if abs(values[key] - recorded[key]) > allowed:
            off.append(f"{key} {values[key]!r}, recorded {recorded[key]!r}, allowed {allowed:.3g}")
    assert not off, "; ".join(off)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        digests, values, _ = run_reference(Path(work))
        REFERENCE.write_text(format_reference(digests, values), encoding="utf-8")
    print(REFERENCE)
