"""Reference outputs: one small end-to-end run whose files are pinned by
their sha256 digests in `reference_digests.txt`.

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
import ctypes
import hashlib
import io
import platform
from pathlib import Path

import numpy as np
import pytest

from eegfpn import cli

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


def run_reference(work: Path) -> dict:
    """Run the reference commands inside `work`; {output name: sha256}."""
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
    return {name: hashlib.sha256(blobs[name]).hexdigest() for name in OUTPUTS}


def read_reference() -> tuple:
    """(environment, digests) as recorded in REFERENCE."""
    env, digests = {}, {}
    for line in REFERENCE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            kind, key, value = line.split(" ", 2)
            (env if kind == "env" else digests)[key] = value
    return env, digests


def format_reference(digests: dict) -> str:
    lines = [
        "# sha256 of the reference run's outputs; see tests/test_reference.py.",
        "# Rewrite on purpose with: PYTHONPATH=src python3 tests/test_reference.py",
    ]
    lines += [f"env {key} {value}" for key, value in environment().items()]
    lines += [f"digest {name} {digests[name]}" for name in OUTPUTS]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_reference(tmp_path_factory.mktemp("reference"))


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_reference(name, digests):
    recorded_env, recorded = read_reference()
    if name not in PORTABLE:
        here = environment()
        for key, value in recorded_env.items():
            if here.get(key) != value:
                pytest.skip(f"digests recorded with {key} {value}, this environment has "
                            f"{key} {here.get(key)}")
    assert digests[name] == recorded[name], (
        f"{name} changed: sha256 {digests[name]}, recorded {recorded[name]}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        REFERENCE.write_text(format_reference(run_reference(Path(work))), encoding="utf-8")
    print(REFERENCE)
