"""The determinism contract of the default experiment, checked by digest.

On one machine and one numpy/BLAS build, ``run_experiment`` on the default
config writes the same bytes on every rerun, for every artifact except
``timings.csv``; so do ``compare_strategies`` on the default config, into
``compare/``, and ``sweep_beta`` at global ratios 0, 0.25, 0.5 and 0.75,
into ``sweep/``. ``determinism_digests.json`` holds the SHA-256 digest of
each of those artifacts together with the build they were recorded on.
OpenBLAS picks its kernel per CPU, and numpy its SIMD kernels for the
training and scoring math, and another kernel may round differently; so on
another build the comparison with the committed digests is skipped, with
the differing fields as the reason. On any build the digests must not
depend on the number of BLAS threads.

Run as a script, this module runs the default experiment once and prints
the record that the committed file holds; to re-record, on a commit whose
outputs are known to be right::

    PYTHONPATH=src python tests/test_determinism.py > tests/determinism_digests.json
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

DIGESTS_PATH = Path(__file__).with_name("determinism_digests.json")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SWEEP_BETAS = (0.0, 0.25, 0.5, 0.75)


def build() -> dict:
    """The numpy/BLAS build, the SIMD targets numpy dispatches to on this
    CPU (``NPY_DISABLE_CPU_FEATURES`` removes some), and the OpenBLAS kernel
    chosen on this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    env = {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration")
        or f"{blas.get('name')} {blas.get('version')}",
        "simd": config.get("SIMD Extensions", {}).get("found", []),
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if found:
        corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        env["blas_core"] = corename().decode()
    return env


def artifact_digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "timings.csv"}


def record() -> dict:
    from mvprune import compare_strategies, run_experiment, sweep_beta
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(None, tmp)
        compare_strategies(None, Path(tmp) / "compare")
        sweep_beta(None, SWEEP_BETAS, Path(tmp) / "sweep")
        return {"build": build(), "digests": artifact_digests(Path(tmp))}


def combined(digests: dict[str, str]) -> str:
    """One short digest over every artifact's name and digest."""
    text = "".join(f"{name} {digest}\n" for name, digest in digests.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_in_subprocess(blas_threads: int) -> dict:
    env = dict(os.environ)
    env.update({variable: str(blas_threads) for variable in THREAD_VARIABLES})
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def runs() -> dict[int, dict]:
    return {threads: record_in_subprocess(threads) for threads in (1, 2)}


def test_digests_do_not_depend_on_blas_threads(runs):
    one, two = runs[1], runs[2]
    assert one["digests"] and ".npy" in "".join(one["digests"])
    assert one["digests"] == two["digests"], (
        f"1 thread {combined(one['digests'])}, "
        f"2 threads {combined(two['digests'])}")


def test_default_run_matches_committed_digests(runs):
    committed = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    here = runs[1]["build"]
    differing = sorted(key for key in committed["build"].keys() | here.keys()
                       if committed["build"].get(key) != here.get(key))
    if differing:
        pytest.skip("digests were recorded on another build (" + ", ".join(
            f"{key}: {committed['build'].get(key)!r} there, "
            f"{here.get(key)!r} here" for key in differing) + ")")
    assert runs[1]["digests"] == committed["digests"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
