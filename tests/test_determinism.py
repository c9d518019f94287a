"""The determinism contract of the default experiment, checked by digest.

On one machine and one numpy/BLAS build, ``run_experiment`` on the default
config writes the same bytes on every rerun, for every artifact except
``timings.csv``; so do ``compare_strategies`` on the default config, into
``compare/``, and ``sweep_beta`` at global ratios 0, 0.25, 0.5 and 0.75,
into ``sweep/``. ``determinism_digests.json`` holds the SHA-256 digest of
each of those artifacts, grouped by the layer that fixes its bytes, with
the fields of the build that layer depends on:

- ``corpus``: the resolved config, the manifest, and every episode's
  observations, token sidecar, annotation and geometry. numpy's seeded
  generators and exact elementwise arithmetic write them, with no BLAS call
  and no SIMD-dispatched transcendental, so they are keyed on the machine
  and the numpy version only;
- ``training``: the checkpoints, the loss traces, the prune records and
  the three reports. OpenBLAS picks its kernel per CPU, and numpy its SIMD
  kernels for the training and scoring math, and another kernel may round
  differently; the reports fold those scores through thresholds and ranks,
  so they stay with them. They are keyed on the full build.

Where a layer's build fields differ, its comparison is skipped, with the
differing fields as the reason. On any build the digests must not depend
on the number of BLAS threads.

Run as a script, this module runs the default experiment once and prints
the record that the committed file holds; to re-record, on a commit whose
outputs are known to be right::

    PYTHONPATH=src python tests/test_determinism.py > tests/determinism_digests.json

With the argument ``prune`` it prints ``pruned_digest()`` instead, the
digest of a training-free prune that must not depend on numpy's SIMD
dispatch, with the SIMD targets it ran on; with ``weigh`` it prints
``weighted_digest()``, the spatial weighting's bytes on grids of every
width modulo 8.
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
# each layer's build fields, all of them where None
LAYERS = {"corpus": ("machine", "numpy"), "training": None}
CORPUS_ARTIFACTS = ("config.resolved.json", "corpus/manifest.json",
                    ".obs.jsonl", ".obs.npy", ".ann.jsonl", ".geom.jsonl")


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
        digests = artifact_digests(Path(tmp))
    here = build()
    return {"layers": {layer: {
        "build": {key: here[key] for key in keys or here},
        "digests": {name: digest for name, digest in digests.items()
                    if (layer == "corpus") == name.endswith(CORPUS_ARTIFACTS)}}
        for layer, keys in LAYERS.items()}}


def all_digests(recorded: dict) -> dict[str, str]:
    """Every artifact's digest in a record, whatever its layer."""
    return {name: digest for layer in recorded["layers"].values()
            for name, digest in layer["digests"].items()}


def combined(digests: dict[str, str]) -> str:
    """One short digest over every artifact's name and digest."""
    text = "".join(f"{name} {digest}\n" for name, digest in digests.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pruned_digest() -> str:
    """SHA-256 of every strategy's prune of a fixed ``ScoredCorpus`` whose
    scores are drawn, not predicted, so no training or scoring math runs.

    The weighted scores are 0, 1 and 2, about half of the zeros -0.0, so
    most views hold both zeros, whose minimum numpy returns as either by
    its SIMD dispatch; the digest covers each fused score's sign bit.
    """
    from mvprune.bench import ScoredCorpus, evaluate_strategy
    from mvprune.core import ImportanceScores, PruneConfig, Strategy
    from mvprune.pruner import FlopModel
    from mvprune.synth import ScenarioSpec, generate_corpus

    rng = np.random.default_rng(20261019)
    episodes = generate_corpus(ScenarioSpec(embed_dim=2, patch_size=32), 2,
                               seed=5)
    scores = []
    for episode in episodes:
        frames = []
        for obs in episode.observations:
            weighted = []
            for view in obs.views:
                row = rng.integers(0, 3, view.token_count).astype(np.float64)
                row[(row == 0.0) & (rng.random(view.token_count) < 0.5)] = -0.0
                weighted.append(row)
            frames.append(ImportanceScores(
                intra_raw=(), intra_weighted=tuple(weighted),
                inter=rng.random(len(obs.views))))
        scores.append(tuple(frames))
    corpus = ScoredCorpus(
        tuple(episodes), tuple(scores), PruneConfig().epsilon, dict.fromkeys(
            ("intra_auc", "intra_precision", "intra_recall",
             "inter_accuracy", "inter_precision", "inter_recall"), 0.0))
    digest = hashlib.sha256()
    for strategy in Strategy:
        report, batches = evaluate_strategy(
            corpus, PruneConfig(strategy=strategy, seed=3), FlopModel())
        digest.update(repr(report).encode())
        for batch in batches:
            for array in (batch.local_pruned_counts,
                          batch.global_pruned_counts, batch.kept,
                          batch.fused, batch.ranking):
                digest.update(array.tobytes())
    return digest.hexdigest()


def weighted_digest() -> str:
    """SHA-256 of ``adaptive_weight`` of drawn scores on grids of every width
    modulo 8, from 1x1 up to grids whose windows two BLAS threads split."""
    from mvprune.pruner import adaptive_weight

    rng = np.random.default_rng(20261019)
    digest = hashlib.sha256()
    for height, width in [(1, 1), (2, 3), (5, 9), (9, 6), (7, 13), (12, 10),
                          (13, 7), (16, 16), (31, 33), (32, 32), (48, 44),
                          (64, 64), (77, 81), (84, 84), (90, 90)]:
        raw = rng.standard_normal(height * width)
        digest.update(adaptive_weight(raw, height, width).tobytes())
    return digest.hexdigest()


def run_in_subprocess(*args: str, **variables: str | None):
    """This module run as a script with ``args``, with each environment
    variable of ``variables`` set, or unset where it is None; its output
    decoded from JSON."""
    env = dict(os.environ)
    for variable, value in variables.items():
        env.pop(variable, None)
        if value is not None:
            env[variable] = value
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, __file__, *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def runs() -> dict[int, dict]:
    return {threads: run_in_subprocess(**dict.fromkeys(THREAD_VARIABLES,
                                                       str(threads)))
            for threads in (1, 2)}


def test_digests_do_not_depend_on_blas_threads(runs):
    one, two = all_digests(runs[1]), all_digests(runs[2])
    assert one and ".npy" in "".join(one)
    assert one == two, (f"1 thread {combined(one)}, "
                        f"2 threads {combined(two)}")


def test_committed_layers_name_every_artifact(runs):
    committed = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    assert {layer: sorted(entry["digests"])
            for layer, entry in committed["layers"].items()} == {
        layer: sorted(entry["digests"])
        for layer, entry in runs[1]["layers"].items()}


@pytest.mark.parametrize("layer", LAYERS)
def test_default_run_matches_committed_digests(runs, layer):
    committed = json.loads(DIGESTS_PATH.read_text(
        encoding="utf-8"))["layers"][layer]
    there, here = committed["build"], runs[1]["layers"][layer]["build"]
    differing = sorted(key for key in there.keys() | here.keys()
                       if there.get(key) != here.get(key))
    if differing:
        pytest.skip(f"{layer} digests were recorded on another build (" +
                    ", ".join(f"{key}: {there.get(key)!r} there, "
                              f"{here.get(key)!r} here"
                              for key in differing) + ")")
    assert runs[1]["layers"][layer]["digests"] == committed["digests"]


def test_pruning_does_not_depend_on_simd_dispatch():
    """Pruning calls no BLAS routine and its only SIMD-dependent bit, the
    sign of a zero normalized score, is fixed; so switching off numpy's
    AVX-512 kernels leaves its bytes as they are."""
    native = run_in_subprocess("prune", NPY_DISABLE_CPU_FEATURES=None)
    reduced = run_in_subprocess(
        "prune", NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    if native["simd"] == reduced["simd"]:
        pytest.skip(f"this CPU has none of the switched-off kernels: both "
                    f"runs dispatch to {native['simd']}")
    assert native["digest"] == reduced["digest"]


def test_weighting_does_not_depend_on_blas_threads():
    """The weighting's windows are padded to a multiple of 8 rows, so where
    two BLAS threads split a call, they split it between two of one
    thread's 4-row groups; its bytes stay those of a one-thread dense
    product."""
    one, two = (run_in_subprocess("weigh", **dict.fromkeys(
        THREAD_VARIABLES, str(threads))) for threads in (1, 2))
    assert one == two


if __name__ == "__main__":
    json.dump({"simd": build()["simd"], "digest": pruned_digest()}
              if sys.argv[1:] == ["prune"] else weighted_digest()
              if sys.argv[1:] == ["weigh"] else record(),
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
