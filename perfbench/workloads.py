"""The benchmark's workloads: set-up, timed calls, online pass and checks.

Every workload is a closed loop with one caller, because every user-facing
entry point is a blocking batch call: the next call starts when the
previous one has returned.

- ``experiment``: ``bench.run_experiment`` on the default config. Write
  heavy: most of its time is JSON encoding of the corpus, so binary token
  storage and the training path act here; the pruner does little.
- ``compare-32``: ``bench.compare_strategies`` on 32x32 grids (3072 tokens a
  frame), 4 episodes, all four strategies. Compute heavy with no corpus
  I/O: each strategy re-runs both predictors, so batched scoring and score
  reuse act here.
- ``staged``: the README's staged CLI path, ``gen`` -> ``train`` ->
  ``prune`` -> ``validate``, on the default config with one episode. Read
  heavy: the corpus is loaded twice and ``validate`` decodes and
  re-encodes it, so a storage change that speeds writes but slows reads
  shows here.

After each iteration an online pass calls ``pruner.prune_observation`` one
frame at a time over a 128-frame corpus at the workload's grid size, with
predictors trained on it in set-up: the per-frame cost a policy pays on
every control step. It shows whether a batch-throughput gain costs
per-frame latency.

Timings are worst-of-repeats. On a shared host the speed of this process
swings by up to 2x, in phases of seconds to minutes, from load it cannot
see. The median of a 30 s run then depends on how much of the run fell in
a slow phase; the slowest repeat does not, since nearly every run seen so
far held a slow phase while many held no fast one. Short bursts of
heavier load come on top. So ``run_s`` is the second-slowest iteration and
the frame latencies are those of the second-slowest online pass: a slow
phase spans several repeats, a burst mostly one. Iterations are kept short
so that a run holds many of them. ``setup_s`` is the median of several
set-ups spread over the run.

Outputs are checked against digests of their semantic content (report
rows, and each PruneResult's kept indices, ranking and fused scores), not
of file bytes, so a new storage format is not a failure but a changed
result is.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvprune import bench, cli, core, pruner, synth
from mvprune.core import PruneConfig, PruneResult

# Corpus seeds that --seed picks from; refs.json holds reference digests for
# each. The first is the default config's seed.
CORPUS_SEEDS = (7, 11, 13, 17, 19, 23, 29, 31)
SETUP_REPEATS = 5
# 128 frames, so that p90 has at least ten frames beyond it
ONLINE_EPISODES = 8
MIN_PASSES = 3
REFS_PATH = Path(__file__).with_name("refs.json")


def corpus_seed(seed: int) -> int:
    return CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]


def merge(base: dict, overrides: dict) -> dict:
    """Two-level merge of experiment config overrides."""
    merged = {key: dict(value) for key, value in base.items()}
    for key, value in overrides.items():
        merged.setdefault(key, {}).update(value)
    return merged


# ---------------------------------------------------------------------------
# operations and correctness


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        return not problems

    def call(self, name: str, call, check):
        """Time one blocking call, then check its output.

        Returns the call's seconds, or None when the call raised or the
        check found a problem; either way the operation counts as failed.
        """
        try:
            start = time.perf_counter()
            output = call()
            seconds = time.perf_counter() - start
            problems = check(output)
        # a boundary that must keep running: report the failure and go on
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        return seconds if self.record(name, problems) else None


def rows_digest(rows) -> str:
    return hashlib.sha256(
        json.dumps([[str(cell) for cell in row] for row in rows]).encode()
    ).hexdigest()[:16]


def results_digest(results) -> str:
    """Digest of each result's kept indices, ranking and exact fused scores."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(json.dumps([result.kept, result.ranking]).encode())
        for scores in result.fused_scores:
            digest.update(np.ascontiguousarray(scores, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def check_digest(expected: dict, key: str, actual: str) -> list[str]:
    """Compare with the reference; a key without one takes the first value,
    so later iterations of the run must agree with it."""
    want = expected.setdefault(key, actual)
    return [] if want == actual else [f"{key} digest {actual}, expected {want}"]


def report_rows(reports) -> list[tuple[str, str, str]]:
    return [(r.strategy, metric, value)
            for r in reports for metric, value in r.rows()]


def read_report_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def read_prune_results(directory) -> list[PruneResult]:
    results = []
    for path in sorted(Path(directory).glob("*.prune.jsonl")):
        results.extend(PruneResult.from_obj(obj["result"])
                       for obj in core.read_jsonl(path))
    return results


def tree_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*")
               if p.is_file())


# ---------------------------------------------------------------------------
# set-up and the online pass


@dataclass
class Prepared:
    """Corpus and predictors of the online pass, made in set-up."""

    observations: list
    intra: object
    inter: object
    prune_config: PruneConfig


def prepare(config: dict) -> tuple[Prepared, float, float]:
    """One set-up from a cold weight-matrix cache.

    Returns the prepared state, the set-up seconds, and the milliseconds of
    the cache's cold build, which set-up warms through ``adaptive_weight``.
    """
    # the cache lives for the process; clear it so every set-up is cold
    pruner._weight_matrices.clear()
    start = time.perf_counter()
    config = {**config,
              "corpus": {**config["corpus"], "count": ONLINE_EPISODES}}
    section = config["corpus"]
    episodes = synth.generate_corpus(bench.scenario_template(config),
                                     section["count"], section["seed"])
    annotations = bench.derive_annotations(episodes)
    observations = [obs for ep in episodes for obs in ep.observations]
    intra, inter, _, _ = bench.train_predictors(
        observations, {a.episode_id: a for a in annotations}, config)
    prune_config = PruneConfig.from_obj(
        {"fmt": core.FORMAT_VERSION, "kind": "prune_config",
         **config["prune"]})
    view = observations[0].views[0]
    cache_start = time.perf_counter()
    pruner.adaptive_weight(np.zeros(view.token_count), view.height,
                           view.width, prune_config.epsilon)
    cache_ms = (time.perf_counter() - cache_start) * 1e3
    pruner.prune_observation(observations[0], intra, inter, prune_config)
    prepared = Prepared(observations, intra, inter, prune_config)
    return prepared, time.perf_counter() - start, cache_ms


def online_pass(prep: Prepared) -> tuple[list[float], list[PruneResult]]:
    """Prune every frame one call at a time; per-frame milliseconds."""
    latencies, results = [], []
    for obs in prep.observations:
        start = time.perf_counter()
        _, result = pruner.prune_observation(obs, prep.intra, prep.inter,
                                             prep.prune_config)
        latencies.append((time.perf_counter() - start) * 1e3)
        results.append(result)
    return latencies, results


def checked_online_pass(prep: Prepared, ops: Ops, expected: dict
                        ) -> tuple[list[float], list[PruneResult]]:
    latencies, results = online_pass(prep)
    ops.record("online pass",
               check_digest(expected, "online", results_digest(results)))
    return latencies, results


# ---------------------------------------------------------------------------
# workloads


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    run = None

    @contextlib.contextmanager
    def span(self, name):
        yield {}


NULL_TRACER = NullTracer()


class Workload:
    name = ""
    overrides: dict = {}

    def __init__(self, seed: int, overrides: dict | None = None):
        self.seed = seed
        self.extra = overrides or {}
        config = merge(merge(self.overrides, self.extra),
                       {"corpus": {"seed": corpus_seed(seed)}})
        self.config = bench.resolve_config(config)

    def run(self, out: Path, tracer, ops: Ops, expected: dict,
            validate: bool) -> float | None:
        """Run the timed calls into ``out`` and check their outputs.

        Returns the seconds of the timed calls, or None if one failed.
        ``validate`` also requires ``validate_artifacts`` to find nothing.
        """
        raise NotImplementedError


class Experiment(Workload):
    name = "experiment"

    def run(self, out, tracer, ops, expected, validate):
        def check(report):
            problems = check_digest(expected, "report",
                                    rows_digest(report_rows([report])))
            problems += check_digest(
                expected, "prune",
                results_digest(read_prune_results(out / "corpus")))
            if validate:
                problems += bench.validate_artifacts(out)
            return problems

        return ops.call("run_experiment",
                        lambda: bench.run_experiment(self.config, out), check)


class Compare32(Workload):
    name = "compare-32"
    overrides = {"corpus": {"patch_size": 8, "count": 4}}

    def run(self, out, tracer, ops, expected, validate):
        def check(reports):
            return check_digest(expected, "compare",
                                rows_digest(report_rows(reports.values())))

        return ops.call("compare_strategies",
                        lambda: bench.compare_strategies(self.config, out),
                        check)


class Staged(Workload):
    name = "staged"
    overrides = {"corpus": {"count": 1}}

    def run(self, out, tracer, ops, expected, validate):
        corpus = out / "corpus"
        config_path = out.parent / f"{out.name}.config.json"
        config_path.write_text(json.dumps(self.config), encoding="utf-8")
        config = ["--config", str(config_path)]
        steps = [
            ("gen", ["gen", *config, "--out", str(corpus)], None),
            ("train", ["train", *config, "--corpus", str(corpus),
                       "--out", str(out)], None),
            ("prune", ["prune", *config, "--corpus", str(corpus),
                       "--intra", str(out / "intra.mlp.json"),
                       "--inter", str(out / "inter.mlp.json"),
                       "--out", str(corpus)], self._check_prune),
            ("validate", ["validate", "--dir", str(out)], None),
        ]
        total = 0.0
        for name, argv, check_output in steps:
            def check(result, check_output=check_output):
                code, stderr = result
                if code != 0:
                    return [f"exit code {code}: {stderr.strip()}"]
                return check_output(corpus, expected) if check_output else []

            seconds = ops.call(f"cli {name}",
                               lambda: self._cli(tracer, name, argv), check)
            if seconds is None:
                return None
            total += seconds
        return total

    @staticmethod
    def _cli(tracer, name: str, argv: list[str]) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stderr.getvalue()

    @staticmethod
    def _check_prune(corpus: Path, expected: dict) -> list[str]:
        problems = check_digest(
            expected, "report",
            rows_digest(read_report_rows(corpus / "report.csv")))
        return problems + check_digest(
            expected, "prune", results_digest(read_prune_results(corpus)))


WORKLOADS = {cls.name: cls for cls in (Experiment, Compare32, Staged)}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Loop:
    """What one measuring loop saw."""

    prep: Prepared | None = None
    run_s: list = field(default_factory=list)
    artifact_bytes: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    results: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    cache_ms: list = field(default_factory=list)

    def set_up(self, config: dict) -> None:
        # drop the previous state first, so peak memory holds one corpus
        self.prep = None
        self.prep, seconds, cache_ms = prepare(config)
        self.setup_s.append(seconds)
        self.cache_ms.append(cache_ms)

    def second_slowest_pass(self) -> list[float]:
        """Frame latencies of the pass with the second-highest median."""
        return second_slowest(self.passes, key=statistics.median)


def second_slowest(values: list, key=None):
    """The second-largest of ``values``, or the only one."""
    return sorted(values, key=key)[-2 if len(values) > 1 else -1]


def loop(workload: Workload, budget: float, work: Path, ops: Ops,
         expected: dict, tracer=NULL_TRACER, validate: bool = True,
         prep: Prepared | None = None) -> Loop:
    """Repeat iteration plus online pass while another fits in ``budget``.

    Without ``prep``, sets up ``SETUP_REPEATS`` times, spread evenly over
    the budget so that the set-ups meet the host's slow and fast phases
    alike. Runs at least one iteration and ``MIN_PASSES`` online passes.
    ``validate`` applies to the first iteration.
    """
    measured = Loop(prep=prep)
    setups = 0 if prep else SETUP_REPEATS
    start = time.perf_counter()
    if setups:
        measured.set_up(workload.config)
    iteration = 0
    while True:
        began = time.perf_counter()
        out = work / f"{workload.name}-{iteration}"
        tracer.run = f"iter{iteration}"
        seconds = workload.run(out, tracer, ops, expected,
                               validate and iteration == 0)
        if seconds is not None:
            measured.run_s.append(seconds)
            measured.artifact_bytes.append(tree_bytes(out))
        shutil.rmtree(out, ignore_errors=True)
        latencies, measured.results = checked_online_pass(
            measured.prep, ops, expected)
        measured.passes.append(latencies)
        iteration += 1
        last = time.perf_counter() - began
        done = len(measured.setup_s)
        if done < setups and time.perf_counter() - start \
                >= budget * done / setups:
            measured.set_up(workload.config)
        if time.perf_counter() - start + last > budget:
            break
    while len(measured.setup_s) < setups:
        measured.set_up(workload.config)
    while len(measured.passes) < MIN_PASSES:
        measured.passes.append(
            checked_online_pass(measured.prep, ops, expected)[0])
    return measured


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seconds: float, work: Path, ops: Ops,
               expected: dict) -> tuple[dict, dict]:
    """The gated metrics as {name: (value, unit)}, plus sample counts."""
    measured = loop(workload, seconds, work, ops, expected)
    metrics = {"setup_s": (statistics.median(measured.setup_s), "s")}
    if measured.run_s:
        metrics["run_s"] = (second_slowest(measured.run_s), "s")
        metrics["artifact_mb"] = (
            statistics.median(measured.artifact_bytes) / 1e6, "MB")
    metrics["frame_ms_p50"] = (
        statistics.median(measured.second_slowest_pass()), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    samples = {"setups": len(measured.setup_s),
               "iterations": len(measured.run_s),
               "frames": len(measured.prep.observations),
               "passes per frame": len(measured.passes)}
    print("  iteration seconds: "
          + " ".join(f"{s:.4f}" for s in measured.run_s), flush=True)
    return metrics, samples


# ---------------------------------------------------------------------------
# environment and reference digests


def _openblas_runtime() -> dict:
    """Kernel and thread count OpenBLAS chose at load time, if it is the
    scipy-openblas build numpy wheels ship."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not found:
        return {}
    lib = ctypes.CDLL(str(found[0]))
    corename = lib.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads = lib.scipy_openblas_get_num_threads64_
    threads.argtypes, threads.restype = [], ctypes.c_int
    return {"blas_core": corename().decode(), "blas_threads": threads()}


def environment() -> dict:
    """The build the results and the reference digests hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration")
        or f"{blas.get('name')} {blas.get('version')}",
        **_openblas_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _digest_env(env: dict) -> dict:
    # the core count does not change results; the BLAS kernel and threads may
    return {k: v for k, v in env.items() if k != "nproc"}


def reference(name: str, seed: int, env: dict) -> dict | None:
    """Reference digests for a standard workload, or None when they were
    recorded on another build and cannot be compared bit for bit."""
    refs = json.loads(REFS_PATH.read_text(encoding="utf-8"))
    if _digest_env(refs["env"]) != _digest_env(env):
        return None
    return dict(refs["digests"][name][str(corpus_seed(seed))])


def record_refs(work: Path, path: Path = REFS_PATH) -> None:
    """Recompute refs.json from the current sources.

    Run it only on a commit whose outputs are known to be right: every
    later run is checked against what it writes.
    """
    digests = {}
    for name, cls in WORKLOADS.items():
        for seed, value in enumerate(CORPUS_SEEDS):
            workload, ops, expected = cls(seed), Ops(), {}
            prep, _, _ = prepare(workload.config)
            workload.run(work / name, NULL_TRACER, ops, expected,
                         validate=True)
            shutil.rmtree(work / name, ignore_errors=True)
            checked_online_pass(prep, ops, expected)
            if ops.failed:
                raise RuntimeError("; ".join(ops.problems))
            digests.setdefault(name, {})[str(value)] = expected
            print(f"{name} corpus seed {value}: {expected}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(), "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
