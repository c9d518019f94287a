"""The traced run: spans around mvprune's public functions, and layer probes.

Spans are recorded from the benchmark's own code only. While a traced
phase runs, each function named in ``TRACED`` is replaced, wherever an
mvprune module refers to it, by a wrapper that records a span (name, start,
end, parent span, run id) in memory; the originals come back afterwards.
The end-to-end metrics come from untraced runs, and the traced run repeats
the workload untraced first so that it can report its own overhead.

Three probes complete the per-layer picture:

- a composed pass calls the pruning stages one by one on every frame of the
  online corpus and times each; every composed result must equal
  ``prune_observation``'s or the frame counts as failed;
- a prefill cross-check times a small numpy transformer block stack at the
  full and at the kept token count, next to ``FlopModel``'s estimate;
- a traced set-up, and on workloads that do not go through the CLI one
  ``staged`` iteration, so that every layer is
  measured on every workload. A per-layer metric comes from the workload's
  own spans when the workload calls that layer, and from these probes
  otherwise.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import sys
import time

import numpy as np

from mvprune import predictor, pruner
from mvprune.core import PruneResult

from .workloads import (
    Ops, Prepared, Staged, Workload, loop, prepare, second_slowest)

# public functions whose calls become spans, by defining module
TRACED = {
    "synth": ("generate_corpus", "write_corpus", "load_corpus"),
    "core": ("save_observations", "load_observations"),
    "annotate": ("annotate_episode",),
    "predictor": ("train",),
    "bench": ("derive_annotations", "train_predictors", "evaluate_strategy",
              "validate_artifacts"),
}

# counts a span records from the call's bound arguments and its result
COUNTERS = {
    "core.save_observations": lambda args, result: {
        "frames": len(args["observations"]),
        "bytes": os.path.getsize(args["path"])},
    "core.load_observations": lambda args, result: {"frames": len(result)},
    "predictor.train": lambda args, result: {"steps": args["config"].steps},
}

# the stage functions the entry points call; their spans measure coverage
STAGES = {"synth.generate_corpus", "synth.write_corpus", "synth.load_corpus",
          "bench.derive_annotations", "bench.train_predictors",
          "bench.evaluate_strategy", "bench.validate_artifacts"}

PROBE_RUN = "probe"
PHASE_SHARE = 0.4
PREFILL_DIM = 64
PREFILL_LAYERS = 2
PREFILL_REPEATS = 5


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "run": self.run,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if counter is not None:
            record.update(counter(signature.bind(*args, **kwargs).arguments,
                                  result))
        return result

    return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace every ``TRACED`` function wherever an mvprune module holds it."""
    modules = [m for name, m in sys.modules.items()
               if name == "mvprune" or name.startswith("mvprune.")]
    replaced = []
    try:
        for owner, names in TRACED.items():
            module = importlib.import_module(f"mvprune.{owner}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = _wrap(tracer, f"{owner}.{fname}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            replaced.append((holder, attr, value))
                            setattr(holder, attr, wrapper)
        yield
    finally:
        for holder, attr, value in reversed(replaced):
            setattr(holder, attr, value)


# ---------------------------------------------------------------------------
# probes


STAGE_TIMINGS = ("predictor.intra_ms", "predictor.inter_ms",
                 "pruner.weight_ms", "pruner.normalize_ms", "pruner.local_ms",
                 "pruner.fuse_ms", "pruner.global_ms")


def composed_pass(prep: Prepared, ops: Ops) -> dict:
    """Run the hierarchical stages one call at a time on every frame.

    Returns per-frame median milliseconds per stage, the median microseconds
    of rebuilding a ``PruneResult`` from its fields, and exact token counts
    over the pass.
    """
    cfg = prep.prune_config
    times = {name: [] for name in STAGE_TIMINGS}
    rebuild_us = []
    tokens = {"in": 0, "post_local": 0, "kept": 0}
    for obs in prep.observations:
        marks = [time.perf_counter()]
        raw = predictor.predict_intra(prep.intra, obs)
        marks.append(time.perf_counter())
        inter = predictor.predict_inter(prep.inter, obs)
        marks.append(time.perf_counter())
        weighted = [pruner.adaptive_weight(r, v.height, v.width, cfg.epsilon)
                    for r, v in zip(raw, obs.views)]
        marks.append(time.perf_counter())
        normalized = [pruner.normalize_scores(w) for w in weighted]
        marks.append(time.perf_counter())
        kept_local, local_counts = pruner.local_prune(normalized, cfg.alphas)
        marks.append(time.perf_counter())
        fused = pruner.fuse_scores(
            [n[k] for n, k in zip(normalized, kept_local)], inter)
        marks.append(time.perf_counter())
        result = pruner.global_prune(
            fused, kept_local, cfg.beta, [v.token_count for v in obs.views],
            local_counts)
        marks.append(time.perf_counter())
        for name, begin, end in zip(STAGE_TIMINGS, marks, marks[1:]):
            times[name].append((end - begin) * 1e3)

        start = time.perf_counter()
        PruneResult(view_token_counts=result.view_token_counts,
                    kept=result.kept, fused_scores=result.fused_scores,
                    local_pruned_counts=result.local_pruned_counts,
                    global_pruned_count=result.global_pruned_count,
                    ranking=result.ranking)
        rebuild_us.append((time.perf_counter() - start) * 1e6)

        _, reference = pruner.prune_observation(obs, prep.intra, prep.inter,
                                                cfg)
        ops.record("composed frame", [] if result == reference else
                   [f"frame {obs.frame_index} of {obs.episode_id} differs "
                    f"from prune_observation"])
        tokens["in"] += sum(result.view_token_counts)
        tokens["post_local"] += sum(result.post_local_counts)
        tokens["kept"] += result.kept_total
    metrics = {name: (statistics.median(values), "ms")
               for name, values in times.items()}
    metrics["core.prune_result_us"] = (statistics.median(rebuild_us), "us")
    metrics["predictor.tokens_scored"] = (
        float(prep.observations[0].total_tokens), "count")
    for key, value in tokens.items():
        metrics[f"pruner.tokens_{key}"] = (float(value), "count")
    return metrics


def _layer_norm(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered ** 2).mean(axis=1, keepdims=True)
                              + 1e-5)


def prefill(x: np.ndarray, layers) -> np.ndarray:
    """Pre-norm single-head transformer blocks: 12 n d^2 multiply-adds in
    the matmuls and 2 n^2 d in attention per layer, FlopModel's terms."""
    scale = 1.0 / np.sqrt(x.shape[1])
    for qkv, proj, up, down in layers:
        q, k, v = np.split(_layer_norm(x) @ qkv, 3, axis=1)
        scores = (q @ k.T) * scale
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        x = x + (weights @ v) @ proj
        x = x + np.maximum(_layer_norm(x) @ up, 0.0) @ down
    return x


def prefill_check(full_tokens: int, kept_tokens: int) -> dict:
    """Measured prefill speedup from pruning next to the FLOP model's."""
    d = PREFILL_DIM
    rng = np.random.default_rng(0)
    layers = [tuple(rng.standard_normal(shape) / np.sqrt(shape[0])
                    for shape in ((d, 3 * d), (d, d), (d, 4 * d), (4 * d, d)))
              for _ in range(PREFILL_LAYERS)]
    tokens = rng.standard_normal((full_tokens, d))

    def median_seconds(n: int) -> float:
        samples = []
        for _ in range(PREFILL_REPEATS):
            start = time.perf_counter()
            prefill(tokens[:n], layers)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    model = pruner.FlopModel(layers=PREFILL_LAYERS, embed_dim=d)
    return {
        "prefill.measured_speedup": (
            median_seconds(full_tokens) / median_seconds(kept_tokens), "x"),
        "prefill.model_speedup": (
            pruner.speedup_estimate(model, full_tokens, kept_tokens), "x"),
    }


# ---------------------------------------------------------------------------
# the traced run


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], iterations: int) -> dict:
    """Per-layer metrics from spans: the workload's where it calls the
    layer, else the probes'. Seconds are per iteration of the workload."""

    def of(name):
        own = [s for s in spans if s["name"] == name and s["run"] != PROBE_RUN]
        if own:
            return own, iterations
        return [s for s in spans if s["name"] == name], 1

    def seconds_per_run(name):
        found, runs = of(name)
        return sum(map(_duration, found)) / runs

    def ms_per(name, count):
        found, _ = of(name)
        return 1e3 * sum(map(_duration, found)) / sum(s[count] for s in found)

    def mean_s(name):
        found, _ = of(name)
        return statistics.mean(map(_duration, found))

    saved, _ = of("core.save_observations")
    trained, _ = of("predictor.train")
    metrics = {
        "synth.generate_s": (seconds_per_run("synth.generate_corpus"), "s"),
        "synth.write_s": (seconds_per_run("synth.write_corpus"), "s"),
        "synth.load_s": (seconds_per_run("synth.load_corpus"), "s"),
        "core.encode_ms_per_frame": (
            ms_per("core.save_observations", "frames"), "ms"),
        "core.obs_bytes_per_frame": (
            sum(s["bytes"] for s in saved) / sum(s["frames"] for s in saved),
            "bytes"),
        "core.decode_ms_per_frame": (
            ms_per("core.load_observations", "frames"), "ms"),
        "annotate.episode_ms": (
            1e3 * mean_s("annotate.annotate_episode"), "ms"),
        "predictor.train_s": (seconds_per_run("predictor.train"), "s"),
        "predictor.train_steps_per_s": (
            sum(s["steps"] for s in trained)
            / sum(map(_duration, trained)), "1/s"),
        "bench.evaluate_s": (mean_s("bench.evaluate_strategy"), "s"),
        "bench.validate_s": (mean_s("bench.validate_artifacts"), "s"),
    }
    for command in ("gen", "train", "prune", "validate"):
        metrics[f"cli.{command}_s"] = (mean_s(f"cli.{command}"), "s")
    return metrics


def stage_coverage(spans: list[dict], run_s: float) -> float:
    """Share of ``run_s`` that the outermost stage spans of the
    second-slowest traced iteration cover."""
    by_id = {s["id"]: s for s in spans}

    def outermost(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in STAGES:
                return False
            parent = by_id[parent]["parent"]
        return True

    covered = {}
    for span in spans:
        if span["run"] != PROBE_RUN and span["name"] in STAGES \
                and outermost(span):
            covered[span["run"]] = covered.get(span["run"], 0.0) \
                + _duration(span)
    return second_slowest(list(covered.values())) / run_s


def traced(workload: Workload, seconds: float, work, ops: Ops,
           expected: dict) -> tuple[dict, list[dict]]:
    """The per-layer metrics as {name: (value, unit)}, and the spans."""
    budget = PHASE_SHARE * seconds
    untraced = loop(workload, budget, work, ops, expected)
    prep = untraced.prep
    tracer = Tracer()
    with patched(tracer):
        traced_loop = loop(workload, budget, work, ops, expected, tracer,
                           validate=False, prep=prep)
        tracer.run = PROBE_RUN
        prepare(workload.config)
        if not isinstance(workload, Staged):
            Staged(workload.seed, workload.extra).run(
                work / "probe", tracer, ops, {}, validate=False)
    untraced_s = second_slowest(untraced.run_s)
    traced_s = second_slowest(traced_loop.run_s)
    metrics = layer_metrics(tracer.spans, len(traced_loop.run_s))
    metrics.update(composed_pass(prep, ops))
    # a tail of one pass: bursts of host load move it too much to gate it
    metrics["frame_ms_p90"] = (
        float(np.percentile(untraced.second_slowest_pass(), 90)), "ms")
    metrics["pruner.weight_cache_build_ms"] = (
        statistics.median(untraced.cache_ms), "ms")
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    metrics["trace.stage_coverage"] = (
        stage_coverage(tracer.spans, untraced_s), "share")
    kept = int(statistics.median(r.kept_total for r in untraced.results))
    metrics.update(prefill_check(prep.observations[0].total_tokens, kept))
    return metrics, tracer.spans
