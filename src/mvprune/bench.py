"""Benchmark harness: seeded end-to-end experiments over synthetic corpora.

An experiment generates a corpus, re-derives its annotations from geometry
(aborting if they disagree with the generator's ground truth), trains both
predictors on the derived labels, prunes every frame, and folds the results
into a metrics report. Everything is driven by one JSON config whose
defaults are materialized and written next to the outputs, and every
artifact except the timing file is byte-identical across reruns of the same
config.
"""

from __future__ import annotations

import csv
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    INPUT_ERRORS,
    VIEW_COUNT,
    AnnotationError,
    ConfigError,
    ContractError,
    EpisodeAnnotation,
    ImportanceScores,
    MultiViewObservation,
    ParseError,
    PruneConfig,
    PruneResult,
    Strategy,
    _check_int,
    _config_float,
    _episode_records,
    _observations,
    dumps_obj,
    load_annotation,
    loads_obj,
    observation_header,
    read_jsonl,
    read_text,
    write_jsonl,
)
from .annotate import annotate_episode, load_geometry
from .predictor import (
    MlpParams,
    TrainConfig,
    build_inter_dataset,
    build_intra_dataset,
    init_mlp,
    load_params,
    load_trace,
    save_params,
    save_trace,
    train,
)
from .pruner import (
    FlopModel,
    PruneBatch,
    _dispatch,
    _score_frames,
    flop_estimate,
)
from .synth import (
    _DISTRACTOR_SLOTS,
    IMAGE_SIZE,
    ScenarioSpec,
    SynthEpisode,
    _check_episode,
    _observation_grids,
    _read_manifest,
    generate_corpus,
    write_corpus,
)


# ---------------------------------------------------------------------------
# classifier metrics


def auc_score(scores, labels) -> float:
    """Area under the ROC curve via tie-averaged ranks."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractError("scores and labels must be aligned 1-d arrays")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be 0 or 1")
    positives = int(y.sum())
    negatives = y.shape[0] - positives
    if positives == 0 or negatives == 0:
        raise ContractError("AUC needs both classes present")
    order = np.argsort(s)
    sorted_scores, y = s[order], y[order]
    del order
    # tie group bounds[k]..bounds[k + 1] - 1 of the sorted scores, in any
    # order, shares the midrank (bounds[k] + bounds[k + 1] + 1) / 2; every
    # term and partial sum below is an integer under 2**53, so it is exact
    bounds = np.flatnonzero(
        np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    del sorted_scores
    hits = np.add.reduceat(y, bounds[:-1], dtype=np.float64)
    u = (np.dot(bounds[:-1], hits) + np.dot(bounds[1:], hits) + positives
         ) / 2.0 - positives * (positives + 1) / 2.0
    return float(u / (positives * negatives))


def precision_recall(scores, labels, threshold: float = 0.5
                     ) -> tuple[float, float]:
    """Precision and recall of thresholded scores.

    Precision is 0 when nothing is predicted positive; recall requires at
    least one true positive label.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ContractError("scores and labels must be aligned 1-d arrays")
    predicted = s >= threshold
    actual = y == 1
    if not actual.any():
        raise ContractError("recall needs at least one positive label")
    true_positive = int((predicted & actual).sum())
    precision = true_positive / int(predicted.sum()) if predicted.any() else 0.0
    recall = true_positive / int(actual.sum())
    return float(precision), float(recall)


def accuracy(predictions, labels) -> float:
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape or p.size == 0:
        raise ContractError("predictions and labels must be aligned and nonempty")
    return float((p == y).mean())


# ---------------------------------------------------------------------------
# metrics report


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated outcome of pruning a corpus with one strategy.

    Token counts are totals over all frames, per view. ``flop_speedup``
    compares the summed transformer cost of the unpruned and pruned token
    sequences; ``retention_relevant`` is the fraction of ground-truth
    relevant tokens that survived pruning.
    ``evaluate_strategy`` builds it from Python numbers with kept <=
    post-local <= before per view, ratios in ``[0, 1]`` and a speedup of at
    least 1; the record itself checks nothing.
    """

    strategy: str
    episodes: int
    frames: int
    tokens_before: tuple[int, ...]
    tokens_post_local: tuple[int, ...]
    tokens_kept: tuple[int, ...]
    reduction_ratio: float
    flop_speedup: float
    retention_relevant: float
    intra_auc: float
    intra_precision: float
    intra_recall: float
    inter_accuracy: float
    inter_precision: float
    inter_recall: float

    @property
    def kept_total(self) -> int:
        return sum(self.tokens_kept)

    @property
    def before_total(self) -> int:
        return sum(self.tokens_before)

    @property
    def kept_share_per_view(self) -> tuple[float, ...]:
        total = self.kept_total
        if total == 0:
            return (0.0,) * len(self.tokens_kept)
        return tuple(k / total for k in self.tokens_kept)

    def rows(self) -> list[tuple[str, str]]:
        """Flat metric rows in a fixed order, values as repr text."""
        out = [("episodes", str(self.episodes)), ("frames", str(self.frames))]
        out.append(("tokens_before_total", str(self.before_total)))
        out.append(("tokens_post_local_total", str(sum(self.tokens_post_local))))
        out.append(("tokens_kept_total", str(self.kept_total)))
        for v in range(len(self.tokens_before)):
            out.append((f"tokens_before_view{v}", str(self.tokens_before[v])))
            out.append((f"tokens_post_local_view{v}",
                        str(self.tokens_post_local[v])))
            out.append((f"tokens_kept_view{v}", str(self.tokens_kept[v])))
            out.append((f"kept_share_view{v}",
                        repr(self.kept_share_per_view[v])))
        for name in ("reduction_ratio", "flop_speedup", "retention_relevant",
                     "intra_auc", "intra_precision", "intra_recall",
                     "inter_accuracy", "inter_precision", "inter_recall"):
            out.append((name, repr(getattr(self, name))))
        return out


# report.csv and compare.csv: a row per strategy and MetricsReport.rows entry
REPORT_HEADER = ("strategy", "metric", "value")


# ---------------------------------------------------------------------------
# experiment configuration


DEFAULT_CONFIG = {
    "fmt": FORMAT_VERSION,
    "kind": "experiment_config",
    "corpus": {
        "count": 4,
        "seed": 7,
        "episode_length": 16,
        "noise_sigma": 0.05,
        "distractors": 2,
        "embed_dim": 32,
        "patch_size": 16,
    },
    "train": {
        "hidden": 64,
        "learning_rate": 0.5,
        "steps": 600,
        "batch_size": 128,
        "reduction": "mean",
        "seed": 3,
    },
    "prune": {
        "alphas": [0.3, 0.2, 0.2],
        "beta": 0.5,
        "epsilon": 0.01,
        "strategy": "hierarchical",
        "adaptive_threshold": 0.5,
        "adaptive_multiplier": 0.8,
        "seed": 0,
    },
    "flop": {
        "layers": 18,
        "embed_dim": 2048,
        "linear_coeff": 12.0,
        "quadratic_coeff": 2.0,
    },
}

# a scenario's default arm scripts scale with its episode length, so length is
# the only timing knob the config exposes
_MIN_EPISODE_LENGTH = 12


def resolve_config(overrides: dict | None) -> dict:
    """Materialize an experiment config: defaults plus user overrides.

    Unknown keys are rejected so a typo cannot silently fall back to a
    default.
    """
    resolved = {key: dict(value) if isinstance(value, dict) else value
                for key, value in DEFAULT_CONFIG.items()}
    if overrides is None:
        return resolved
    if not isinstance(overrides, dict):
        raise ConfigError("experiment config must be a JSON object")
    for key, value in overrides.items():
        if key == "fmt":
            if value != FORMAT_VERSION:
                raise ConfigError(f"unsupported config format {value!r}")
            continue
        if key == "kind":
            if value != "experiment_config":
                raise ConfigError(f"unexpected config kind {value!r}")
            continue
        if key not in ("corpus", "train", "prune", "flop"):
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for sub, sub_value in value.items():
            if sub not in resolved[key]:
                raise ConfigError(f"unknown config key {key}.{sub}")
            resolved[key][sub] = sub_value
    return resolved


def load_experiment_config(path) -> dict:
    return resolve_config(loads_obj(read_text(path)))


@contextmanager
def _section(name: str) -> Iterator[None]:
    """Report a malformed ``name`` config section read inside the block as a
    ``ConfigError``; maps the same exceptions as ``core.parsing``, whose
    ``invalid <record>: `` prefix gives way to this one."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        detail = str(exc)
        if isinstance(exc, ParseError) and detail.startswith("invalid "):
            detail = detail.partition(": ")[2]
        raise ConfigError(f"invalid {name} section: {detail}") from exc


def scenario_template(config: dict) -> ScenarioSpec:
    """The corpus scenario template an experiment config describes: the one
    reader of the values a ``ScenarioSpec`` is built from."""
    corpus = config["corpus"]
    with _section("corpus"):
        length = _check_int(corpus["episode_length"], "corpus.episode_length",
                            minimum=_MIN_EPISODE_LENGTH)
        distractors = _check_int(corpus["distractors"], "distractors",
                                 minimum=0)
        if distractors > _DISTRACTOR_SLOTS:
            raise ConfigError(
                f"at most {_DISTRACTOR_SLOTS} distractors fit the canvas")
        embed_dim = _check_int(corpus["embed_dim"], "embed_dim", minimum=1)
        sigma = _config_float(corpus["noise_sigma"], "noise_sigma",
                              "nonnegative")
        patch_size = _check_int(corpus["patch_size"], "patch_size", minimum=1)
        if IMAGE_SIZE % patch_size != 0:
            raise ConfigError(
                f"patch_size must divide {IMAGE_SIZE}, got {patch_size}")
        return ScenarioSpec(episode_length=length, distractors=distractors,
                            embed_dim=embed_dim, noise_sigma=sigma,
                            patch_size=patch_size)


def _prune_config(config: dict, **overrides) -> PruneConfig:
    """The prune section as a ``PruneConfig``, with ``overrides`` in place
    of its keys of the same name."""
    obj = {"fmt": FORMAT_VERSION, "kind": "prune_config", **config["prune"],
           **overrides}
    with _section("prune"):
        prune_config = PruneConfig.from_obj(obj)
        if len(prune_config.alphas) != VIEW_COUNT:
            raise ValueError(f"alphas needs one local ratio per view, "
                             f"{VIEW_COUNT}, got {len(prune_config.alphas)}")
    return prune_config


def _flop_model(config: dict, extent: tuple[int, int]) -> FlopModel:
    """The config's cost model, refused if the cost of one token, or its
    cost summed over ``extent``, ``(frames, tokens in the largest frame)``,
    can leave the float range."""
    section = config["flop"]
    with _section("flop"):
        layers, d = (_check_int(section[name], name, minimum=1)
                     for name in ("layers", "embed_dim"))
        linear, quadratic = (_config_float(section[name], name, "positive")
                             for name in ("linear_coeff", "quadratic_coeff"))
        # the exact cost, times two for the rounding of the estimates and
        # their sum
        for frames, tokens in ((1, 1), extent):
            cost = layers * tokens * d * (Fraction(linear) * d
                                          + Fraction(quadratic) * tokens)
            if 2 * frames * cost > sys.float_info.max:
                raise ConfigError(f"the cost of {frames} frames of {tokens} "
                                  "tokens leaves the float range")
    return FlopModel(layers, d, linear, quadratic)


def _allocatable(what: str, floats: int) -> None:
    """Refuse ``what``, an array of ``floats`` float64 entries, if it is
    larger than numpy allocates on any machine: ``sys.maxsize`` bytes."""
    if 8 * floats > sys.maxsize:
        raise ConfigError(f"{what} would take {8 * floats} bytes, more than "
                          f"numpy can allocate ({sys.maxsize})")


def _parse(config: dict) -> tuple[PruneConfig, FlopModel]:
    """Parse every section of a resolved config, generating nothing; the
    cost model is bounded by the corpus the config generates, and the
    corpus and training arrays by what numpy can allocate."""
    prune_config = _prune_config(config)
    hidden, train_config = _train_config(config)
    spec = scenario_template(config)
    per_frame = VIEW_COUNT * spec.grid_side ** 2
    batch = train_config.batch_size
    with _section("corpus"):
        count = _check_int(config["corpus"]["count"], "corpus.count",
                           minimum=1)
        _check_int(config["corpus"]["seed"], "corpus.seed", minimum=0)
        tokens = count * spec.episode_length * per_frame
        _allocatable(f"a token buffer of corpus.count x corpus.episode_length"
                     f" x {per_frame} tokens x corpus.embed_dim",
                     tokens * spec.embed_dim)
    with _section("train"):
        for what, floats in (
                (f"train.hidden x {VIEW_COUNT} x corpus.embed_dim weights",
                 hidden * VIEW_COUNT * spec.embed_dim),
                ("train.hidden x " + ("train.batch_size" if batch else
                                      "corpus tokens") + " activations",
                 hidden * (batch or tokens)),
                (f"train.batch_size x {VIEW_COUNT} x corpus.embed_dim inputs",
                 batch * VIEW_COUNT * spec.embed_dim),
                ("train.steps losses", train_config.steps)):
            _allocatable(what, floats)
    return prune_config, _flop_model(
        config, (count * spec.episode_length, per_frame))


# ---------------------------------------------------------------------------
# experiment stages


def derive_annotations(episodes: Sequence[SynthEpisode]
                       ) -> list[EpisodeAnnotation]:
    """Annotate every episode from geometry and check against ground truth.

    A mismatch means the annotation pipeline broke an invariant; the error
    names the episode and frame.
    """
    derived = []
    for episode in episodes:
        ann = annotate_episode(episode.geometry, episode.episode_id)
        truth = episode.annotation
        if ann != truth:
            frame = next((t for t, (a, b) in enumerate(
                zip(ann.frames, truth.frames)) if a != b), None)
            raise AnnotationError(
                f"episode {episode.episode_id}: derived annotation diverges "
                f"from ground truth", frame=frame)
        derived.append(ann)
    return derived


def _train_config(config: dict) -> tuple[int, TrainConfig]:
    """The hidden width and the SGD settings of the train section."""
    section = config["train"]
    with _section("train"):
        hidden = _check_int(section["hidden"], "train.hidden", minimum=1)
        rate = _config_float(section["learning_rate"], "learning_rate",
                             "nonnegative")
        steps, batch_size = (_check_int(section[name], name, minimum=0)
                             for name in ("steps", "batch_size"))
        reduction = section["reduction"]
        if reduction not in ("mean", "sum"):
            raise ConfigError(
                f"reduction must be 'mean' or 'sum', got {reduction!r}")
        return hidden, TrainConfig(rate, steps, batch_size, reduction,
                                   _check_int(section["seed"], "seed",
                                              minimum=0))


def train_predictors(observations: Sequence[MultiViewObservation],
                     annotations: dict, config: dict
                     ) -> tuple[MlpParams, MlpParams, np.ndarray, np.ndarray]:
    """Train the token and the view predictor on annotated observations,
    ``annotations`` by episode id; both predictors and both loss traces."""
    hidden, train_config = _train_config(config)
    intra_x, intra_y = build_intra_dataset(observations, annotations)
    inter_x, inter_y = build_inter_dataset(observations, annotations)
    d, views = observations[0].embed_dim, observations[0].view_count
    try:
        intra = init_mlp((d, hidden, 1), seed=train_config.seed)
        inter = init_mlp((views * d, hidden, views),
                         seed=train_config.seed + 1)
        intra, intra_losses = train(intra, intra_x, intra_y, train_config)
        inter, inter_losses = train(inter, inter_x, inter_y, train_config)
    except ContractError:
        raise
    # an array sized by hidden, steps or batch_size that numpy cannot
    # allocate; TrainingError is not a ValueError and keeps its type
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"invalid train section: {exc}") from exc
    return intra, inter, intra_losses, inter_losses


def train_episodes(episodes: Sequence[SynthEpisode], config: dict
                   ) -> tuple[MlpParams, MlpParams, np.ndarray, np.ndarray]:
    """``train_predictors`` on every frame of ``episodes`` and their
    annotations."""
    return train_predictors(
        [obs for episode in episodes for obs in episode.observations],
        {episode.episode_id: episode.annotation for episode in episodes},
        config)


@dataclass(frozen=True)
class ScoredCorpus:
    """A corpus scored once: each frame's ``score_observation`` output,
    weighted with ``epsilon``, and the ``classifier`` metrics of the raw
    scores. No pruning rule changes these, so every prune config with this
    ``epsilon`` is evaluated against them."""

    episodes: tuple[SynthEpisode, ...]
    scores: tuple[tuple[ImportanceScores, ...], ...]
    epsilon: float
    classifier: dict[str, float]


def score_corpus(episodes: Sequence[SynthEpisode], intra: MlpParams,
                 inter: MlpParams, epsilon: float) -> ScoredCorpus:
    """Score every frame of ``episodes`` with both predictors, and rate the
    raw scores as classifiers against the episodes' annotations."""
    if not episodes:
        raise ContractError("evaluation needs at least one episode")
    frames = [frame for episode in episodes
              for frame in episode.annotation.frames]
    frame_scores = _score_frames(
        [obs for episode in episodes for obs in episode.observations],
        intra, inter, epsilon)
    intra_s, intra_y, inter_s, inter_y = map(np.concatenate, (
        [raw for s in frame_scores for raw in s.intra_raw],
        [mask for frame in frames for mask in frame.masks],
        [s.inter for s in frame_scores],
        [np.array(frame.inter_labels) for frame in frames]))
    intra_precision, intra_recall = precision_recall(intra_s, intra_y)
    inter_precision, inter_recall = precision_recall(inter_s, inter_y)
    classifier = {
        "intra_auc": auc_score(intra_s, intra_y),
        "intra_precision": intra_precision, "intra_recall": intra_recall,
        "inter_accuracy": accuracy((inter_s >= 0.5).astype(int), inter_y),
        "inter_precision": inter_precision, "inter_recall": inter_recall}
    by_frame = iter(frame_scores)
    scores = tuple(tuple(islice(by_frame, len(episode.observations)))
                   for episode in episodes)
    return ScoredCorpus(tuple(episodes), scores, float(epsilon), classifier)


def evaluate_strategy(corpus: ScoredCorpus, prune_config: PruneConfig,
                      flop_model: FlopModel
                      ) -> tuple[MetricsReport, list[PruneBatch]]:
    """Prune a scored corpus and fold the outcomes into a report. Each
    episode is pruned in one batch, sized by its annotation's view grids;
    the batches come back in episode order. The corpus must have been
    scored with ``prune_config.epsilon``.
    """
    if prune_config.epsilon != corpus.epsilon:
        raise ContractError(
            f"prune config epsilon {prune_config.epsilon!r} differs from the "
            f"{corpus.epsilon!r} the corpus was scored with")
    counts = []
    relevant_kept = relevant_total = 0
    flops_before = flops_after = 0.0
    batches = []
    for episode, scores in zip(corpus.episodes, corpus.scores):
        sizes = tuple(h * w for h, w in episode.annotation.grids)
        batch = _dispatch(
            [np.stack(view) for view in zip(*(s.intra_weighted
                                              for s in scores))],
            np.stack([s.inter for s in scores]), sizes, prune_config)
        batches.append(batch)
        # per frame and view; a view of a grid has at least one token
        kept = np.add.reduceat(batch.kept, np.cumsum((0, *sizes[:-1])),
                               axis=1)
        counts.append((np.multiply(sizes, len(scores)),
                       np.subtract(sizes, batch.local_pruned_counts)
                       .sum(axis=0), kept.sum(axis=0)))
        masks = np.stack([np.concatenate(frame.masks)
                          for frame in episode.annotation.frames])
        relevant_total += int(masks.sum())
        relevant_kept += int(masks[batch.kept].sum())
        # frame by frame, in order: the sum's rounding stays that of a
        # per-frame loop
        for kept_total in kept.sum(axis=1).tolist():
            flops_before += flop_estimate(flop_model, sum(sizes))
            flops_after += flop_estimate(flop_model, max(kept_total, 1))
    # Python ints: report.csv would write a numpy float as np.float64(...)
    before, post_local, kept = np.sum(counts, axis=0, dtype=np.int64).tolist()
    report = MetricsReport(
        strategy=prune_config.strategy.value,
        episodes=len(corpus.episodes),
        frames=sum(len(episode.observations) for episode in corpus.episodes),
        tokens_before=tuple(before),
        tokens_post_local=tuple(post_local),
        tokens_kept=tuple(kept),
        reduction_ratio=1.0 - sum(kept) / sum(before),
        flop_speedup=flops_before / flops_after,
        retention_relevant=(relevant_kept / relevant_total
                            if relevant_total else 1.0),
        **corpus.classifier,
    )
    return report, batches


def prune_and_write(corpus: ScoredCorpus, prune_config: PruneConfig,
                    flop_model: FlopModel, out_dir, records_dir
                    ) -> MetricsReport:
    """``evaluate_strategy``, then one ``{episode_id}.prune.jsonl`` per
    episode under ``records_dir``, a record per frame, and ``report.csv``
    under ``out_dir``; the report."""
    report, batches = evaluate_strategy(corpus, prune_config, flop_model)
    for episode, batch in zip(corpus.episodes, batches):
        write_jsonl(Path(records_dir) / f"{episode.episode_id}.prune.jsonl",
                    ({"fmt": FORMAT_VERSION, "kind": "prune",
                      "episode_id": episode.episode_id, "frame_index": t,
                      "result": result.to_obj()}
                     for t, result in enumerate(batch.results())))
    write_csv(Path(out_dir) / "report.csv", REPORT_HEADER,
              ((report.strategy, *row) for row in report.rows()))
    return report


# ---------------------------------------------------------------------------
# experiment driver


def _prepare(config: dict) -> tuple:
    """Generate the corpus a resolved config describes, check that its
    annotations derive from its geometry, and train both predictors on it.
    Returns the episodes, both predictors and both loss traces."""
    section = config["corpus"]
    episodes = generate_corpus(scenario_template(config), section["count"],
                               section["seed"])
    derive_annotations(episodes)
    return (episodes, *train_episodes(episodes, config))


def _scored_corpus(config: dict, epsilon: float) -> ScoredCorpus:
    episodes, intra, inter, _, _ = _prepare(config)
    return score_corpus(episodes, intra, inter, epsilon)


def run_experiment(config: dict | None, out_dir) -> MetricsReport:
    """Run the full pipeline under ``out_dir`` and return the report.

    Writes the corpus, checkpoints, loss traces, prune records,
    ``report.csv``, ``timings.csv``, and the resolved config. All artifacts
    except ``timings.csv`` are byte-identical across reruns.
    """
    config = resolve_config(config)
    prune_config, flop_model = _parse(config)
    out = Path(out_dir)
    timings = {}

    start = time.perf_counter()
    episodes, intra, inter, intra_losses, inter_losses = _prepare(config)
    timings["prepare"] = time.perf_counter() - start

    start = time.perf_counter()
    write_corpus(episodes, config["corpus"]["seed"], out / "corpus")
    write_checkpoints(out, intra, inter, intra_losses, inter_losses)
    timings["write"] = time.perf_counter() - start

    start = time.perf_counter()
    corpus = score_corpus(episodes, intra, inter, prune_config.epsilon)
    timings["score"] = time.perf_counter() - start

    start = time.perf_counter()
    report = prune_and_write(corpus, prune_config, flop_model, out,
                             out / "corpus")
    timings["prune"] = time.perf_counter() - start

    write_jsonl(out / "config.resolved.json", [config])
    write_csv(out / "timings.csv", ("stage", "seconds"),
              ((stage, f"{seconds:.6f}") for stage, seconds in timings.items()))
    return report


def compare_strategies(config: dict | None, out_dir,
                       strategies: Sequence[Strategy] = (
                           Strategy.HIERARCHICAL, Strategy.RANDOM_DROP,
                           Strategy.ADAPTIVE_RATIO_DROP, Strategy.NO_PRUNE),
                       ) -> dict[str, MetricsReport]:
    """Evaluate several strategies on one corpus with shared predictors.

    The corpus is prepared and scored once and shared across strategies, so
    differences in the reports come from the pruning rule alone. Writes
    ``compare.csv``.
    """
    config = resolve_config(config)
    base, flop_model = _parse(config)
    prune_configs = [_prune_config(config, strategy=s) for s in strategies]
    corpus = _scored_corpus(config, base.epsilon)
    reports = {c.strategy.value: evaluate_strategy(corpus, c, flop_model)[0]
               for c in prune_configs}
    write_csv(Path(out_dir) / "compare.csv", REPORT_HEADER,
              ((r.strategy, *row) for r in reports.values() for row in r.rows()))
    return reports


def sweep_beta(config: dict | None, betas: Sequence[float], out_dir
               ) -> list[dict]:
    """Evaluate the hierarchical strategy across global prune ratios.

    Validates that kept counts never increase and the speedup never
    decreases as the ratio grows, then writes ``sweep.csv``.
    """
    if not betas:
        raise ConfigError("sweep needs at least one ratio")
    config = resolve_config(config)
    base, flop_model = _parse(config)
    prune_configs = sorted(
        (_prune_config(config, strategy=Strategy.HIERARCHICAL, beta=b)
         for b in betas), key=lambda prune_config: prune_config.beta)
    corpus = _scored_corpus(config, base.epsilon)
    rows = []
    for prune_config in prune_configs:
        report, _ = evaluate_strategy(corpus, prune_config, flop_model)
        rows.append({"beta": prune_config.beta,
                     "kept_total": report.kept_total,
                     "reduction_ratio": report.reduction_ratio,
                     "flop_speedup": report.flop_speedup,
                     "retention_relevant": report.retention_relevant})
    for a, b in zip(rows, rows[1:]):
        if b["kept_total"] > a["kept_total"]:
            raise ContractError(
                f"kept count grew from ratio {a['beta']} to {b['beta']}")
        if b["flop_speedup"] < a["flop_speedup"] - 1e-12:
            raise ContractError(
                f"speedup shrank from ratio {a['beta']} to {b['beta']}")
    write_csv(Path(out_dir) / "sweep.csv", rows[0],
              ([repr(value) for value in row.values()] for row in rows))
    return rows


def write_checkpoints(directory, intra: MlpParams, inter: MlpParams,
                      intra_losses, inter_losses) -> None:
    """Both predictors' checkpoints and loss traces under ``directory``."""
    directory = Path(directory)
    save_params(directory / "intra.mlp.json", intra)
    save_params(directory / "inter.mlp.json", inter)
    save_trace(directory / "intra_trace.csv", intra_losses)
    save_trace(directory / "inter_trace.csv", inter_losses)


def write_csv(path, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    """A deterministic CSV table: the ``header`` row, then ``rows``."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# artifact validation


def validate_artifacts(out_dir) -> list[str]:
    """Re-parse the record files under an experiment directory: the
    manifest, observations with their sidecars, annotations, geometry and
    prune records of ``corpus/``, and the prune records, checkpoints, loss
    traces and ``config.resolved.json`` beside it. The CSV tables
    (``report.csv``, ``compare.csv``, ``sweep.csv``, ``timings.csv``) are
    not opened. Returns human-readable problem descriptions; an empty list
    means every file read parsed, round-tripped and kept its invariants.
    """
    out = Path(out_dir)
    problems = []
    if not out.is_dir():
        return [f"{out}: not a directory"]

    def check(path, loader):
        try:
            return loader(path)
        except INPUT_ERRORS as exc:
            # a reader's message may itself begin with the file's path
            problems.append(
                f"{path.name}: {str(exc).removeprefix(f'{path}: ')}")

    corpus = out / "corpus"
    manifest = corpus / "manifest.json"
    entries = manifest.exists() and check(manifest, _read_manifest) or ()
    # the tokens sidecar of each observation file the manifest names
    sidecars = {entry["observations"]: corpus / entry["tokens"]
                for entry in entries}
    # each corpus file that parsed, by its kind and name, for the checks
    # across an episode's files; observations without their tokens, prune
    # records as their count
    parsed = {}
    if corpus.is_dir():
        for path in sorted(corpus.glob("*.jsonl")):
            name = path.name
            if name.endswith(".obs.jsonl"):
                parsed["observations", name] = check(
                    path, lambda path: _validate_observations(
                        path, sidecars.get(path.name)))
            elif name.endswith(".ann.jsonl"):
                parsed["annotation", name] = check(path, load_annotation)
            elif name.endswith(".geom.jsonl"):
                parsed["geometry", name] = check(path, load_geometry)
            elif name.endswith(".prune.jsonl"):
                parsed["prune", name] = check(path, _validate_prune_records)
    # those that mvprune prune --corpus writes next to its report.csv
    for path in sorted(out.glob("*.prune.jsonl")):
        check(path, _validate_prune_records)
    for name, loader in (("intra.mlp.json", load_params),
                         ("inter.mlp.json", load_params),
                         ("config.resolved.json",
                          lambda path: _parse(load_experiment_config(path))),
                         ("intra_trace.csv", load_trace),
                         ("inter_trace.csv", load_trace)):
        path = out / name
        if path.exists():
            check(path, loader)
    kinds = ("observations", "annotation", "geometry")
    for entry in entries:
        eid = entry["episode_id"]
        # a missing tokens sidecar fails its observation file's own check
        missing = [entry[key] for key in kinds
                   if not (corpus / entry[key]).is_file()]
        if missing:
            problems.append(f"manifest.json: episode {eid!r}: no file "
                            f"{', '.join(map(repr, missing))}")
            continue
        # a file that failed its own check has its problem line already
        files = [parsed.get((key, entry[key])) for key in kinds]
        if None not in files:
            frames, annotation, (geometry_id, geometry) = files
            try:
                _check_episode(eid, frames, annotation, geometry_id,
                               geometry)
            except ParseError as exc:
                problems.append(f"manifest.json: {exc}")
        # prune records are written for a whole episode, or not at all
        records = parsed.get(("prune", f"{eid}.prune.jsonl"))
        if files[0] is not None and records not in (None, len(files[0])):
            problems.append(f"{eid}.prune.jsonl: {records} records, but "
                            f"episode {eid!r} has {len(files[0])} "
                            f"observation frames")
    return problems


def _validate_observations(path, sidecar=None) -> list:
    """Load the records with their sidecar, which checks that the two agree,
    then require each record to be exactly the header of what it loaded;
    the ``_observation_grids`` of the records."""
    records = list(read_jsonl(path))
    observations = _observations(records, path, sidecar)
    for obj, obs in zip(records, observations):
        if dumps_obj(observation_header(obs)) != dumps_obj(obj):
            raise ParseError(
                f"observation frame {obs.frame_index} does not round-trip",
                field="views")
    return _observation_grids(observations)


def _validate_prune_records(path) -> int:
    """Parse every prune record of ``path``; returns how many it holds."""
    records = 0
    for obj in _episode_records(read_jsonl(path), "prune"):
        PruneResult.from_obj(obj.get("result"))
        records += 1
    return records
