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
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import groupby, islice
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
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
    dumps_obj,
    load_annotation,
    load_observations,
    loads_obj,
    observation_header,
    read_jsonl,
    write_jsonl,
)
from .annotate import DEFAULT_DEBOUNCE, annotate_episode, load_geometry
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
    ArmScript,
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
    sorted_scores = s[order]
    # tie group i..j of the sorted scores, in any order, shares the midrank
    # (i + j) / 2 + 1: exact halves, so the rank sum is exact
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], s.shape[0]] - 1
    ranks = np.empty(s.shape[0])
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    u = ranks[y == 1].sum() - positives * (positives + 1) / 2.0
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

# arm scripts scale with episode length inside scenario_template, so length is
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
    with open(path, "r", encoding="utf-8") as fh:
        return resolve_config(loads_obj(fh.read()))


def _scaled_script(grasp: int, close: int, release: int, target: int,
                   length: int) -> ArmScript:
    """Scale the default script timings from a 24 frame episode to ``length``."""
    scale = length / 24.0
    g = max(1, round(grasp * scale))
    c = max(g + 1, round(close * scale))
    r = min(max(c + 1, round(release * scale)), length - DEFAULT_DEBOUNCE)
    if not g < c < r:
        raise ConfigError(f"episode_length {length} leaves no room for a script")
    return ArmScript(grasp=g, close=c, release=r, target_object=target)


@contextmanager
def _section(name: str) -> Iterator[None]:
    """Report a malformed ``name`` config section read inside the block as a
    ``ConfigError``; maps the same exceptions as ``core.parsing``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def scenario_template(config: dict) -> ScenarioSpec:
    """The corpus scenario template an experiment config describes."""
    corpus = config["corpus"]
    with _section("corpus"):
        length = _check_int(corpus["episode_length"], "corpus.episode_length",
                            minimum=_MIN_EPISODE_LENGTH)
        arms = (_scaled_script(4, 8, 14, 0, length),
                _scaled_script(8, 12, 18, 1, length))
        return ScenarioSpec(
            episode_length=length,
            arms=arms,
            distractors=corpus["distractors"],
            embed_dim=corpus["embed_dim"],
            noise_sigma=corpus["noise_sigma"],
            patch_size=corpus["patch_size"],
        )


def _prune_config(config: dict) -> PruneConfig:
    obj = {"fmt": FORMAT_VERSION, "kind": "prune_config", **config["prune"]}
    with _section("prune"):
        return PruneConfig.from_obj(obj)


def _flop_model(config: dict, extent: tuple[int, int]) -> FlopModel:
    """The config's cost model, refused if its cost summed over ``extent``,
    ``(frames, tokens in the largest frame)``, can leave the float range."""
    with _section("flop"):
        model = FlopModel(**config["flop"])
        model.check_range(*extent)
    return model


def _parse(config: dict) -> tuple[PruneConfig, FlopModel]:
    """Parse every section of a resolved config, generating nothing; the
    cost model is bounded by the corpus the config generates."""
    prune_config = _prune_config(config)
    _train_config(config)
    spec = scenario_template(config)
    with _section("corpus"):
        count = _check_int(config["corpus"]["count"], "corpus.count",
                           minimum=1)
    views = max(spec.roles.head, *spec.roles.wrists) + 1
    return prune_config, _flop_model(
        config, (count * spec.episode_length, views * spec.grid_side ** 2))


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
        ann = annotate_episode(episode.geometry, episode.spec.roles,
                               episode.episode_id)
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
    section = dict(config["train"])
    with _section("train"):
        hidden = _check_int(section.pop("hidden"), "train.hidden", minimum=1)
        return hidden, TrainConfig(**section)


def train_predictors(observations: Sequence[MultiViewObservation],
                     annotations: dict, config: dict
                     ) -> tuple[MlpParams, MlpParams, np.ndarray, np.ndarray]:
    """Train the token and the view predictor on annotated observations."""
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


@dataclass(frozen=True)
class ScoredCorpus:
    """A corpus checked against its annotations and scored once: each
    frame's ``score_observation`` output, weighted with ``epsilon``, and the
    ``classifier`` metrics of the raw scores. No pruning rule changes these,
    so every prune config with this ``epsilon`` is evaluated against them."""

    observations: tuple[tuple[MultiViewObservation, ...], ...]
    annotations: tuple[EpisodeAnnotation, ...]
    scores: tuple[tuple[ImportanceScores, ...], ...]
    epsilon: float
    classifier: dict[str, float]


def score_corpus(observations_by_episode: Sequence[
                     Sequence[MultiViewObservation]],
                 annotations: Sequence[EpisodeAnnotation],
                 intra: MlpParams, inter: MlpParams, epsilon: float
                 ) -> ScoredCorpus:
    """Check that ``annotations`` pair one to one with the episodes, score
    every frame with both predictors, and rate the raw scores as
    classifiers. Each annotation must cover its episode's frames and views,
    as ``load_corpus`` checks."""
    if not observations_by_episode or not observations_by_episode[0]:
        raise ContractError("evaluation needs at least one observation")
    if len(annotations) != len(observations_by_episode):
        raise ContractError("annotations must align with the episodes")
    intra_labels, inter_labels = [], []
    for episode_obs, ann in zip(observations_by_episode, annotations):
        if episode_obs and ann.episode_id != episode_obs[0].episode_id:
            raise ContractError(
                f"annotation {ann.episode_id!r} does not match observation "
                f"episode {episode_obs[0].episode_id!r}")
        for obs in episode_obs:
            frame = ann.frames[obs.frame_index]
            intra_labels.extend(frame.masks)
            inter_labels.append(np.array(frame.inter_labels))
    frame_scores = _score_frames(
        [obs for episode_obs in observations_by_episode
         for obs in episode_obs], intra, inter, epsilon)
    intra_s, intra_y, inter_s, inter_y = map(np.concatenate, (
        [raw for s in frame_scores for raw in s.intra_raw], intra_labels,
        [s.inter for s in frame_scores], inter_labels))
    intra_precision, intra_recall = precision_recall(intra_s, intra_y)
    inter_precision, inter_recall = precision_recall(inter_s, inter_y)
    classifier = {
        "intra_auc": auc_score(intra_s, intra_y),
        "intra_precision": intra_precision, "intra_recall": intra_recall,
        "inter_accuracy": accuracy((inter_s >= 0.5).astype(int), inter_y),
        "inter_precision": inter_precision, "inter_recall": inter_recall}
    by_frame = iter(frame_scores)
    scores = tuple(tuple(islice(by_frame, len(episode_obs)))
                   for episode_obs in observations_by_episode)
    return ScoredCorpus(tuple(map(tuple, observations_by_episode)),
                        tuple(annotations), scores, float(epsilon),
                        classifier)


def evaluate_strategy(corpus: ScoredCorpus, prune_config: PruneConfig,
                      flop_model: FlopModel
                      ) -> tuple[MetricsReport, list[list[PruneBatch]]]:
    """Prune a scored corpus and fold the outcomes into a report. Each run
    of an episode's frames with equal view token counts is pruned in one
    batch; the batches come back per episode. The corpus must have been
    scored with ``prune_config.epsilon``.
    """
    if prune_config.epsilon != corpus.epsilon:
        raise ContractError(
            f"prune config epsilon {prune_config.epsilon!r} differs from the "
            f"{corpus.epsilon!r} the corpus was scored with")
    counts = []
    relevant_kept = relevant_total = 0
    flops_before = flops_after = 0.0
    results = []
    for episode_obs, ann, episode_scores in zip(
            corpus.observations, corpus.annotations, corpus.scores):
        batches = []
        for sizes, run in groupby(
                zip(episode_obs, episode_scores),
                key=lambda pair: tuple(v.token_count for v in pair[0].views)):
            observations, scores = zip(*run)
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
            masks = np.stack([np.concatenate(ann.frames[obs.frame_index].masks)
                              for obs in observations])
            relevant_total += int(masks.sum())
            relevant_kept += int(masks[batch.kept].sum())
            # frame by frame, in order: the sum's rounding stays that of a
            # per-frame loop
            for obs, kept_total in zip(observations,
                                       kept.sum(axis=1).tolist()):
                flops_before += flop_estimate(flop_model, obs.total_tokens)
                flops_after += flop_estimate(flop_model, max(kept_total, 1))
        results.append(batches)
    # Python ints: report.csv would write a numpy float as np.float64(...)
    before, post_local, kept = np.sum(counts, axis=0, dtype=np.int64).tolist()
    report = MetricsReport(
        strategy=prune_config.strategy.value,
        episodes=len(corpus.observations),
        frames=sum(map(len, corpus.observations)),
        tokens_before=tuple(before),
        tokens_post_local=tuple(post_local),
        tokens_kept=tuple(kept),
        reduction_ratio=1.0 - sum(kept) / sum(before),
        flop_speedup=flops_before / flops_after,
        retention_relevant=(relevant_kept / relevant_total
                            if relevant_total else 1.0),
        **corpus.classifier,
    )
    return report, results


# ---------------------------------------------------------------------------
# experiment driver


def _prepare(config: dict) -> tuple:
    """Generate the corpus a resolved config describes, derive its
    annotations and train both predictors on them. Returns the episodes,
    the derived annotations, both predictors and both loss traces."""
    section = config["corpus"]
    episodes = generate_corpus(scenario_template(config), section["count"],
                               section["seed"])
    derived = derive_annotations(episodes)
    observations = [obs for ep in episodes for obs in ep.observations]
    trained = train_predictors(
        observations, {ann.episode_id: ann for ann in derived}, config)
    return (episodes, derived, *trained)


def _scored_corpus(config: dict, epsilon: float) -> ScoredCorpus:
    episodes, derived, intra, inter, _, _ = _prepare(config)
    return score_corpus([ep.observations for ep in episodes], derived,
                        intra, inter, epsilon)


def run_experiment(config: dict | None, out_dir) -> MetricsReport:
    """Run the full pipeline under ``out_dir`` and return the report.

    Writes the corpus, derived annotations, checkpoints, loss traces, prune
    records, ``report.csv``, ``timings.csv``, and the resolved config. All
    artifacts except ``timings.csv`` are byte-identical across reruns.
    """
    config = resolve_config(config)
    prune_config, flop_model = _parse(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}

    start = time.perf_counter()
    episodes, derived, intra, inter, intra_losses, inter_losses = \
        _prepare(config)
    timings["prepare"] = time.perf_counter() - start

    start = time.perf_counter()
    write_corpus(episodes, config["corpus"]["seed"], out / "corpus")
    for ann in derived:
        write_jsonl(out / "corpus" / f"{ann.episode_id}.derived.jsonl",
                    ann.frame_objs())
    write_checkpoints(out, intra, inter, intra_losses, inter_losses)
    timings["write"] = time.perf_counter() - start

    start = time.perf_counter()
    corpus = score_corpus([ep.observations for ep in episodes], derived,
                          intra, inter, prune_config.epsilon)
    timings["score"] = time.perf_counter() - start

    start = time.perf_counter()
    report, results = evaluate_strategy(corpus, prune_config, flop_model)
    write_prune_records(out / "corpus", [ep.episode_id for ep in episodes],
                        results)
    timings["prune"] = time.perf_counter() - start

    write_report_csv(out / "report.csv", [report])
    with open(out / "config.resolved.json", "w", encoding="utf-8") as fh:
        fh.write(dumps_obj(config))
        fh.write("\n")
    write_timings_csv(out / "timings.csv", timings)
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
    prune_configs = [replace(base, strategy=s) for s in strategies]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = _scored_corpus(config, base.epsilon)
    reports = {c.strategy.value: evaluate_strategy(corpus, c, flop_model)[0]
               for c in prune_configs}
    write_report_csv(out / "compare.csv", list(reports.values()))
    return reports


def sweep_beta(config: dict | None, betas: Sequence[float], out_dir
               ) -> list[dict]:
    """Evaluate the hierarchical strategy across global prune ratios.

    Validates that kept counts never increase and the speedup never
    decreases as the ratio grows, then writes ``sweep.csv``.
    """
    if not betas:
        raise ConfigError("sweep needs at least one ratio")
    betas = [float(b) for b in betas]
    if any(not 0.0 <= b < 1.0 for b in betas):
        raise ConfigError("sweep ratios must lie in [0, 1)")
    config = resolve_config(config)
    base, flop_model = _parse(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = _scored_corpus(config, base.epsilon)
    rows = []
    for beta in sorted(betas):
        report, _ = evaluate_strategy(
            corpus, replace(base, strategy=Strategy.HIERARCHICAL, beta=beta),
            flop_model)
        rows.append({"beta": beta, "kept_total": report.kept_total,
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
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([repr(value) for value in row.values()]
                         for row in rows)
    return rows


def write_checkpoints(directory, intra: MlpParams, inter: MlpParams,
                      intra_losses, inter_losses) -> None:
    """Both predictors' checkpoints and loss traces under ``directory``."""
    directory = Path(directory)
    save_params(directory / "intra.mlp.json", intra)
    save_params(directory / "inter.mlp.json", inter)
    save_trace(directory / "intra_trace.csv", intra_losses)
    save_trace(directory / "inter_trace.csv", inter_losses)


def write_prune_records(directory, episode_ids: Sequence[str],
                        results: Sequence[Sequence[PruneBatch]]) -> None:
    """One ``{episode_id}.prune.jsonl`` per episode, one record per frame."""
    for episode_id, batches in zip(episode_ids, results):
        frames = (result for batch in batches for result in batch.results())
        write_jsonl(Path(directory) / f"{episode_id}.prune.jsonl",
                    ({"fmt": FORMAT_VERSION, "kind": "prune",
                      "episode_id": episode_id, "frame_index": t,
                      "result": result.to_obj()}
                     for t, result in enumerate(frames)))


def write_report_csv(path, reports: Sequence[MetricsReport]) -> None:
    """Long-form deterministic CSV: one row per strategy and metric."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "metric", "value"])
        for report in reports:
            for metric, value in report.rows():
                writer.writerow([report.strategy, metric, value])


def write_timings_csv(path, timings: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "seconds"])
        for stage, seconds in timings.items():
            writer.writerow([stage, f"{seconds:.6f}"])


# ---------------------------------------------------------------------------
# artifact validation


def validate_artifacts(out_dir) -> list[str]:
    """Re-parse every artifact under an experiment directory.

    Returns human-readable problem descriptions; an empty list means every
    artifact parsed, round-tripped, and satisfied its invariants.
    """
    out = Path(out_dir)
    problems = []
    if not out.is_dir():
        return [f"{out}: not a directory"]

    def check(path, loader):
        try:
            return loader(path)
        except (ParseError, ContractError, ConfigError, AnnotationError,
                OSError) as exc:
            problems.append(f"{path.name}: {exc}")

    corpus = out / "corpus"
    manifest = corpus / "manifest.json"
    entries = manifest.exists() and check(manifest, _read_manifest) or ()
    # the tokens sidecar of each observation file the manifest names
    sidecars = {entry["observations"]: corpus / entry["tokens"]
                for entry in entries}
    # each corpus file that parsed, by its kind and name, for the checks
    # across an episode's files; observations without their tokens
    parsed = {}
    if corpus.is_dir():
        for path in sorted(corpus.glob("*.jsonl")):
            name = path.name
            if name.endswith(".obs.jsonl"):
                parsed["observations", name] = check(
                    path, lambda path: _validate_observations(
                        path, sidecars.get(path.name)))
            elif name.endswith(".ann.jsonl") or name.endswith(".derived.jsonl"):
                parsed["annotation", name] = check(path, load_annotation)
            elif name.endswith(".geom.jsonl"):
                parsed["geometry", name] = check(path, load_geometry)
            elif name.endswith(".prune.jsonl"):
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
    return problems


def _validate_observations(path, sidecar=None) -> list:
    """Load the records with their sidecar, which checks that the two agree,
    then require each record to be exactly the header of what it loaded;
    the ``_observation_grids`` of the records."""
    observations = load_observations(path, sidecar)
    for obj, obs in zip(read_jsonl(path), observations):
        if dumps_obj(observation_header(obs)) != dumps_obj(obj):
            raise ParseError(
                f"observation frame {obs.frame_index} does not round-trip",
                field="views")
    return _observation_grids(observations)


def _validate_prune_records(path) -> None:
    for obj in read_jsonl(path):
        if obj.get("kind") != "prune" or obj.get("fmt") != FORMAT_VERSION:
            raise ParseError("not a prune record", field="kind")
        PruneResult.from_obj(obj.get("result"))
