"""Hierarchical multi-view token pruning for manipulation policies.

The package covers the full offline pipeline: synthetic episode generation
(`synth`), geometry-driven two-level annotation (`annotate`), importance
predictor training (`predictor`), the hierarchical pruning pipeline with
its baselines (`pruner`), and a benchmark harness with a CLI (`bench`,
`cli`). Shared types and serialization live in `core`.
"""

from .core import (
    AnnotationError,
    ConfigError,
    ContractError,
    EpisodeAnnotation,
    FrameAnnotation,
    ImportanceScores,
    MultiViewObservation,
    ParseError,
    Phase,
    PruneConfig,
    PruneResult,
    Strategy,
    TokenGrid,
    TrainingError,
)
from .predictor import (
    MlpParams,
    TrainConfig,
    init_mlp,
    train,
)
from .pruner import (
    FlopModel,
    adaptive_weight,
    flop_estimate,
    hierarchical_prune,
    normalize_scores,
    prune_observation,
    prune_scores,
    score_observation,
    speedup_estimate,
)
from .annotate import (
    Box,
    BoxKind,
    FrameGeometry,
    ViewGeometry,
    annotate_episode,
    boxes_to_patch_mask,
    debounce,
    detect_interaction,
)
from .synth import ArmScript, ScenarioSpec, generate_corpus
from .bench import MetricsReport, compare_strategies, run_experiment, sweep_beta

__all__ = [
    "AnnotationError", "ConfigError", "ContractError", "EpisodeAnnotation",
    "FrameAnnotation", "ImportanceScores", "MultiViewObservation",
    "ParseError", "Phase", "PruneConfig", "PruneResult", "Strategy",
    "TokenGrid", "TrainingError",
    "MlpParams", "TrainConfig", "init_mlp", "train",
    "FlopModel", "adaptive_weight", "flop_estimate", "hierarchical_prune",
    "normalize_scores", "prune_observation", "prune_scores",
    "score_observation", "speedup_estimate",
    "Box", "BoxKind", "FrameGeometry", "ViewGeometry", "annotate_episode",
    "boxes_to_patch_mask", "debounce", "detect_interaction",
    "ArmScript", "ScenarioSpec", "generate_corpus",
    "MetricsReport", "compare_strategies", "run_experiment", "sweep_beta",
]
