"""Hierarchical token pruning: spatial weighting, local and global stages,
baseline strategies, and a transformer cost model.

The hierarchical pipeline runs per observation:

1. spatially smooth each view's raw token scores with reciprocal-distance
   weighting,
2. min-max normalize the weighted scores within each view,
3. locally drop the lowest-scored fraction of each view,
4. fuse each survivor's normalized score with its view's relevance weight,
5. globally drop the lowest-fused fraction across all views.

Every stage breaks score ties by token position: within a view the lower
index loses first, across views the lower ``(view, index)`` pair loses
first. That makes all outputs reproducible down to the byte.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    ContractError,
    ImportanceScores,
    MultiViewObservation,
    PruneConfig,
    PruneResult,
    Strategy,
    _as_float_array,
    _check_int,
)
from .predictor import MlpParams, predict_inter, predict_intra

_weight_matrices: dict[tuple[int, int, float], np.ndarray] = {}
_weight_lock = threading.Lock()
# grid shapes whose weight matrix stays cached; past that the oldest goes,
# since a matrix holds N^2 floats (8 MB at 32x32, 42 MB at 48x48)
_WEIGHT_CACHE_SIZE = 4
# rows of a weight matrix that score_observation multiplies with every view
# before moving on: about 1 MB, so the block is still in cache for the next
# view, and a multiple of 8 rows
_WEIGHT_BLOCK_BYTES = 1 << 20


@lru_cache(maxsize=256)
def _exact_ratio(ratio: float) -> Fraction:
    """The shortest decimal that reads back as ``ratio``, as a fraction."""
    return Fraction(repr(ratio))


def _prune_count(ratio: float, n: int) -> int:
    """Number of tokens to drop out of ``n`` at ``ratio``: floor(ratio * n).

    The ratio counts as the decimal it is written as, so 0.29 of 100 is 29
    although the float 0.29 is a little less than 29/100.
    """
    exact = _exact_ratio(float(ratio))
    return int(n) * exact.numerator // exact.denominator


def _weight_matrix(height: int, width: int, epsilon: float) -> np.ndarray:
    """Reciprocal-distance weight matrix of a grid, cached per shape.

    Entry ``(i, j)`` is picked from the kernel over every ``(row, col)``
    offset between two patches. Offsets are whole numbers, so the kernel
    holds the floats a pairwise ``1 / (|p_i - p_j| + epsilon)`` gives.
    """
    key = (height, width, epsilon)
    with _weight_lock:
        cached = _weight_matrices.get(key)
    if cached is not None:
        return cached
    rows = np.arange(1 - height, height, dtype=np.float64)
    cols = np.arange(1 - width, width, dtype=np.float64)
    kernel = 1.0 / (np.sqrt(rows[:, None] ** 2 + cols[None, :] ** 2)
                    + epsilon)
    r, c = np.arange(height), np.arange(width)
    dr = r[:, None] - r[None, :] + (height - 1)
    dc = c[:, None] - c[None, :] + (width - 1)
    n = height * width
    matrix = kernel[dr[:, None, :, None], dc[None, :, None, :]].reshape(n, n)
    matrix.flags.writeable = False
    with _weight_lock:
        matrix = _weight_matrices.setdefault(key, matrix)
        while len(_weight_matrices) > _WEIGHT_CACHE_SIZE:
            del _weight_matrices[next(iter(_weight_matrices))]
    return matrix


def _check_epsilon(epsilon) -> float:
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    return float(epsilon)


def adaptive_weight(raw_scores, height: int, width: int,
                    epsilon: float = 0.01) -> np.ndarray:
    """Spatially smooth raw token scores over their patch grid.

    Each output is the sum of every raw score divided by its Euclidean grid
    distance to the target patch plus ``epsilon``; the token's own score
    enters at distance zero, so it contributes ``raw / epsilon``.
    """
    epsilon = _check_epsilon(epsilon)
    height = _check_int(height, "height", minimum=1)
    width = _check_int(width, "width", minimum=1)
    raw = _as_float_array(raw_scores, "raw_scores", shape=(height * width,))
    return _weight_matrix(height, width, epsilon) @ raw


def _weight_views(raw_per_view: Sequence[np.ndarray],
                  grid_shapes: Sequence[tuple[int, int]], epsilon: float
                  ) -> list[np.ndarray]:
    """``adaptive_weight`` of every view's float64 scores on its
    ``(height, width)`` grid, reading each weight matrix once.

    Views that share a grid shape share a matrix, so each row block of it
    is multiplied with all of them while it is in cache. Each output is
    still one dgemv dot over a full matrix row, as in ``adaptive_weight``,
    which keeps the bytes equal; one gemm over the stacked views would not.
    """
    epsilon = _check_epsilon(epsilon)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for v, shape in enumerate(grid_shapes):
        by_shape.setdefault(shape, []).append(v)
    weighted = [np.empty(h * w) for h, w in grid_shapes]
    for (height, width), members in by_shape.items():
        matrix = _weight_matrix(height, width, epsilon)
        n = height * width
        rows = max(8, _WEIGHT_BLOCK_BYTES // (8 * n) // 8 * 8)
        for start in range(0, n, rows):
            block = matrix[start:start + rows]
            for v in members:
                np.matmul(block, raw_per_view[v],
                          out=weighted[v][start:start + rows])
    return weighted


def normalize_scores(scores) -> np.ndarray:
    """Min-max normalize one view's scores into [0, 1].

    A constant score vector normalizes to all ones, so a uniformly scored
    view is not accidentally wiped out by the local stage.
    """
    arr = _as_float_array(scores, "scores", ndim=1)
    if arr.size == 0:
        return arr
    low, high = arr.min(), arr.max()
    if high == low:
        return np.ones_like(arr)
    return (arr - low) / (high - low)


def _order_by_score(scores: np.ndarray) -> np.ndarray:
    """Indices that sort ``scores`` ascending, ties by index.

    The same as ``np.lexsort((np.arange(n), scores))``, -0.0 tying with
    0.0: a plain argsort, then only runs of equal scores put in index order.
    """
    n = scores.shape[0]
    order = np.argsort(scores)
    ranked = scores[order]
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    if starts.all():
        return order
    return np.sort(np.cumsum(starts) * n + order) % n


def _drop_lowest(scores: np.ndarray, count: int) -> np.ndarray:
    """Indices surviving after dropping ``count`` lowest scores, ascending.

    Ties drop the lower index first.
    """
    n = scores.shape[0]
    if count > n:
        raise ContractError(f"cannot drop {count} of {n} tokens")
    return np.sort(_order_by_score(scores)[count:])


def local_prune(normalized_per_view: Sequence[np.ndarray],
                alphas: Sequence[float]
                ) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """Drop the lowest-scored ``floor(alpha * N)`` tokens of each view.

    Returns the surviving indices per view (ascending) and the per-view
    dropped counts.
    """
    if len(alphas) != len(normalized_per_view):
        raise ContractError(
            f"need one local ratio per view: {len(alphas)} ratios, "
            f"{len(normalized_per_view)} views")
    kept, counts = [], []
    for scores, alpha in zip(normalized_per_view, alphas):
        arr = _as_float_array(scores, "scores", ndim=1)
        count = _prune_count(float(alpha), arr.shape[0])
        kept.append(_drop_lowest(arr, count))
        counts.append(count)
    return tuple(kept), tuple(counts)


def fuse_scores(normalized_per_view: Sequence[np.ndarray],
                inter_weights) -> tuple[np.ndarray, ...]:
    """Multiply each view's normalized token scores by its view weight."""
    inter = _as_float_array(inter_weights, "inter_weights",
                            shape=(len(normalized_per_view),))
    return tuple(_as_float_array(s, "scores", ndim=1) * w
                 for s, w in zip(normalized_per_view, inter))


def _global_by_count(fused_per_view: Sequence[np.ndarray],
                     kept_per_view: Sequence[np.ndarray],
                     drop_count: int,
                     view_token_counts: Sequence[int],
                     local_pruned_counts: Sequence[int]) -> PruneResult:
    """Drop the ``drop_count`` lowest fused survivors across views."""
    views = len(kept_per_view)
    score_all = np.concatenate([np.zeros(0), *fused_per_view])
    view_all = np.repeat(np.arange(views, dtype=np.int64),
                         [len(k) for k in kept_per_view])
    idx_all = np.concatenate([np.zeros(0, dtype=np.int64), *kept_per_view])
    if not score_all.shape == view_all.shape == idx_all.shape:
        raise ContractError("fused scores must align with survivor indices")
    total = score_all.shape[0]
    if drop_count > total:
        raise ContractError(f"cannot drop {drop_count} of {total} survivors")
    # ties go to the lower concatenation position, which is (view, index)
    # order once each view's survivors ascend; callers of global_prune may
    # pass them in any order, and sorting within each view keeps view_all
    if ((idx_all[1:] < idx_all[:-1]) & (view_all[1:] == view_all[:-1])).any():
        by_index = np.lexsort((idx_all, view_all))
        score_all, idx_all = score_all[by_index], idx_all[by_index]
    kept_order = _order_by_score(score_all)[drop_count:]
    rev = kept_order[::-1]
    by_pos = np.sort(kept_order)
    bounds = np.searchsorted(view_all[by_pos], np.arange(1, views))
    fused = score_all[by_pos]
    fused.flags.writeable = False
    return PruneResult(
        view_token_counts=tuple(int(n) for n in view_token_counts),
        kept=tuple(tuple(idx.tolist())
                   for idx in np.split(idx_all[by_pos], bounds)),
        fused_scores=tuple(np.split(fused, bounds)),
        local_pruned_counts=tuple(int(c) for c in local_pruned_counts),
        global_pruned_count=int(drop_count),
        ranking=tuple(zip(view_all[rev].tolist(), idx_all[rev].tolist())),
    )


def global_prune(fused_per_view: Sequence[np.ndarray],
                 kept_per_view: Sequence[np.ndarray],
                 beta: float,
                 view_token_counts: Sequence[int],
                 local_pruned_counts: Sequence[int]) -> PruneResult:
    """Drop the lowest-fused ``floor(beta * M)`` survivors across all views."""
    total = sum(len(k) for k in kept_per_view)
    return _global_by_count(fused_per_view, kept_per_view,
                            _prune_count(float(beta), total),
                            view_token_counts, local_pruned_counts)


def _dispatch(weighted_per_view: Sequence[np.ndarray], inter_weights,
              view_token_counts: Sequence[int],
              config: PruneConfig) -> PruneResult:
    """The one strategy dispatch, over spatially weighted scores."""
    strategy = config.strategy
    if strategy is Strategy.RANDOM_DROP:
        return random_drop(view_token_counts, config)
    sizes = [w.shape[0] for w in weighted_per_view]
    if sizes != [int(n) for n in view_token_counts]:
        raise ContractError(f"scores of {sizes} tokens do not match view "
                            f"token counts {list(view_token_counts)}")
    normalized = [normalize_scores(s) for s in weighted_per_view]
    threshold = config.adaptive_threshold
    multiplier = config.adaptive_multiplier
    if strategy is Strategy.ADAPTIVE_RATIO_DROP:
        kept_local, local_counts = [], []
        for scores in normalized:
            below = int((scores < threshold).sum())
            count = min(_prune_count(multiplier, below), scores.shape[0])
            kept_local.append(_drop_lowest(scores, count))
            local_counts.append(count)
    else:
        alphas = (config.alphas if strategy is Strategy.HIERARCHICAL
                  else (0.0,) * len(normalized))
        kept_local, local_counts = local_prune(normalized, alphas)
    fused = fuse_scores([n[k] for n, k in zip(normalized, kept_local)],
                        inter_weights)
    if strategy is Strategy.ADAPTIVE_RATIO_DROP:
        flat = np.concatenate([np.zeros(0), *fused])
        below = int((flat < threshold).sum())
        drop = min(_prune_count(multiplier, below), flat.shape[0])
    else:
        beta = config.beta if strategy is Strategy.HIERARCHICAL else 0.0
        drop = _prune_count(beta, sum(len(k) for k in kept_local))
    return _global_by_count(fused, kept_local, drop, view_token_counts,
                            local_counts)


def hierarchical_prune(raw_scores: Sequence[np.ndarray], inter_weights,
                       grid_shapes: Sequence[tuple[int, int]],
                       config: PruneConfig) -> PruneResult:
    """Run the score-driven pipeline on explicit raw scores and view weights.

    ``grid_shapes`` gives each view's ``(height, width)``; raw score arrays
    must match those grids. Honors the hierarchical, no-prune, and
    adaptive-ratio strategies; the random baseline does not look at scores
    and lives in ``random_drop``.
    """
    if len(raw_scores) != len(grid_shapes):
        raise ContractError("need one grid shape per score array")
    if config.strategy is Strategy.RANDOM_DROP:
        raise ContractError(
            f"strategy {config.strategy.value} does not consume scores")
    shapes = [(_check_int(h, "height", minimum=1),
               _check_int(w, "width", minimum=1)) for h, w in grid_shapes]
    raw = [_as_float_array(r, "raw_scores", shape=(h * w,))
           for r, (h, w) in zip(raw_scores, shapes)]
    return _dispatch(_weight_views(raw, shapes, config.epsilon),
                     inter_weights, [h * w for h, w in shapes], config)


def random_drop(view_token_counts: Sequence[int],
                config: PruneConfig) -> PruneResult:
    """Score-free baseline: drop uniformly at random in both stages.

    Stage one drops ``floor(alpha * N)`` random tokens per view; stage two
    draws fresh priorities for the survivors and drops ``floor(beta * M)``
    of them, so the global stage is uniform across views. The stage-two
    priorities stand in for fused scores in the result. Fully determined
    by ``config.seed``.
    """
    counts = [_check_int(n, "view_token_counts", minimum=0)
              for n in view_token_counts]
    rng = np.random.default_rng(config.seed)
    kept_local, local_counts = local_prune([rng.random(n) for n in counts],
                                           config.alphas)
    survivors = sum(len(k) for k in kept_local)
    fresh = rng.random(survivors)
    fused = np.split(fresh, np.cumsum([len(k) for k in kept_local])[:-1])
    drop = _prune_count(config.beta, survivors)
    return _global_by_count(fused, kept_local, drop, counts, local_counts)


def score_observation(obs: MultiViewObservation, intra_params: MlpParams,
                      inter_params: MlpParams, epsilon: float
                      ) -> ImportanceScores:
    """Both predictors' outputs for an observation, plus the raw token
    scores spatially weighted with ``epsilon``."""
    raw = predict_intra(intra_params, obs)
    inter = predict_inter(inter_params, obs)
    # a checkpoint comes from outside: its finite weights can still
    # overflow into a NaN output, which the classifier metrics would take in
    for name, outputs in (("intra", raw), ("inter", (inter,))):
        if not all(np.isfinite(out).all() for out in outputs):
            raise ContractError(f"{name} predictor output is not finite")
    weighted = _weight_views(raw, [(v.height, v.width) for v in obs.views],
                             epsilon)
    return ImportanceScores(intra_raw=raw, intra_weighted=tuple(weighted),
                            inter=inter)


def prune_scores(scores: ImportanceScores, view_token_counts: Sequence[int],
                 config: PruneConfig) -> PruneResult:
    """Prune one observation from its scores with ``config``'s strategy.

    ``scores`` must have been weighted with ``config.epsilon``; the random
    baseline reads only ``view_token_counts``.
    """
    return _dispatch(scores.intra_weighted, scores.inter, view_token_counts,
                     config)


def prune_observation(obs: MultiViewObservation, intra_params: MlpParams,
                      inter_params: MlpParams, config: PruneConfig
                      ) -> tuple[ImportanceScores, PruneResult]:
    """Score an observation with both predictors and prune it.

    Returns the predictor outputs alongside the prune result so callers can
    audit or evaluate the scores without a second forward pass.
    """
    scores = score_observation(obs, intra_params, inter_params,
                               config.epsilon)
    return scores, prune_scores(scores, [v.token_count for v in obs.views],
                                config)


# ---------------------------------------------------------------------------
# transformer cost model


@dataclass(frozen=True)
class FlopModel:
    """Prefill cost model of a decoder-style transformer.

    Per layer a sequence of ``n`` tokens costs
    ``linear_coeff * n * d^2 + quadratic_coeff * n^2 * d`` floating point
    operations, covering the parameter matmuls and the attention score and
    mixing products respectively.
    """

    layers: int = 18
    embed_dim: int = 2048
    linear_coeff: float = 12.0
    quadratic_coeff: float = 2.0

    def __post_init__(self):
        _check_int(self.layers, "layers", minimum=1)
        _check_int(self.embed_dim, "embed_dim", minimum=1)
        object.__setattr__(self, "linear_coeff", float(self.linear_coeff))
        object.__setattr__(self, "quadratic_coeff", float(self.quadratic_coeff))
        for name in ("linear_coeff", "quadratic_coeff"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        self.check_range(1, 1)

    def check_range(self, frames: int, tokens: int) -> None:
        """Refuse a run of ``frames`` frames of at most ``tokens`` tokens
        whose summed ``flop_estimate`` can leave the float range: the exact
        cost, times two for the rounding of the estimates and their sum."""
        d = self.embed_dim
        cost = self.layers * tokens * d * (Fraction(self.linear_coeff) * d
                                           + Fraction(self.quadratic_coeff)
                                           * tokens)
        if 2 * frames * cost > sys.float_info.max:
            raise ConfigError(f"the cost of {frames} frames of {tokens} "
                              "tokens leaves the float range")


def flop_estimate(model: FlopModel, token_count: int) -> float:
    """Estimated prefill cost of one forward pass over ``token_count`` tokens."""
    n = _check_int(token_count, "token_count", minimum=0)
    d = model.embed_dim
    return model.layers * (model.linear_coeff * n * d * d
                           + model.quadratic_coeff * n * n * d)


def speedup_estimate(model: FlopModel, tokens_before: int,
                     tokens_after: int) -> float:
    """Cost ratio of running on the full versus the pruned sequence."""
    before = _check_int(tokens_before, "tokens_before", minimum=1)
    after = _check_int(tokens_after, "tokens_after", minimum=1)
    return flop_estimate(model, before) / flop_estimate(model, after)
