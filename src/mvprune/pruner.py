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
first. That makes all outputs reproducible down to the byte. Frames that
share their view token counts are pruned together, each stage working row
by row under the same rule, so a batch gives each frame's own result.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterator, Sequence

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


def _normalize_rows(scores: np.ndarray) -> np.ndarray:
    """``normalize_scores`` of each row of a 2-D array."""
    # the initial values only matter to rows of no columns
    low = np.minimum.reduce(scores, axis=1, keepdims=True, initial=np.inf)
    span = np.maximum.reduce(scores, axis=1, keepdims=True,
                             initial=-np.inf) - low
    flat = span == 0.0
    span[flat] = 1.0
    out = (scores - low) / span
    out[flat[:, 0]] = 1.0
    return out


def normalize_scores(scores) -> np.ndarray:
    """Min-max normalize one view's scores into [0, 1].

    A constant score vector normalizes to all ones, so a uniformly scored
    view is not accidentally wiped out by the local stage.
    """
    return _normalize_rows(_as_float_array(scores, "scores", ndim=1)[None])[0]


def _flat(columns: np.ndarray, width: int) -> np.ndarray:
    """Column indices of rows ``width`` long as indices into their ravel."""
    if len(columns) == 1:
        return columns
    return columns + np.arange(len(columns))[:, None] * width


def _order_rows(scores: np.ndarray) -> np.ndarray:
    """Indices that sort each row of ``scores`` ascending, ties by index.

    Row by row the same as ``np.lexsort((np.arange(n), row))``, -0.0 tying
    with 0.0: a row-wise argsort, then only runs of equal scores put in
    index order.
    """
    rows, n = scores.shape
    order = np.argsort(scores, axis=1)
    ranked = scores.ravel()[_flat(order, n)]
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    if starts.all():
        return order
    return np.sort(np.cumsum(starts, axis=1) * n + order, axis=1) % n


def _local_rows(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Which tokens of each row survive dropping its ``counts`` lowest
    scores; ties drop the lower index first."""
    rows, n = scores.shape
    if (counts > n).any():
        raise ContractError(f"cannot drop {counts.max()} of {n} tokens")
    dropped = _flat(_order_rows(scores), n)[np.arange(n) < counts[:, None]]
    alive = np.ones(rows * n, dtype=bool)
    alive[dropped] = False
    return alive.reshape(rows, n)


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
    scores = [_as_float_array(s, "scores", ndim=1)[None]
              for s in normalized_per_view]
    counts = tuple(_prune_count(float(a), s.shape[1])
                   for s, a in zip(scores, alphas))
    return tuple(np.flatnonzero(_local_rows(s, np.array([c])))
                 for s, c in zip(scores, counts)), counts


def fuse_scores(normalized_per_view: Sequence[np.ndarray],
                inter_weights) -> tuple[np.ndarray, ...]:
    """Multiply each view's normalized token scores by its view weight."""
    inter = _as_float_array(inter_weights, "inter_weights",
                            shape=(len(normalized_per_view),))
    return tuple(_as_float_array(s, "scores", ndim=1) * w
                 for s, w in zip(normalized_per_view, inter))


@lru_cache(maxsize=16)
def _positions(view_token_counts: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The view of each token position of a frame, the index within it,
    and the two as ``(view, index)`` pairs; every caller shares them."""
    counts = np.array(view_token_counts, dtype=np.int64)
    view_of = np.repeat(np.arange(counts.size), counts)
    index_of = np.arange(view_of.size) - np.repeat(
        np.cumsum(counts) - counts, counts)
    view_of.flags.writeable = index_of.flags.writeable = False
    return view_of, index_of, tuple(zip(view_of.tolist(), index_of.tolist()))


@dataclass(frozen=True)
class PruneBatch:
    """Outcome of pruning F frames that share their view token counts.

    A frame's T tokens are numbered view after view. ``kept`` (F, T) marks
    the survivors, ``fused`` (F, T) holds their fused scores, and
    ``ranking`` lists each frame's kept positions best-first, frame after
    frame. Row ``f`` reads as the ``PruneResult`` of frame ``f`` alone.
    """

    view_token_counts: tuple[int, ...]
    local_pruned_counts: np.ndarray
    global_pruned_counts: np.ndarray
    kept: np.ndarray
    fused: np.ndarray
    ranking: np.ndarray

    def results(self) -> Iterator[PruneResult]:
        """Each frame's ``PruneResult``, in order."""
        view_of, index_of, pairs = _positions(self.view_token_counts)
        views = np.arange(1, len(self.view_token_counts))
        ends = np.cumsum(self.kept.sum(axis=1)).tolist()
        for f, kept in enumerate(self.kept):
            pos = np.flatnonzero(kept)
            ranked = self.ranking[ends[f] - pos.size:ends[f]].tolist()
            cuts = [0, *np.searchsorted(view_of[pos], views).tolist(),
                    pos.size]
            indices = index_of[pos].tolist()
            fused = self.fused[f, pos]
            fused.flags.writeable = False
            yield PruneResult(
                self.view_token_counts,
                tuple(tuple(indices[a:b]) for a, b in zip(cuts, cuts[1:])),
                tuple(fused[a:b] for a, b in zip(cuts, cuts[1:])),
                tuple(self.local_pruned_counts[f].tolist()),
                int(self.global_pruned_counts[f]),
                # looked up in C; two spare items make it return a tuple
                itemgetter(0, 0, *ranked)(pairs)[2:] if ranked else ())


def _global_rows(fused: np.ndarray, alive: np.ndarray, drop: np.ndarray,
                 view_token_counts: Sequence[int],
                 local_pruned_counts: np.ndarray) -> PruneBatch:
    """Of each row's ``alive`` positions, drop the ``drop`` lowest fused
    ones; ties go to the lower position, which is (view, index) order."""
    rows, total = alive.shape
    survivors = alive.sum(axis=1)
    width = int(survivors.max(initial=0))
    flat = np.flatnonzero(alive)
    if (survivors == width).all():
        where = flat.reshape(rows, width)
        scores = fused.ravel()[where]
    else:
        # shorter rows end in +inf, which sorts after every finite fused
        # score, so padding is never kept
        where = np.full((rows, width), rows * total)
        where[flat // total, np.arange(flat.size) - np.repeat(
            np.cumsum(survivors) - survivors, survivors)] = flat
        scores = np.append(fused.ravel(), np.inf)[where]
    rank = np.arange(width - 1, -1, -1)
    best = _flat(_order_rows(scores)[:, ::-1], width)
    chosen = where.ravel()[best[(rank >= drop[:, None])
                                & (rank < survivors[:, None])]]
    kept = np.zeros(rows * total, dtype=bool)
    kept[chosen] = True
    return PruneBatch(tuple(view_token_counts), local_pruned_counts, drop,
                      kept.reshape(rows, total), fused,
                      chosen % total if total else chosen)


def global_prune(fused_per_view: Sequence[np.ndarray],
                 kept_per_view: Sequence[np.ndarray],
                 beta: float,
                 view_token_counts: Sequence[int],
                 local_pruned_counts: Sequence[int]) -> PruneResult:
    """Drop the lowest-fused ``floor(beta * M)`` survivors across all
    views; each view's survivors may come in any order."""
    counts = [int(n) for n in view_token_counts]
    alive = np.zeros((1, sum(counts)), dtype=bool)
    fused = np.zeros(alive.shape)
    listed = 0
    if not len(counts) == len(kept_per_view) == len(fused_per_view):
        raise ContractError("need fused scores and survivors for every view")
    for start, n, idx, scores in zip(np.cumsum([0, *counts]).tolist(),
                                     counts, kept_per_view, fused_per_view):
        idx = np.asarray(idx, dtype=np.int64)
        if idx.shape != np.shape(scores) or ((idx < 0) | (idx >= n)).any():
            raise ContractError(
                "fused scores must align with survivor indices in range")
        alive[0, start + idx] = True
        fused[0, start + idx] = scores
        listed += idx.size
    if alive.sum() != listed:
        raise ContractError("a survivor is listed twice")
    drop = _prune_count(float(beta), listed)
    return next(_global_rows(fused, alive, np.array([drop]), counts,
                             np.array([local_pruned_counts])).results())


def _prune_counts(ratio: float, counts: np.ndarray, limits: np.ndarray
                  ) -> np.ndarray:
    """``_prune_count`` of each of ``counts``, at most ``limits``."""
    return np.array([min(_prune_count(ratio, n), cap) for n, cap in
                     zip(counts.tolist(), limits.tolist())], dtype=np.int64)


def _dispatch(weighted_per_view: Sequence[np.ndarray], inter: np.ndarray,
              view_token_counts: Sequence[int],
              config: PruneConfig) -> PruneBatch:
    """The one strategy dispatch, over the spatially weighted scores of F
    frames that share their view token counts: an (F, N) array per view,
    and the (F, V) view weights. Each run of views with equal token counts
    is normalized and locally pruned as one (F * views, N) array. The
    random baseline reads only the counts, and one draw serves every
    frame."""
    strategy = config.strategy
    counts = [_check_int(n, "view_token_counts", minimum=0)
              for n in view_token_counts]
    frames = inter.shape[0]
    threshold = config.adaptive_threshold
    multiplier = config.adaptive_multiplier
    adaptive = strategy is Strategy.ADAPTIVE_RATIO_DROP
    random = strategy is Strategy.RANDOM_DROP
    if random:
        rng = np.random.default_rng(config.seed)
    elif inter.shape != (frames, len(counts)) or [w.shape for w in (
            weighted_per_view)] != [(frames, n) for n in counts]:
        raise ContractError(
            f"scores of shapes {[w.shape for w in weighted_per_view]} and "
            f"view weights of shape {inter.shape} do not match {frames} "
            f"frames of view token counts {counts}")
    rows = 1 if random else frames
    alphas, beta = (((0.0,) * len(counts), 0.0)
                    if strategy is Strategy.NO_PRUNE
                    else (config.alphas, config.beta))
    if not adaptive and len(alphas) != len(counts):
        raise ContractError(f"need one local ratio per view: {len(alphas)} "
                            f"ratios, {len(counts)} views")
    normalized, alive, local = [], [], []
    first = 0
    for n, run in groupby(counts):
        views = range(first, first + len(list(run)))
        first = views.stop
        if random:
            scores = rng.random((len(views), n))
        else:
            scores = _normalize_rows(np.concatenate(
                [weighted_per_view[v] for v in views], axis=1).reshape(-1, n))
        if adaptive:
            dropped = _prune_counts(multiplier, (scores < threshold).sum(1),
                                    np.full(len(scores), n))
        else:
            dropped = np.array([_prune_count(alphas[v], n)
                                for v in views] * rows)
        normalized.append(scores.reshape(rows, -1))
        alive.append(_local_rows(scores, dropped).reshape(rows, -1))
        local.append(dropped.reshape(rows, -1))
    alive = np.concatenate(alive, axis=1)
    survivors = alive.sum(axis=1)
    if random:
        # fresh priorities of the survivors stand in for fused scores
        fused = np.zeros(alive.shape)
        fused[alive] = rng.random(int(survivors[0]))
    else:
        fused = (np.concatenate(normalized, axis=1)
                 * np.repeat(inter, counts, axis=1))
    if adaptive:
        drop = _prune_counts(multiplier, (alive & (fused < threshold)).sum(1),
                             survivors)
    else:
        drop = _prune_counts(beta, survivors, survivors)
    batch = _global_rows(fused, alive, drop, counts,
                         np.concatenate(local, axis=1))
    if rows == frames:
        return batch
    return PruneBatch(batch.view_token_counts, *(
        np.broadcast_to(a, (frames, *a.shape[1:])) for a in (
            batch.local_pruned_counts, batch.global_pruned_counts,
            batch.kept, batch.fused)), np.tile(batch.ranking, frames))


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
    raw = tuple(_as_float_array(r, "raw_scores", shape=(h * w,))
                for r, (h, w) in zip(raw_scores, shapes))
    inter = _as_float_array(inter_weights, "inter_weights",
                            shape=(len(shapes),))
    scores = ImportanceScores(raw, tuple(_weight_views(raw, shapes,
                                                       config.epsilon)),
                              inter)
    return prune_scores(scores, [h * w for h, w in shapes], config)


def random_drop(view_token_counts: Sequence[int],
                config: PruneConfig) -> PruneResult:
    """Score-free baseline: drop uniformly at random in both stages.

    Stage one drops ``floor(alpha * N)`` random tokens per view; stage two
    draws fresh priorities for the survivors and drops ``floor(beta * M)``
    of them, so the global stage is uniform across views. The stage-two
    priorities stand in for fused scores in the result. Fully determined
    by ``config.seed``.
    """
    config = replace(config, strategy=Strategy.RANDOM_DROP)
    return next(_dispatch((), np.empty((1, 0)), view_token_counts,
                          config).results())


def _score_frames(observations: Sequence[MultiViewObservation],
                  intra_params: MlpParams, inter_params: MlpParams,
                  epsilon: float) -> list[ImportanceScores]:
    """``score_observation`` of every observation, weighting all their
    views in one pass, so that each weight-matrix block is read once."""
    raws, inters = [], []
    for obs in observations:
        raw = predict_intra(intra_params, obs)
        inter = predict_inter(inter_params, obs)
        # a checkpoint comes from outside: its finite weights can still
        # overflow into a NaN output, which the classifier metrics would
        # take in
        for name, outputs in (("intra", raw), ("inter", (inter,))):
            if not all(np.isfinite(out).all() for out in outputs):
                raise ContractError(f"{name} predictor output is not finite")
        raws.append(raw)
        inters.append(inter)
    weighted = iter(_weight_views(
        [r for raw in raws for r in raw],
        [(v.height, v.width) for obs in observations for v in obs.views],
        epsilon))
    return [ImportanceScores(intra_raw=raw,
                             intra_weighted=tuple(islice(weighted, len(raw))),
                             inter=inter) for raw, inter in zip(raws, inters)]


def score_observation(obs: MultiViewObservation, intra_params: MlpParams,
                      inter_params: MlpParams, epsilon: float
                      ) -> ImportanceScores:
    """Both predictors' outputs for an observation, plus the raw token
    scores spatially weighted with ``epsilon``."""
    return _score_frames([obs], intra_params, inter_params, epsilon)[0]


def prune_scores(scores: ImportanceScores, view_token_counts: Sequence[int],
                 config: PruneConfig) -> PruneResult:
    """Prune one observation from its scores with ``config``'s strategy.

    ``scores`` must have been weighted with ``config.epsilon``; the random
    baseline reads only ``view_token_counts``.
    """
    batch = _dispatch([np.asarray(w)[None] for w in scores.intra_weighted],
                      np.asarray(scores.inter)[None], view_token_counts,
                      config)
    return next(batch.results())


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
