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
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
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

_weight_matrices: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_weight_lock = threading.Lock()
# grid shapes whose weights stay cached; past that the oldest goes. A grid
# holds 8*ceil(W/8) * (2H-1) * W floats (516 KB at 32x32, 4.2 MB at 64x64),
# where a dense weight matrix holds N^2 (8 MB and 134 MB)
_WEIGHT_CACHE_SIZE = 4


@lru_cache(maxsize=4096)
def _prune_count(ratio: float, n: int) -> int:
    """Number of tokens to drop out of ``n`` at ``ratio``: floor(ratio * n).

    The ratio counts as the decimal it is written as, so 0.29 of 100 is 29
    although the float 0.29 is a little less than 29/100.
    """
    exact = Fraction(repr(float(ratio)))
    return int(n) * exact.numerator // exact.denominator


def _weight_windows(height: int, width: int, epsilon: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A grid's reciprocal-distance weight matrix as windows of one compact
    array, and its last ``4 + N % 4`` rows (all if fewer, none if 4 divides
    N) as a block; cached per shape.

    Entry ``(i, j)`` is the kernel at the whole-number ``(row, col)`` offset
    of patches ``i`` and ``j``, so it holds the floats a pairwise
    ``1 / (|p_i - p_j| + epsilon)`` gives. Row ``(r, c)`` is row ``c`` of a
    ``(W, (2H-1) * W)`` array from column ``(H-1-r) * W`` on: an
    ``(H, 8 * ceil(W / 8), N)`` view whose rows past ``W`` are padding.
    """
    key = (height, width, epsilon)
    with _weight_lock:
        cached = _weight_matrices.get(key)
    if cached is not None:
        return cached
    n, padded = height * width, -(-width // 8) * 8
    # the padding rows reach col offsets past W - 1: finite kernel values
    rows, cols = np.ogrid[1 - height:height, 1 - width:padded]
    kernel = 1.0 / (np.sqrt(rows ** 2.0 + cols ** 2.0) + epsilon)
    c = np.arange(padded)
    # compact[c, k, c'] is the kernel at offset (H-1-k, c-c')
    compact = kernel[::-1][:, c[:, None] - c[:width] + (width - 1)]
    windows = np.lib.stride_tricks.sliding_window_view(
        compact.transpose(1, 0, 2).reshape(padded, -1), n, axis=1)
    windows = windows[:, ::width].transpose(1, 0, 2)[::-1]
    # 4 rows more than the tail: numpy takes a 1-row block for a dot product
    last = n - (n % 4 and min(n, 4 + n % 4))
    tail = windows[np.divmod(np.arange(last, n), width)]
    tail.flags.writeable = False
    with _weight_lock:
        cached = _weight_matrices.setdefault(key, (windows, tail))
        while len(_weight_matrices) > _WEIGHT_CACHE_SIZE:
            del _weight_matrices[next(iter(_weight_matrices))]
    return cached


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
    height = _check_int(height, "height", minimum=1)
    width = _check_int(width, "width", minimum=1)
    raw = _as_float_array(raw_scores, "raw_scores", shape=(height * width,))
    return _weight_views([raw], [(height, width)], epsilon)[0]


def _weight_views(raw_per_view: Sequence[np.ndarray],
                  grid_shapes: Sequence[tuple[int, int]], epsilon: float
                  ) -> list[np.ndarray]:
    """``adaptive_weight`` of every view's float64 scores on its
    ``(height, width)`` grid, with the bytes of a dense product on one BLAS
    thread. ``np.matmul`` runs one dgemv per grid row over its window. The
    kernel takes rows in groups of 4 but a call's last ``rows % 4`` apart,
    and two threads split a large call in halves: windows of a multiple of
    8 rows, and the tail block, keep each row in its dense product group.
    """
    epsilon = _check_epsilon(epsilon)
    weighted = []
    for raw, (height, width) in zip(raw_per_view, grid_shapes):
        windows, tail = _weight_windows(height, width, epsilon)
        out = np.matmul(windows, raw)[:, :width].reshape(-1)
        if len(tail):
            out[out.size - len(tail):] = tail @ raw
        weighted.append(out)
    return weighted


def _normalize_rows(scores: np.ndarray) -> np.ndarray:
    """``normalize_scores`` of each row of a 2-D array."""
    # the initial values only matter to rows of no columns
    low = np.minimum.reduce(scores, axis=1, keepdims=True, initial=np.inf)
    # of a row's -0.0 and +0.0 the reduction returns either by numpy's SIMD
    # dispatch; as +0.0 it leaves each zero score its own sign
    low += 0.0
    span = np.maximum.reduce(scores, axis=1, keepdims=True,
                             initial=-np.inf) - low
    flat = (span == 0.0)[:, 0]
    if not flat.any():
        return (scores - low) / span
    span[flat] = 1.0
    out = (scores - low) / span
    out[flat] = 1.0
    return out


def normalize_scores(scores) -> np.ndarray:
    """Min-max normalize one view's scores into [0, 1].

    A constant score vector normalizes to all ones, so a uniformly scored
    view is not accidentally wiped out by the local stage.
    """
    return _normalize_rows(_as_float_array(scores, "scores", ndim=1)[None])[0]


def _order_rows(scores: np.ndarray) -> np.ndarray:
    """Indices into ``scores.ravel()`` that sort each row of ``scores``
    ascending, ties by index.

    Row by row the same as ``np.lexsort((np.arange(n), row))`` plus the
    row's offset, -0.0 tying with 0.0: a row-wise argsort, then only runs
    of equal scores put in index order.
    """
    rows, n = scores.shape
    order = scores.argsort(axis=1)
    if rows > 1:
        order += np.arange(rows)[:, None] * n
    ranked = scores.ravel()[order]
    ties = ranked[:, 1:] == ranked[:, :-1]
    if not ties.any():
        return order
    starts = np.ones((rows, n), dtype=bool)
    np.logical_not(ties, out=starts[:, 1:])
    size = rows * n
    return np.sort(np.cumsum(starts, axis=1) * size + order, axis=1) % size


def _local_rows(scores: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Which tokens of each row survive dropping its ``counts`` lowest
    scores, at most all of them; ties drop the lower index first."""
    rows, n = scores.shape
    alive = np.empty(rows * n, dtype=bool)
    # each row's tokens by rank, the first ``counts`` of them dropped
    alive[_order_rows(scores)] = np.arange(n) >= counts[:, None]
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
    if any(c > s.shape[1] for c, s in zip(counts, scores)):
        raise ContractError(f"cannot drop {max(counts)} tokens of a view")
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
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each view of a frame starts, and its end; each position's index
    in its view as an int, and as a ``(view, index)`` pair, in object
    arrays. Shared, so results hold these objects rather than new ints."""
    starts = np.cumsum([0, *view_token_counts])
    view_of = np.repeat(np.arange(len(starts) - 1), view_token_counts)
    index_of = (np.arange(starts[-1]) - starts[view_of]).astype(object)
    pairs = np.fromiter(zip(view_of.tolist(), index_of.tolist()), object,
                        starts[-1])
    starts.flags.writeable = index_of.flags.writeable = False
    pairs.flags.writeable = False
    return starts, index_of, pairs


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
        starts, index_of, pairs = _positions(self.view_token_counts)
        frames, total = self.kept.shape
        kept = self.kept.ravel().nonzero()[0]
        fused = self.fused.ravel()[kept]
        fused.flags.writeable = False
        # each frame's views' bounds in the kept positions and its ranking
        cuts = np.searchsorted(kept, starts if frames == 1 else (
            np.arange(frames)[:, None] * total + starts).ravel()).tolist()
        indices = index_of[kept % total if frames > 1 else kept].tolist()
        ranking, step = pairs[self.ranking].tolist(), len(starts)
        for f, (local, drop) in enumerate(zip(
                self.local_pruned_counts.tolist(),
                self.global_pruned_counts.tolist())):
            bounds = cuts[f * step:(f + 1) * step]
            yield PruneResult(
                self.view_token_counts,
                tuple(tuple(indices[a:b]) for a, b in zip(bounds, bounds[1:])),
                tuple(fused[a:b] for a, b in zip(bounds, bounds[1:])),
                tuple(local), drop, tuple(ranking[bounds[0]:bounds[-1]]))


def _global_rows(fused: np.ndarray, alive: np.ndarray, survivors: np.ndarray,
                 drop: np.ndarray, view_token_counts: Sequence[int],
                 local_pruned_counts: np.ndarray) -> PruneBatch:
    """Of each row's ``survivors`` alive positions, drop the ``drop`` lowest
    fused ones; ties go to the lower position, which is (view, index) order."""
    rows, total = alive.shape
    listed = survivors.tolist()
    width = max(listed, default=0)
    flat = alive.ravel().nonzero()[0]
    rank = np.arange(width - 1, -1, -1)
    keep = rank >= drop[:, None]
    if min(listed, default=width) == width:
        where = flat.reshape(rows, width)
        scores = fused.ravel()[where]
    else:
        # shorter rows end in +inf, which sorts after every finite fused
        # score, so padding is never kept
        where = np.full((rows, width), rows * total)
        where[flat // total, np.arange(flat.size) - np.repeat(
            np.cumsum(survivors) - survivors, survivors)] = flat
        scores = np.append(fused.ravel(), np.inf)[where]
        keep &= rank < survivors[:, None]
    chosen = where.ravel()[_order_rows(scores)[:, ::-1][keep]]
    kept = np.zeros(rows * total, dtype=bool)
    kept[chosen] = True
    return PruneBatch(tuple(view_token_counts), local_pruned_counts, drop,
                      kept.reshape(rows, total), fused,
                      chosen % total if rows > 1 else chosen)


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
    return next(_global_rows(fused, alive, np.array([listed]),
                             np.array([drop]), counts,
                             np.array([local_pruned_counts])).results())


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` side by side, without a copy when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _prune_counts(ratio: float, counts: np.ndarray, limits: np.ndarray
                  ) -> np.ndarray:
    """``_prune_count`` of each of ``counts``, at most ``limits``."""
    return np.minimum(np.array([_prune_count(ratio, n) for n in
                                counts.tolist()], dtype=np.int64), limits)


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
    fused, alive, local = [], [], []
    first = 0
    for n, run in groupby(counts):
        views = slice(first, first + len(list(run)))
        first = views.stop
        if random:
            scores = rng.random((views.stop - views.start, n))
        else:
            scores = _normalize_rows(
                _joined(weighted_per_view[views]).reshape(-1, n))
        if adaptive:
            dropped = _prune_counts(multiplier, (scores < threshold).sum(1), n)
        else:
            dropped = np.array([_prune_count(a, n)
                                for a in alphas[views]] * rows)
        alive.append(_local_rows(scores, dropped).reshape(rows, -1))
        local.append(dropped.reshape(rows, -1))
        if not random:
            # the normalized scores times their view weights, in place
            scores *= inter[:, views].reshape(-1, 1)
            fused.append(scores.reshape(rows, -1))
    alive = _joined(alive)
    survivors = alive.sum(axis=1)
    if random:
        # fresh priorities of the survivors stand in for fused scores
        fused = np.zeros(alive.shape)
        fused[alive] = rng.random(int(survivors[0]))
    else:
        fused = _joined(fused)
    if adaptive:
        drop = _prune_counts(multiplier, (alive & (fused < threshold)).sum(1),
                             survivors)
    else:
        drop = _prune_counts(beta, survivors, survivors)
    batch = _global_rows(fused, alive, survivors, drop, counts,
                         _joined(local))
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
    and runs through ``prune_scores``.
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
    weighted = tuple(_weight_views(raw, shapes, config.epsilon))
    return prune_scores(ImportanceScores(raw, weighted, inter),
                        [h * w for h, w in shapes], config)


def _score_frames(observations: Sequence[MultiViewObservation],
                  intra_params: MlpParams, inter_params: MlpParams,
                  epsilon: float) -> list[ImportanceScores]:
    """``score_observation`` of every observation."""
    raws = [predict_intra(intra_params, obs) for obs in observations]
    inters = [predict_inter(inter_params, obs) for obs in observations]
    per_view = [r for raw in raws for r in raw]
    # a checkpoint comes from outside: its finite weights can still overflow
    # into a NaN output, which the classifier metrics would take in
    for name, outputs in (("intra", per_view), ("inter", inters)):
        if not all(np.isfinite(out).all() for out in outputs):
            raise ContractError(f"{name} predictor output is not finite")
    return [ImportanceScores(raw, tuple(_weight_views(raw, [
        (v.height, v.width) for v in obs.views], epsilon)), inter)
        for obs, raw, inter in zip(observations, raws, inters)]


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
    mixing products respectively. The record checks nothing;
    ``bench._flop_model`` checks every field.
    """

    layers: int = 18
    embed_dim: int = 2048
    linear_coeff: float = 12.0
    quadratic_coeff: float = 2.0


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
