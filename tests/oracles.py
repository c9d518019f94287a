"""Straight-line reference implementations used to cross-check the package.

Everything here is deliberately written with plain Python loops, ``Fraction``
arithmetic, and ``sorted`` so it shares no code path with the library. Slow
is fine; independent is the point. The exceptions are ``oracle_train`` and
``oracle_episode_tokens``: training and token generation are checked bit for
bit, which only the same numpy operations in the same order can give, so
they are the SGD loop and the token construction as first written, in
numpy, with no call into the library.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def oracle_prune_count(ratio, n):
    """Exact floor(ratio * n) for a ratio written as a short decimal."""
    return int(Fraction(str(ratio)) * n)


@lru_cache(maxsize=None)
def _reciprocal_table(height, width, epsilon):
    n = height * width
    table = []
    for i in range(n):
        ri, ci = divmod(i, width)
        row = []
        for j in range(n):
            rj, cj = divmod(j, width)
            d = math.sqrt((ri - rj) ** 2 + (ci - cj) ** 2)
            row.append(1.0 / (d + epsilon))
        table.append(row)
    return table


def oracle_adaptive_weight(raw, height, width, epsilon):
    table = _reciprocal_table(height, width, epsilon)
    return [sum(r * w for r, w in zip(raw, row)) for row in table]


def oracle_normalize(scores):
    if not scores:
        return []
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def _oracle_prune(normalized, inter_weights, local_counts, global_count):
    """Both stages on normalized scores with the given drop counts: the
    global count is a function of the fused survivors.

    Returns ``(kept, fused, ranking, local_counts, global_count)`` with kept
    indices ascending per view and the ranking best-first.
    """
    views = len(normalized)
    kept_local, counts = [], []
    for v, scores in enumerate(normalized):
        count = local_counts(v, scores)
        order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
        kept_local.append(sorted(order[count:]))
        counts.append(count)
    pool = []
    for v in range(views):
        for i in kept_local[v]:
            pool.append((normalized[v][i] * inter_weights[v], v, i))
    drop = global_count([s for s, _, _ in pool])
    survivors = sorted(pool)[drop:]
    ranking = [(v, i) for _, v, i in reversed(survivors)]
    kept = [sorted(i for _, v2, i in survivors if v2 == v)
            for v in range(views)]
    score_of = {(v, i): s for s, v, i in pool}
    fused = [[score_of[(v, i)] for i in kept[v]] for v in range(views)]
    return kept, fused, ranking, counts, drop


def oracle_pipeline(raw_per_view, inter_weights, grid_shapes, alphas, beta,
                    epsilon):
    """Reference for the full hierarchical pipeline.

    Returns ``(kept, fused, ranking, local_counts, global_count)`` with kept
    indices ascending per view and the ranking best-first.
    """
    weighted = [oracle_adaptive_weight(list(raw), h, w, epsilon)
                for raw, (h, w) in zip(raw_per_view, grid_shapes)]
    return _oracle_prune(
        [oracle_normalize(w) for w in weighted], inter_weights,
        lambda v, scores: oracle_prune_count(alphas[v], len(scores)),
        lambda fused: oracle_prune_count(beta, len(fused)))


def oracle_adaptive_ratio_drop(weighted_per_view, inter_weights, threshold,
                               multiplier):
    """Reference for the adaptive-ratio baseline on spatially weighted
    scores, by the README's rule: in each view, drop the lowest
    ``floor(multiplier * b)`` normalized scores, ``b`` counting those below
    ``threshold``, and at most all of them; then drop the lowest
    ``floor(multiplier * b)`` fused survivors across views, ``b`` counting
    the fused scores below ``threshold``. Ties drop the lower index, and
    across views the lower ``(view, index)``, first.

    Returns what ``oracle_pipeline`` returns.
    """
    def count(scores):
        below = sum(1 for s in scores if s < threshold)
        return min(oracle_prune_count(multiplier, below), len(scores))

    return _oracle_prune(
        [oracle_normalize([float(s) for s in w]) for w in weighted_per_view],
        [float(w) for w in inter_weights], lambda v, scores: count(scores),
        count)


def oracle_auc(scores, labels):
    """Pairwise AUC: P(score_pos > score_neg) counting ties as half.

    Wins are counted exactly, in halves, and divided as a ``Fraction``; the
    result is that fraction rounded once to the nearest float.
    """
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    if not positives or not negatives:
        raise ValueError("AUC needs both classes")
    halves = 0
    for p in positives:
        for q in negatives:
            if p > q:
                halves += 2
            elif p == q:
                halves += 1
    return float(Fraction(halves, 2 * len(positives) * len(negatives)))


def oracle_patch_mask(boxes, image_width, image_height, patch_size):
    """Per-pixel rasterization: a patch is set when any of its pixels is
    covered by any box."""
    grid_h = -(-image_height // patch_size)
    grid_w = -(-image_width // patch_size)
    mask = [[0] * grid_w for _ in range(grid_h)]
    covered = set()
    for box in boxes:
        for y in range(box.y0, box.y1):
            for x in range(box.x0, box.x1):
                covered.add((x, y))
    for y in range(image_height):
        for x in range(image_width):
            if (x, y) in covered:
                mask[y // patch_size][x // patch_size] = 1
    return [bit for row in mask for bit in row]


def oracle_episode_tokens(seed, distractors, frames, direction, sigma):
    """Each frame's per-view ``(tokens, cls)`` of a synthetic episode, as
    the mask's outer product with the relevance direction plus noise.

    ``frames`` gives each frame's ``(masks, inter_labels)``. The generator
    seeded with ``seed`` first draws one jitter per distractor, then per
    frame and view the token noise and the summary-token noise.
    """
    rng = np.random.default_rng(seed)
    for _ in range(distractors):
        rng.integers(-4, 5)
    episode = []
    for masks, labels in frames:
        views = []
        for mask, label in zip(masks, labels):
            tokens = np.outer(np.asarray(mask, dtype=np.float64), direction)
            tokens += rng.normal(0.0, sigma, size=(len(mask), len(direction)))
            cls = direction * float(label)
            cls = cls + rng.normal(0.0, sigma, size=len(direction))
            views.append((tokens, cls))
        episode.append(views)
    return episode


def oracle_flops(layers, embed_dim, tokens, linear_coeff=12.0,
                 quadratic_coeff=2.0):
    return layers * (linear_coeff * tokens * embed_dim ** 2
                     + quadratic_coeff * tokens ** 2 * embed_dim)


class Diverged(Exception):
    """Where ``oracle_train`` stopped, with the message training raises."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


def oracle_sigmoid(z):
    """Two-branch logistic: each branch only takes ``exp`` of a nonpositive
    number."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_bce(probability, target, clamp=1e-7):
    """Binary cross-entropy of one prediction, with the probability clamped
    to ``[clamp, 1 - clamp]``."""
    p = min(max(float(probability), clamp), 1.0 - clamp)
    return -(target * math.log(p) + (1.0 - target) * math.log(1.0 - p))


def oracle_train(layers, x, y, learning_rate, steps, batch_size, reduction,
                 seed, clamp=1e-7):
    """Plain SGD on a tanh MLP with a sigmoid head and clamped cross-entropy.

    Every step draws its batch, runs the forward and the backward pass, then
    for each layer in order checks the gradient, updates the weights and
    checks them. Returns the new ``[(w, b), ...]`` and the loss trace;
    raises ``Diverged`` at the first non-finite loss, gradient or parameter.
    """
    rng = np.random.default_rng(seed)
    layers = [(np.array(w, dtype=np.float64), np.array(b, dtype=np.float64))
              for w, b in layers]
    losses = np.zeros(steps)
    for step in range(steps):
        if batch_size == 0:
            bx, by = x, y
        else:
            idx = rng.integers(0, x.shape[0], size=batch_size)
            bx, by = x[idx], y[idx]
        acts = [bx]
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w.T + b
            if i == len(layers) - 1:
                acts.append(np.clip(oracle_sigmoid(z), clamp, 1.0 - clamp))
            else:
                acts.append(np.tanh(z))
        p = acts[-1]
        values = -(by * np.log(p) + (1.0 - by) * np.log(1.0 - p))
        value = float(values.mean() if reduction == "mean" else values.sum())
        if not math.isfinite(value):
            raise Diverged(step, f"loss is not finite: {value}")
        losses[step] = value
        scale = 1.0 / values.size if reduction == "mean" else 1.0
        dz = (p - by) * scale
        grads = [None] * len(layers)
        for i in range(len(layers) - 1, -1, -1):
            grads[i] = (dz.T @ acts[i], dz.sum(axis=0))
            if i > 0:
                da = dz @ layers[i][0]
                dz = da * (1.0 - acts[i] ** 2)
        for (w, b), (dw, db) in zip(layers, grads):
            if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
                raise Diverged(step, "gradient is not finite")
            with np.errstate(over="ignore"):
                w -= learning_rate * dw
                b -= learning_rate * db
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise Diverged(step, "parameters are not finite")
    return layers, losses
