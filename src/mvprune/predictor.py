"""Importance predictors: small MLPs with hand-derived gradients and SGD.

Two predictors share one machinery. The token-level (intra-view) predictor
maps a single patch token to a relevance probability. The view-level
(inter-view) predictor maps the concatenated summary tokens of all views to
one probability per view. Both are tanh MLPs with a sigmoid output head
trained on binary cross-entropy.

Gradients are derived by hand and verified against central finite
differences in the test suite. The sigmoid output is clamped to
``[CLAMP, 1 - CLAMP]`` before entering the loss; gradients use the
unclamped expression, so the clamp only guards the loss value against
``log(0)``.

``train`` runs each step as ``_loss`` then ``_backward``. It holds
weights and gradients in two flat buffers, draws many steps' batch
indices per ``rng.integers`` call and reads its inputs without copying
them, yet gives the plain SGD loop's weights and loss trace to the bit
(``tests/oracles.py::oracle_train``, the gate on every build): chunked
draws are the per-step stream; for 0/1 targets one log of ``p`` or
``1 - p`` drops only an exact -0.0 term, the clamp keeping both logs
finite; and a width-1 output's ``dz @ W`` rounds one product per element
in BLAS (``np.dot``) as in matmul's own loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    ConfigError,
    ContractError,
    EpisodeAnnotation,
    MultiViewObservation,
    ParseError,
    TrainingError,
    _ValueEq,
    _as_float_array,
    _check_int,
    _expect_record,
    _read_only,
    _record_floats,
    loads_obj,
    parsing,
    read_text,
    write_jsonl,
)

CLAMP = 1e-7


@dataclass(frozen=True, eq=False)
class MlpParams(_ValueEq):
    """Weights of one MLP as ``((W, b), ...)`` layer pairs.

    ``W`` has shape ``(fan_out, fan_in)`` and ``b`` shape ``(fan_out,)``;
    consecutive layers chain. Hidden layers use tanh, the final layer a
    sigmoid. The record checks nothing; ``from_obj`` checks every field.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_width(self) -> int:
        return self.layers[-1][0].shape[0]

    def to_obj(self) -> dict:
        return {
            "fmt": FORMAT_VERSION,
            "kind": "mlp",
            "activation": "tanh",
            "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                       for w, b in self.layers],
        }

    @classmethod
    def from_obj(cls, obj) -> "MlpParams":
        _expect_record(obj, "mlp")
        with parsing("mlp", "layers"):
            if obj["activation"] != "tanh":
                raise ParseError(
                    f"unsupported activation {obj['activation']!r}",
                    field="activation")
            layers = []
            for i, layer in enumerate(obj["layers"]):
                w = _record_floats(layer["weight"], f"layer {i} weight",
                                   ndim=2)
                b = _record_floats(layer["bias"], f"layer {i} bias",
                                   shape=(w.shape[0],))
                if layers and w.shape[1] != layers[-1][0].shape[0]:
                    raise ContractError(
                        f"layer {i} expects {w.shape[1]} inputs, previous "
                        f"layer produces {layers[-1][0].shape[0]}")
                layers.append((w, b))
            if not layers:
                raise ContractError("an MLP needs at least one layer")
            return cls(layers=tuple(layers))


def init_mlp(sizes: Sequence[int], seed: int) -> MlpParams:
    """Initialize an MLP with layer widths ``sizes``.

    Weights and biases draw uniformly from ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``.
    """
    sizes = [_check_int(s, "layer size", minimum=1) for s in sizes]
    if len(sizes) < 2:
        raise ConfigError("an MLP needs at least input and output widths")
    rng = np.random.default_rng(_check_int(seed, "seed", minimum=0))
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((_read_only(w), _read_only(b)))
    return MlpParams(layers=tuple(layers))


# ---------------------------------------------------------------------------
# forward passes


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below; never overflows
    e = np.exp(np.copysign(z, -1.0))  # exp(-|z|), 1 + e once np.where read it
    return np.where(z >= 0, 1.0, e) / np.add(e, 1.0, out=e)


def _forward_cached(layers, x: np.ndarray) -> list[np.ndarray]:
    """Run the ``(W, b)`` layers and keep every activation for backprop.

    Returns ``[A0, A1, ..., P]`` where ``A0`` is the input batch and ``P``
    the clamped output probabilities.
    """
    acts = [x]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T
        z += b
        if i == last:
            p = np.maximum(_sigmoid(z), CLAMP, out=z)  # np.clip, in place
            acts.append(np.minimum(p, 1.0 - CLAMP, out=p))
        else:
            acts.append(np.tanh(z, out=z))
    return acts


def _check_width(params: MlpParams, x: np.ndarray) -> None:
    if x.shape[1] != params.input_width:
        raise ContractError(
            f"inputs have width {x.shape[1]}, network expects {params.input_width}")


def predict_intra(params: MlpParams, obs: MultiViewObservation
                  ) -> tuple[np.ndarray, ...]:
    """Raw token relevance scores per view, aligned with row-major token order."""
    if params.output_width != 1:
        raise ContractError("token predictor must have a single output")
    raw = []
    # TokenGrid already holds its tokens as a finite 2-d float64 array
    for view in obs.views:
        _check_width(params, view.tokens)
        raw.append(_forward_cached(params.layers, view.tokens)[-1][:, 0])
    return tuple(raw)


def inter_features(obs: MultiViewObservation) -> np.ndarray:
    """Concatenate the per-view summary tokens into one feature vector."""
    return np.concatenate([view.cls for view in obs.views])


def predict_inter(params: MlpParams, obs: MultiViewObservation) -> np.ndarray:
    """View relevance weights for one observation, one per view."""
    feats = inter_features(obs)
    if params.input_width != feats.shape[0]:
        raise ContractError(
            f"view predictor expects {params.input_width} inputs, "
            f"observation provides {feats.shape[0]}")
    if params.output_width != obs.view_count:
        raise ContractError(
            f"view predictor has {params.output_width} outputs, "
            f"observation has {obs.view_count} views")
    return _forward_cached(params.layers, feats[None, :])[-1][0]


# ---------------------------------------------------------------------------
# losses, gradients and training

# batch indices that one rng.integers call draws for train, at most, so a
# huge steps cannot size the draw
_DRAW_CHUNK = 1 << 16


def _batch(params: MlpParams, inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    x = _as_float_array(inputs, "inputs", ndim=2, copy=False)
    y = _as_float_array(targets, "targets", shape=(x.shape[0], params.output_width),
                        copy=False)
    _check_width(params, x)
    if y.size == 0:
        raise ContractError("batch must contain at least one example")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ContractError("targets must be 0 or 1")
    return x, y


def _flat(layers) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """A copy of ``(W, b)`` layers as one flat buffer, and views of it
    shaped like the layers, each starting on a 64-byte boundary: a BLAS
    kernel may round an operand 8 bytes off one differently from a fresh,
    aligned array. The zeros between the views have gradient 0 and stay 0."""
    arrays = [a for pair in layers for a in pair]
    starts = np.cumsum([0] + [-(-a.size // 8) * 8 for a in arrays])
    buffer = np.zeros(starts[-1] + 8)
    skip = -buffer.ctypes.data % 64 // 8
    flat = buffer[skip:skip + starts[-1]]
    views = [flat[s:s + a.size].reshape(a.shape)
             for s, a in zip(starts, arrays)]
    for view, a in zip(views, arrays):
        view[...] = a
    return flat, list(zip(views[::2], views[1::2]))


def _loss(layers, x: np.ndarray, y: np.ndarray, mean: bool
          ) -> tuple[float, list[np.ndarray]]:
    """The loss of ``(W, b)`` layers on a batch ``_batch`` checked, and
    every activation."""
    acts = _forward_cached(layers, x)
    p = acts[-1]
    logs = np.where(y, p, 1.0 - p)
    total = -np.add.reduce(np.log(logs, out=logs), axis=None)
    return float(total / p.size if mean else total), acts


def _backward(layers, grads, acts: list[np.ndarray], y: np.ndarray,
              mean: bool) -> None:
    """Write the gradient into the ``(dW, db)`` views ``grads``; overwrites
    the hidden activations."""
    dz = acts[-1] - y
    if mean:
        dz *= 1.0 / dz.size
    last = len(layers) - 1
    for i in range(last, -1, -1):
        np.matmul(dz.T, acts[i], out=grads[i][0])
        np.add.reduce(dz, axis=0, out=grads[i][1])
        if i > 0:
            w, a = layers[i][0], acts[i]
            # a column by a row: each element is one product, rounded once
            # by np.dot's BLAS call, matmul's own loop and a broadcast
            # multiply alike; np.dot is the fastest (timeit at (128, 1) by
            # (1, 64) on a 2-vCPU Xeon, OpenBLAS SkylakeX: 7.7 us against 17
            # and 13-15 us); as |dz| <= 1 here, it neither overflows nor warns
            da = np.dot(dz, w) if i == last and w.shape[0] == 1 else dz @ w
            np.square(a, out=a)
            dz = np.multiply(da, np.subtract(1.0, a, out=a), out=da)


@dataclass(frozen=True)
class TrainConfig:
    """Plain SGD settings.

    ``batch_size`` 0 means full-batch updates; any positive value samples
    that many examples per step with replacement. ``learning_rate`` 0 is
    allowed and leaves the parameters unchanged, which is occasionally
    useful to trace the loss without updating. ``reduction`` is ``"mean"``
    or ``"sum"``. The record checks nothing; ``bench._train_config`` does.
    """

    learning_rate: float = 0.1
    steps: int = 1000
    batch_size: int = 64
    reduction: str = "mean"
    seed: int = 0


def train(params: MlpParams, inputs, targets, config: TrainConfig
          ) -> tuple[MlpParams, np.ndarray]:
    """Train with plain SGD and return the new parameters plus the loss trace.

    The trace records each step's batch loss before that step's update.
    Raises on non-finite losses, gradients or parameters, naming the step.
    Inputs and targets are checked once and read in place, never copied.
    """
    x, y = _batch(params, inputs, targets)
    rng = np.random.default_rng(config.seed)
    chunk = _DRAW_CHUNK // max(config.batch_size, 1) or 1
    theta, layers = _flat(params.layers)
    grad, grads = _flat(params.layers)
    scaled = np.empty_like(theta)
    mean, lr = config.reduction == "mean", config.learning_rate
    losses = np.zeros(config.steps)
    for step in range(config.steps):
        bx, by = x, y
        if config.batch_size:
            if step % chunk == 0:
                draws = rng.integers(0, x.shape[0], size=(
                    min(chunk, config.steps - step), config.batch_size))
            bx = x.take(draws[step % chunk], axis=0)
            by = y.take(draws[step % chunk], axis=0)
        value, acts = _loss(layers, bx, by, mean)
        if not math.isfinite(value):
            raise TrainingError(f"loss is not finite: {value}", step=step)
        losses[step] = value
        _backward(layers, grads, acts, by, mean)
        # a non-finite gradient element leaves its parameter non-finite (for
        # lr 0 too: 0 * inf is nan), so one sum over the parameters finds
        # both; the rescan names which in the reference loop's order, or
        # nothing if finite terms overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(theta, np.multiply(grad, lr, out=scaled), out=theta)
            total = np.add.reduce(theta)
        if not math.isfinite(total):
            for (w, b), (dw, db) in zip(layers, grads):
                if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                    raise TrainingError("gradient is not finite", step=step)
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise TrainingError("parameters are not finite", step=step)
    # fresh copies, not views of the aligned buffer: a prediction's bytes
    # may depend on its operands' alignment, as _flat says
    return MlpParams(layers=tuple((_read_only(w.copy()), _read_only(b.copy()))
                                  for w, b in layers)), losses


# ---------------------------------------------------------------------------
# dataset assembly


def build_intra_dataset(observations: Sequence[MultiViewObservation],
                        annotations: dict[str, EpisodeAnnotation]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Stack every token of every view with its mask bit as the target.

    ``annotations`` maps episode id to its annotation, which must cover the
    observations' frames and views, as ``load_corpus`` checks. A generated
    corpus's tokens, in order, come back as a read-only view of its buffer.
    """
    xs, ys = [], []
    for obs in observations:
        frame = _annotation_for(annotations, obs).frames[obs.frame_index]
        for view, mask in zip(obs.views, frame.masks):
            xs.append(view.tokens)
            ys.append(np.asarray(mask, dtype=np.float64))
    if not xs:
        raise ContractError("no observations to build a dataset from")
    return _stacked(xs), np.concatenate(ys)[:, None]


def _stacked(tokens: list[np.ndarray]) -> np.ndarray:
    """C-contiguous ``tokens`` stacked by rows: a read-only view when they
    lie back to back in one buffer, else a copy."""
    first, at = tokens[0], tokens[0].ctypes.data
    for t in tokens:
        if (t.base is None or t.base is not first.base
                or t.shape[1] != first.shape[1] or t.ctypes.data != at):
            return np.concatenate(tokens, axis=0)
        at += t.nbytes
    return np.lib.stride_tricks.as_strided(
        first, (sum(t.shape[0] for t in tokens), first.shape[1]),
        (first.itemsize * first.shape[1], first.itemsize), writeable=False)


def build_inter_dataset(observations: Sequence[MultiViewObservation],
                        annotations: dict[str, EpisodeAnnotation]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """One example per frame: concatenated summary tokens against view labels."""
    xs, ys = [], []
    for obs in observations:
        frame = _annotation_for(annotations, obs).frames[obs.frame_index]
        xs.append(inter_features(obs))
        ys.append(np.asarray(frame.inter_labels, dtype=np.float64))
    if not xs:
        raise ContractError("no observations to build a dataset from")
    return np.stack(xs), np.stack(ys)


def _annotation_for(annotations: dict[str, EpisodeAnnotation],
                    obs: MultiViewObservation) -> EpisodeAnnotation:
    ann = annotations.get(obs.episode_id)
    if ann is None or ann.episode_id != obs.episode_id:
        raise ContractError(f"no annotation for episode {obs.episode_id!r}")
    return ann


# ---------------------------------------------------------------------------
# checkpoints and traces


def save_params(path, params: MlpParams) -> None:
    write_jsonl(path, [params.to_obj()])


def load_params(path) -> MlpParams:
    return MlpParams.from_obj(loads_obj(read_text(path)))


def save_trace(path, losses: np.ndarray) -> None:
    """Write the loss trace as a two-column CSV, making its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, value in enumerate(np.asarray(losses, dtype=np.float64)):
            fh.write(f"{step},{float(value)!r}\n")


def load_trace(path) -> np.ndarray:
    lines = read_text(path).split("\n")
    header = lines[0].strip()
    if header != "step,loss":
        raise ParseError(f"unexpected trace header {header!r}", field="header")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected step,loss",
                             field="loss")
        # save_trace writes str(step), so no other spelling of it is read
        if parts[0] != str(len(values)):
            raise ParseError(f"line {lineno}: expected step {len(values)}, "
                             f"got {parts[0]!r}", field="step")
        try:
            value = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}", field="loss") from exc
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: loss {parts[1]!r} is not "
                             f"finite", field="loss")
        # save_trace writes repr(loss), so no other spelling of it is read
        if repr(value) != parts[1]:
            raise ParseError(f"line {lineno}: loss {parts[1]!r} is not "
                             f"written as {value!r}", field="loss")
        values.append(value)
    return np.asarray(values, dtype=np.float64)
