"""Shared domain types, validation errors, and deterministic serialization.

Every serialized record is a single JSON object tagged with ``"fmt"``
(``FORMAT_VERSION``) and a ``"kind"`` string. Floats travel as JSON decimal
text produced by Python's ``repr``, which round-trips ``float`` values
bit-exactly, so writing and re-reading a record yields an identical value
and identical bytes. Observation files are the exception: their token values
go to a ``.npy`` sidecar next to the JSONL metadata, because decimal text
for every patch token is slow to write and read and several times larger.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# errors


class _FieldError(ValueError):
    """A refused value; carries the name of the offending record ``field``
    when known."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class ContractError(_FieldError):
    """A caller violated a documented precondition or a type invariant."""


class ConfigError(_FieldError):
    """A configuration value is out of its documented range."""


class ParseError(ValueError):
    """A serialized record is malformed.

    Carries the offending ``field`` name or the byte ``offset`` of the
    syntax error when known, and the ``message`` without either.
    """

    def __init__(self, message: str, *, field: str | None = None,
                 offset: int | None = None):
        detail = message
        if field is not None:
            detail += f" (field {field!r})"
        if offset is not None:
            detail += f" (byte offset {offset})"
        super().__init__(detail)
        self.message = message
        self.field = field
        self.offset = offset


class AnnotationError(ValueError):
    """Annotation input or output is invalid; names the frame when known."""

    def __init__(self, message: str, *, frame: int | None = None):
        if frame is not None:
            message = f"frame {frame}: {message}"
        super().__init__(message)
        self.frame = frame


class TrainingError(RuntimeError):
    """Training produced or was fed a non-finite value."""

    def __init__(self, message: str, *, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


# what malformed input raises: the CLI exits 2, validate lists a problem
INPUT_ERRORS = (ParseError, ContractError, ConfigError, AnnotationError,
                TrainingError, OSError)


@contextmanager
def parsing(what: str, field: str | None = None) -> Iterator[None]:
    """Report a malformed ``what`` record built inside the block as a
    ``ParseError``: the one place where decoders map exceptions.

    A ``ParseError`` passes through unchanged and a ``KeyError`` names its
    key as the missing field. ``TypeError``, ``ValueError`` (including
    ``ContractError``, ``ConfigError`` and ``AnnotationError``),
    ``AttributeError`` and ``OverflowError`` become ``invalid <what>``,
    naming the exception's own ``field`` if it has one, else ``field``.
    """
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"missing {what} field",
                         field=str(exc.args[0])) from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"invalid {what}: {exc}",
                         field=getattr(exc, "field", None) or field) from exc


# ---------------------------------------------------------------------------
# small shared helpers


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.flags.writeable = False
    return array


def _as_float_array(value, name: str, *, shape: tuple[int, ...] | None = None,
                    ndim: int | None = None, copy: bool = True) -> np.ndarray:
    """Copy ``value`` into a read-only float64 array, validating shape and
    finiteness. With ``copy`` false no C-contiguous float64 array is copied:
    the result is a read-only view of it."""
    arr = (np.array(value, dtype=np.float64) if copy else
           np.ascontiguousarray(value, dtype=np.float64).view())
    if ndim is not None and arr.ndim != ndim:
        raise ContractError(f"{name} must have {ndim} dimension(s), got {arr.ndim}")
    if shape is not None and arr.shape != shape:
        raise ContractError(f"{name} must have shape {shape}, got {arr.shape}")
    # a NaN or inf makes the sum non-finite; so may finite entries that
    # overflow it, and only then does the entrywise scan run
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(arr, axis=None)
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise ContractError(f"{name} must be finite")
    return _read_only(arr)


def _record_floats(value, name: str, **checks) -> np.ndarray:
    """``_as_float_array`` of a decoded JSON list of numbers, or of such
    lists, refusing a bool in it, which numpy would read as 0 or 1; that
    refusal names ``name`` as its field."""
    rows = value if isinstance(value, list) else [value]
    if bool in set(map(type, rows)).union(
            *(map(type, row) for row in rows if isinstance(row, list))):
        raise ContractError(f"{name} must hold numbers, got bool", field=name)
    return _as_float_array(value, name, **checks)


def _check_int(value, name: str, *, minimum: int | None = None) -> int:
    """``value`` as an int; a refusal names ``name`` as its field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(
            f"{name} must be an integer, got {type(value).__name__}",
            field=name)
    value = int(value)
    if minimum is not None and value < minimum:
        raise ContractError(f"{name} must be >= {minimum}, got {value}",
                            field=name)
    return value


def _equal(a, b) -> bool:
    """``a == b``, comparing arrays by value, inside tuples too."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _ValueEq:
    """Equality over every dataclass field by ``_equal``, for records that
    hold arrays. Like any class that defines ``__eq__``, unhashable."""

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _member(enum: type[Enum], value, field: str):
    """The member of ``enum`` whose value is ``value``; a refusal names
    ``field``."""
    try:
        return enum(value)
    except ValueError as exc:
        raise ContractError(str(exc), field=field) from exc


# ---------------------------------------------------------------------------
# enums


class Strategy(Enum):
    """Pruning strategy selector."""

    HIERARCHICAL = "hierarchical"
    RANDOM_DROP = "random_drop"
    ADAPTIVE_RATIO_DROP = "adaptive_ratio_drop"
    NO_PRUNE = "no_prune"


class Phase(Enum):
    """Manipulation phase of one arm within an episode."""

    APPROACHING = "approaching"
    STARTING_OPERATION = "starting_operation"
    MOVING_WITH_OBJECT = "moving_with_object"
    RETRACTING = "retracting"


# ---------------------------------------------------------------------------
# camera layout

# the paper's cameras: a head view, and one wrist view per arm, the wrist of
# arm ``a`` (0 left, 1 right) being ``WRIST_VIEWS[a]``
HEAD_VIEW = 0
WRIST_VIEWS = (1, 2)
VIEW_COUNT = 3


# ---------------------------------------------------------------------------
# token containers


@dataclass(frozen=True, eq=False)
class TokenGrid(_ValueEq):
    """Patch tokens of one camera view plus its summary (CLS) token.

    ``tokens`` has shape ``(height * width, embed_dim)`` in row-major patch
    order; ``cls`` has shape ``(embed_dim,)``; both are read-only float64.
    The record checks nothing; ``load_observations`` checks every field.
    """

    view_id: int
    height: int
    width: int
    embed_dim: int
    tokens: np.ndarray
    cls: np.ndarray

    @property
    def token_count(self) -> int:
        return self.height * self.width


@dataclass(frozen=True, eq=False)
class MultiViewObservation(_ValueEq):
    """One timestep of synchronized camera views.

    View ids are exactly ``0..V-1`` in order and all views share one
    embedding width. Grid shapes may differ between views. The record checks
    nothing; ``load_observations`` checks every field.
    """

    episode_id: str
    frame_index: int
    views: tuple[TokenGrid, ...]

    @property
    def view_count(self) -> int:
        return len(self.views)

    @property
    def embed_dim(self) -> int:
        return self.views[0].embed_dim

    @property
    def total_tokens(self) -> int:
        return sum(v.token_count for v in self.views)


@dataclass(frozen=True, eq=False)
class ImportanceScores(_ValueEq):
    """Predictor outputs for one observation.

    ``intra_raw`` and ``intra_weighted`` hold one array per view aligned with
    that view's row-major token order; ``inter`` holds one weight per view.
    The record checks nothing: ``score_observation`` builds it, refusing a
    non-finite predictor output, and the clamped sigmoid keeps raw and inter
    scores in ``(0, 1)``, so weighted scores are positive.
    """

    intra_raw: tuple[np.ndarray, ...]
    intra_weighted: tuple[np.ndarray, ...]
    inter: np.ndarray


# ---------------------------------------------------------------------------
# pruning configuration and result


@dataclass(frozen=True)
class PruneConfig:
    """Knobs of the pruning pipeline.

    ``alphas`` holds the per-view local prune ratio, ``beta`` the global one;
    both count ratios of tokens to drop, so they live in ``[0, 1)``.
    ``epsilon`` stabilizes the reciprocal-distance weighting and must be
    positive. ``adaptive_threshold`` and ``adaptive_multiplier`` parameterize
    the adaptive-ratio baseline; ``seed`` drives the random baseline. The
    record checks nothing; ``from_obj`` checks every field.
    """

    alphas: tuple[float, ...] = (0.3, 0.2, 0.2)
    beta: float = 0.5
    epsilon: float = 0.01
    strategy: Strategy = Strategy.HIERARCHICAL
    adaptive_threshold: float = 0.5
    adaptive_multiplier: float = 0.8
    seed: int = 0

    @classmethod
    def from_obj(cls, obj) -> "PruneConfig":
        _expect_record(obj, "prune_config")
        with parsing("prune config", "prune_config"):
            # the required fields are read first, in the order of the record
            alphas = _listed(obj, "alphas")
            beta, epsilon = obj["beta"], obj["epsilon"]
            strategy = _member(Strategy, obj["strategy"], "strategy")
            alphas = tuple(_config_float(a, "alphas") for a in alphas)
            if not alphas:
                raise ConfigError("alphas must name at least one view",
                                  field="alphas")
            for a in alphas:
                if not 0.0 <= a < 1.0:
                    raise ConfigError(
                        f"local prune ratio must lie in [0, 1), got {a}",
                        field="alphas")
            beta, epsilon, threshold, multiplier = (
                _config_float(value, name) for name, value in (
                    ("beta", beta), ("epsilon", epsilon),
                    ("adaptive_threshold", obj.get("adaptive_threshold", 0.5)),
                    ("adaptive_multiplier",
                     obj.get("adaptive_multiplier", 0.8))))
            if not 0.0 <= beta < 1.0:
                raise ConfigError(
                    f"global prune ratio must lie in [0, 1), got {beta}",
                    field="beta")
            if not math.isfinite(epsilon) or epsilon <= 0.0:
                raise ConfigError(f"epsilon must be positive, got {epsilon}",
                                  field="epsilon")
            if not math.isfinite(threshold):
                raise ConfigError("adaptive_threshold must be finite",
                                  field="adaptive_threshold")
            if not math.isfinite(multiplier) or multiplier < 0.0:
                raise ConfigError("adaptive_multiplier must be nonnegative",
                                  field="adaptive_multiplier")
            return cls(alphas, beta, epsilon, strategy, threshold, multiplier,
                       _check_int(obj.get("seed", 0), "seed", minimum=0))


def _config_float(value, name: str, sign: str | None = None) -> float:
    """``value`` as a float; a refusal names ``name`` as its field. With
    ``sign`` ``"positive"`` or ``"nonnegative"``, only a finite float of
    that sign passes."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got "
                          f"{type(value).__name__}", field=name)
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float",
                          field=name) from None
    if sign and not (math.isfinite(value) and (
            value > 0.0 if sign == "positive" else value >= 0.0)):
        raise ConfigError(f"{name} must be {sign}, got {value}", field=name)
    return value


def _index_array(values, name: str) -> np.ndarray:
    """Token indices of a decoded list as a 1-d int64 array.

    Only a list or tuple of integers passes: floats, bools, strings and
    other objects are rejected rather than truncated, and so is an integer
    past int64.
    """
    # np.asarray would turn [1, True] into int64
    if not isinstance(values, (list, tuple)) or bool in set(map(type, values)):
        raise ContractError(f"{name} must be a flat list of integers",
                            field=name)
    arr = np.asarray(values)
    # np.asarray(()) is float64 and empty, so size comes before dtype
    if arr.ndim != 1 or arr.size and not (
            arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        raise ContractError(f"{name} must be a flat list of integers",
                            field=name)
    return arr.astype(np.int64)


def _ranking_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Views and indices of a decoded ranking's ``(view, index)`` pairs."""
    pairs = tuple(pairs)
    if set(map(len, pairs)) - {2}:
        raise ContractError("ranking entries must be (view, index) pairs")
    views, indices = tuple(zip(*pairs)) if pairs else ((), ())
    return _index_array(views, "ranking"), _index_array(indices, "ranking")


@dataclass(frozen=True, eq=False)
class PruneResult(_ValueEq):
    """Outcome of pruning one observation.

    ``kept`` lists surviving token indices per view, strictly increasing;
    ``fused_scores`` aligns with ``kept`` entry by entry. ``ranking`` orders
    every kept token best-first as ``(view, index)`` pairs and is the reverse
    of the pruning order, so it is fully deterministic under ties.
    ``view_token_counts`` records the pre-prune token count per view.
    Indices are tuples of ints, never arrays. The record checks nothing:
    the pruning stages build it, and ``from_obj``, where a record from
    outside the package enters, checks every invariant above.
    """

    view_token_counts: tuple[int, ...]
    kept: tuple[tuple[int, ...], ...]
    fused_scores: tuple[np.ndarray, ...]
    local_pruned_counts: tuple[int, ...]
    global_pruned_count: int
    ranking: tuple[tuple[int, int], ...]

    @property
    def kept_total(self) -> int:
        return sum(len(idx) for idx in self.kept)

    @property
    def kept_per_view(self) -> tuple[int, ...]:
        return tuple(len(idx) for idx in self.kept)

    @property
    def post_local_counts(self) -> tuple[int, ...]:
        return tuple(n - p for n, p in
                     zip(self.view_token_counts, self.local_pruned_counts))

    def to_obj(self) -> dict:
        return {
            "fmt": FORMAT_VERSION,
            "kind": "prune_result",
            "view_token_counts": list(self.view_token_counts),
            "kept": [list(idx) for idx in self.kept],
            "fused_scores": [a.tolist() for a in self.fused_scores],
            "local_pruned_counts": list(self.local_pruned_counts),
            "global_pruned_count": self.global_pruned_count,
            "ranking": [list(pair) for pair in self.ranking],
        }

    @classmethod
    def from_obj(cls, obj) -> "PruneResult":
        _expect_record(obj, "prune_result")
        with parsing("prune result", "kept"):
            counts = tuple(_check_int(c, "view_token_counts", minimum=0)
                           for c in obj["view_token_counts"])
            kept = [_index_array(idx, "kept") for idx in obj["kept"]]
            fused = tuple(_record_floats(a, "fused_scores", ndim=1)
                          for a in obj["fused_scores"])
            local = tuple(_check_int(c, "local_pruned_counts", minimum=0)
                          for c in obj["local_pruned_counts"])
            global_count = _check_int(obj["global_pruned_count"],
                                      "global_pruned_count", minimum=0)
            if not len(counts) == len(kept) == len(fused) == len(local):
                raise ContractError(
                    "per-view fields must have one entry per view")
            for v, (idx, scores, n, pruned) in enumerate(
                    zip(kept, fused, counts, local)):
                if idx.shape[0] != scores.shape[0]:
                    raise ContractError(
                        f"view {v}: kept and fused_scores must align")
                if not (idx[1:] > idx[:-1]).all():
                    raise ContractError(
                        f"view {v}: kept indices must be strictly increasing")
                if idx.size and (idx[0] < 0 or idx[-1] >= n):
                    raise ContractError(f"view {v}: kept index out of range")
                if pruned > n:
                    raise ContractError(
                        f"view {v}: pruned more tokens than exist")
            survivors = sum(c - p for c, p in zip(counts, local))
            if sum(idx.size for idx in kept) != survivors - global_count:
                raise ContractError("kept count must equal post-local "
                                    "survivors minus global prunes")
            rank_view, rank_idx = _ranking_arrays(obj["ranking"])
            views_exist = not rank_view.size or (
                rank_view.min() >= 0 and rank_view.max() < len(kept))
            # kept indices ascend strictly, so the sorted indices ranked for
            # a view equal them only if the ranking lists each kept token once
            if not views_exist or not all(
                    np.array_equal(np.sort(rank_idx[rank_view == v]), idx)
                    for v, idx in enumerate(kept)):
                raise ContractError(
                    "ranking must enumerate exactly the kept tokens")
            # best first, as _global_rows ranks: fused scores fall, and equal
            # ones by falling position, the view's start plus the index
            position = np.cumsum([0, *counts])[rank_view] + rank_idx
            score = np.empty(position.shape)
            score[np.argsort(position)] = np.concatenate([score[:0], *fused])
            if not ((score[:-1] > score[1:]) | (score[:-1] == score[1:]) & (
                    position[:-1] > position[1:])).all():
                raise ContractError(
                    "ranking must follow falling fused scores, ties by "
                    "falling (view, index)", field="ranking")
            return cls(counts, tuple(tuple(idx.tolist()) for idx in kept),
                       fused, local, global_count,
                       tuple(zip(rank_view.tolist(), rank_idx.tolist())))


# ---------------------------------------------------------------------------
# episode annotation


@dataclass(frozen=True, eq=False)
class FrameAnnotation(_ValueEq):
    """Per-frame labels: one read-only uint8 0/1 patch mask per view, one
    0/1 relevance label per view, one phase per arm. The record checks
    nothing; ``EpisodeAnnotation.from_frame_objs`` checks every field."""

    masks: tuple[np.ndarray, ...]
    inter_labels: tuple[int, ...]
    arm_phases: tuple[Phase, ...]


# what an annotation record's "roles" holds: the fixed camera layout
_ROLES_OBJ = {"head": HEAD_VIEW, "left_wrist": WRIST_VIEWS[0],
              "right_wrist": WRIST_VIEWS[1]}


@dataclass(frozen=True, eq=False)
class EpisodeAnnotation(_ValueEq):
    """Token-level and view-level labels for one episode.

    ``grids`` fixes the per-view patch grid shape for the whole episode and
    covers at least the ``VIEW_COUNT`` cameras; every frame's masks match
    it, and the head view's relevance label is 1 in every frame. The record
    checks nothing; ``from_frame_objs`` checks every field.
    """

    episode_id: str
    grids: tuple[tuple[int, int], ...]
    frames: tuple[FrameAnnotation, ...]

    @property
    def length(self) -> int:
        return len(self.frames)

    def frame_objs(self) -> Iterator[dict]:
        """Yield one flat record per frame for line-oriented storage."""
        for t, f in enumerate(self.frames):
            yield {
                "fmt": FORMAT_VERSION,
                "kind": "annotation",
                "episode_id": self.episode_id,
                "frame_index": t,
                "roles": dict(_ROLES_OBJ),
                "grids": [list(g) for g in self.grids],
                "masks": [m.tolist() for m in f.masks],
                "inter_labels": list(f.inter_labels),
                "arm_phases": [p.value for p in f.arm_phases],
            }

    @classmethod
    def from_frame_objs(cls, objs: Iterable[dict]) -> "EpisodeAnnotation":
        """Reassemble an episode from per-frame records, validating consistency."""
        objs = list(_episode_records(objs, "annotation"))
        if not objs:
            raise ParseError("no annotation records", field="frames")
        with parsing("annotation", "frames"):
            grids = _grid_pairs(objs[0]["grids"])
            if len(grids) < VIEW_COUNT:
                raise ContractError(
                    f"grids must cover the {VIEW_COUNT} cameras", field="grids")
            return cls(episode_id=objs[0]["episode_id"], grids=grids,
                       frames=tuple(_frame_from_obj(obj, grids, t)
                                    for t, obj in enumerate(objs)))


def _grid_pairs(grids) -> tuple[tuple[int, int], ...]:
    """``grids`` as ``(height, width)`` pairs of positive ints."""
    try:
        return tuple((_check_int(h, "grids", minimum=1),
                      _check_int(w, "grids", minimum=1)) for h, w in grids)
    except ContractError:
        raise
    # an entry that is no (height, width) pair fails to unpack
    except (TypeError, ValueError) as exc:
        raise ContractError("grids must hold (height, width) pairs",
                            field="grids") from exc


def _frame_from_obj(obj, grids: tuple[tuple[int, int], ...],
                    t: int) -> FrameAnnotation:
    """Frame ``t`` of an annotation record whose episode has view ``grids``."""
    if _grid_pairs(obj["grids"]) != grids:
        raise ParseError(f"annotation {t} grids differ from those of frame 0",
                         field="grids")
    roles = obj["roles"]
    # JSON's true and 1.0 equal 1, so the types are compared too
    if roles != _ROLES_OBJ or not all(type(v) is int for v in roles.values()):
        raise ParseError(f"roles must be {dumps_obj(_ROLES_OBJ)}",
                         field="roles")
    # the counts first, so a record with very many masks is refused before
    # each one is converted
    masks = _listed(obj, "masks")
    labels = tuple(_check_int(x, "inter_labels")
                   for x in _listed(obj, "inter_labels"))
    if len(labels) != len(masks):
        raise ContractError("inter_labels must have one entry per view",
                            field="inter_labels")
    if any(x not in (0, 1) for x in labels):
        raise ContractError("inter_labels must be 0 or 1",
                            field="inter_labels")
    if len(masks) != len(grids):
        raise AnnotationError("mask count does not match view count", frame=t)
    arrays = []
    for v, (m, (h, w)) in enumerate(zip(masks, grids)):
        # JSON's true and 1.0 equal 1, so only integers pass
        arr = _index_array(m, "masks")
        if not ((arr == 0) | (arr == 1)).all():
            raise ContractError("mask entries must be 0 or 1", field="masks")
        if arr.shape != (h * w,):
            raise AnnotationError(f"view {v} mask has {arr.shape[0]} entries, "
                                  f"grid is {h}x{w}", frame=t)
        arrays.append(_read_only(arr.astype(np.uint8)))
    if labels[HEAD_VIEW] != 1:
        raise AnnotationError("head view label must be 1", frame=t)
    phases = _listed(obj, "arm_phases")
    if len(phases) != 2:
        raise ContractError("arm_phases needs one phase per arm, two in all",
                            field="arm_phases")
    return FrameAnnotation(
        masks=tuple(arrays), inter_labels=labels,
        arm_phases=tuple(_member(Phase, p, "arm_phases") for p in phases))


# ---------------------------------------------------------------------------
# records


def _expect_record(obj, kind: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} record must be a JSON object")
    if obj.get("fmt") != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {obj.get('fmt')!r}",
                         field="fmt")
    if obj.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {obj.get('kind')!r}",
                         field="kind")


def _episode_records(objs: Iterable, kind: str) -> Iterator[dict]:
    """Yield ``kind`` records, refused unless they all name the first one's
    episode and number its frames ``0, 1, ...`` in order."""
    for t, obj in enumerate(objs):
        _expect_record(obj, kind)
        with parsing(kind, "frames"):
            if t == 0:
                episode_id = obj["episode_id"]
                if not isinstance(episode_id, str) or not episode_id:
                    raise ParseError("episode_id must be a non-empty string",
                                     field="episode_id")
            elif obj["episode_id"] != episode_id:
                raise ParseError(f"mixed episodes: {obj['episode_id']!r} vs "
                                 f"{episode_id!r}", field="episode_id")
            if _check_int(obj["frame_index"], "frame_index") != t:
                raise ParseError(f"{kind} {t} of episode {episode_id!r} is "
                                 f"numbered frame {obj['frame_index']!r}",
                                 field="frame_index")
        yield obj


def _listed(obj: dict, name: str, default=None) -> tuple:
    """Record field ``name``, a JSON list, as a tuple; any other value names
    it."""
    value = obj[name] if default is None else obj.get(name, default)
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list, got {type(value).__name__}",
                         field=name)
    return tuple(value)


def dumps_obj(obj: dict) -> str:
    """Serialize one record object to compact single-line JSON."""
    text = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    if "\n" in text:
        raise ContractError("record serialization must be single-line")
    return text


def loads_obj(text: str) -> dict:
    """Parse one JSON record, reporting the byte offset of syntax errors."""
    try:
        obj = json.loads(text)
    # besides a JSONDecodeError, a ValueError for an integer longer than
    # int() reads and a RecursionError for arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                         offset=getattr(exc, "pos", None)) from exc
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# line-oriented files


def write_jsonl(path, objs: Iterable[dict]) -> None:
    """Write record objects one per line, making the file's directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(dumps_obj(obj))
            fh.write("\n")


def read_text(path) -> str:
    r"""The UTF-8 text of ``path``, read whole, each ``\r\n`` and ``\r`` line
    end made ``\n`` as text-mode ``open`` makes it: the one place a text
    artifact is decoded. A byte that is not UTF-8 is a ``ParseError`` naming
    the file and the byte's offset in it. No other character ends a line:
    a JSON string may hold U+2028 or U+0085 raw."""
    with open(path, "rb") as fh:
        try:
            # the bytes are freed once decoded: the text is all that stays
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text",
                             offset=exc.start) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_jsonl(path) -> Iterator[dict]:
    """Yield record objects one per line, reporting the line on parse errors."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield loads_obj(line)
        except ParseError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc.message}",
                             field=exc.field, offset=exc.offset) from exc


# the sidecar's dtype: little-endian float64 on every host
_SIDECAR_DTYPE = np.dtype("<f8")


def sidecar_path(path) -> Path:
    """The ``.npy`` sidecar of an observation file: ``x.obs.jsonl`` -> ``x.obs.npy``."""
    return Path(path).with_suffix(".npy")


def observation_header(obs: MultiViewObservation) -> dict:
    """The JSONL record of one observation: its views without their values."""
    return {
        "fmt": FORMAT_VERSION,
        "kind": "observation",
        "episode_id": obs.episode_id,
        "frame_index": obs.frame_index,
        "views": [{"view_id": v.view_id, "height": v.height,
                   "width": v.width, "embed_dim": v.embed_dim}
                  for v in obs.views],
    }


def save_observations(path, observations: Iterable[MultiViewObservation]
                      ) -> None:
    """Write one header record per frame to ``path`` and all token values to
    its sidecar.

    The sidecar is one 1-D ``<f8`` array: per frame in order, per view in
    order, the view's row-major ``tokens`` and then its ``cls``. It is written
    with a single ``np.save``, whose bytes depend only on the array, so equal
    observations give identical files.
    """
    headers, values = [], []
    for obs in observations:
        headers.append(observation_header(obs))
        for view in obs.views:
            values.append(view.tokens.reshape(-1))
            values.append(view.cls)
    flat = np.concatenate(values) if values else np.zeros(0)
    write_jsonl(path, headers)
    with open(sidecar_path(path), "wb") as fh:
        np.save(fh, flat.astype(_SIDECAR_DTYPE, copy=False), allow_pickle=False)


def load_observations(path, sidecar=None) -> list[MultiViewObservation]:
    """Read observations back from header records and their sidecar.

    ``sidecar`` defaults to ``sidecar_path(path)``, whose values must all be
    finite. The records must account for every value of the sidecar, no
    more and no fewer; each view's ``tokens`` and ``cls`` are views of the
    sidecar array, which is read-only.
    """
    return _observations(read_jsonl(path), path, sidecar)


def _observations(records: Iterable, path, sidecar=None) -> list:
    """``load_observations`` from the records of ``path``, already read."""
    flat = _read_only(_read_sidecar(sidecar or sidecar_path(path)))
    if isinstance(flat.base, np.ndarray):  # np.load may return a view
        _read_only(flat.base)
    observations = []
    offset = 0
    for obj in _episode_records(records, "observation"):
        obs, offset = _observation_from_header(obj, flat, offset)
        observations.append(obs)
    if offset != flat.shape[0]:
        raise ParseError(
            f"token sidecar holds {flat.shape[0]} values, the "
            f"{len(observations)} observation records use {offset}",
            field="tokens")
    return observations


def _read_sidecar(path) -> np.ndarray:
    with open(path, "rb") as fh:
        try:
            flat = np.load(fh, allow_pickle=False)
        # EOFError on an empty file; MemoryError when the header claims a
        # shape no buffer can hold
        except (ValueError, EOFError, MemoryError) as exc:
            raise ParseError(f"unreadable token sidecar {Path(path).name}: "
                             f"{exc}", field="tokens") from exc
    if not isinstance(flat, np.ndarray):
        raise ParseError(f"token sidecar {Path(path).name} is not a .npy "
                         f"array", field="tokens")
    if flat.dtype != _SIDECAR_DTYPE or flat.ndim != 1:
        raise ParseError(
            f"token sidecar {Path(path).name} must be a 1-D <f8 array, got "
            f"{flat.ndim}-D {flat.dtype.str}", field="tokens")
    if not np.isfinite(flat).all():
        raise ParseError(f"token sidecar {Path(path).name} holds a value "
                         f"that is not finite", field="tokens")
    return flat


def _observation_from_header(obj, flat: np.ndarray, offset: int
                             ) -> tuple[MultiViewObservation, int]:
    """Rebuild one observation from its record and the sidecar values
    starting at ``offset``; returns it with the offset past its values."""
    with parsing(f"observation frame {obj.get('frame_index')!r}", "views"):
        frame = obj["frame_index"]
        views = []
        for v, header in enumerate(obj["views"]):
            if _check_int(header["view_id"], "view_id") != v:
                raise ContractError(f"view ids must be 0, 1, ... in order, "
                                    f"got {header['view_id']} at position {v}")
            height = _check_int(header["height"], "height", minimum=1)
            width = _check_int(header["width"], "width", minimum=1)
            dim = _check_int(header["embed_dim"], "embed_dim", minimum=1)
            if views and dim != views[0].embed_dim:
                raise ContractError("views must share one embed_dim")
            size = height * width * dim
            end = offset + size + dim
            if end > flat.shape[0]:
                raise ParseError(
                    f"token sidecar ends inside frame {frame!r} view {v}: "
                    f"needs {end} values, holds {flat.shape[0]}",
                    field="tokens")
            views.append(TokenGrid(
                view_id=v, height=height, width=width, embed_dim=dim,
                tokens=flat[offset:offset + size].reshape(height * width, dim),
                cls=flat[offset + size:end]))
            offset = end
        if not views:
            raise ContractError("observation needs at least one view")
        return MultiViewObservation(episode_id=obj["episode_id"],
                                    frame_index=frame,
                                    views=tuple(views)), offset


def save_annotation(path, annotation: EpisodeAnnotation) -> None:
    write_jsonl(path, annotation.frame_objs())


def load_annotation(path) -> EpisodeAnnotation:
    return EpisodeAnnotation.from_frame_objs(read_jsonl(path))
