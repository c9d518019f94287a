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
    syntax error when known.
    """

    def __init__(self, message: str, *, field: str | None = None,
                 offset: int | None = None):
        detail = message
        if field is not None:
            detail += f" (field {field!r})"
        if offset is not None:
            detail += f" (byte offset {offset})"
        super().__init__(detail)
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


def _as_float_array(value, name: str, *, shape: tuple[int, ...] | None = None,
                    ndim: int | None = None, copy: bool = True) -> np.ndarray:
    """Copy ``value`` into a read-only float64 array, validating shape and
    finiteness. A read-only C-contiguous float64 array, taken to stay
    unchanged, is not copied, and with ``copy`` false no C-contiguous
    float64 array is: the result is a read-only view of it."""
    frozen = (isinstance(value, np.ndarray) and value.dtype == np.float64
              and value.flags.c_contiguous and not value.flags.writeable)
    arr = (np.array(value, dtype=np.float64) if copy and not frozen else
           np.ascontiguousarray(value, dtype=np.float64).view())
    if ndim is not None and arr.ndim != ndim:
        raise ContractError(f"{name} must have {ndim} dimension(s), got {arr.ndim}")
    if shape is not None and arr.shape != shape:
        raise ContractError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


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
# view roles


@dataclass(frozen=True)
class ViewRoles:
    """Assignment of camera views to the head and the two wrist cameras.

    Arms are indexed 0 (left) and 1 (right) throughout the package.
    """

    head: int = 0
    left_wrist: int = 1
    right_wrist: int = 2

    def __post_init__(self):
        for name in ("head", "left_wrist", "right_wrist"):
            _check_int(getattr(self, name), name, minimum=0)
        if len({self.head, self.left_wrist, self.right_wrist}) != 3:
            raise ConfigError("view roles must be three distinct view indices")

    @property
    def wrists(self) -> tuple[int, int]:
        return (self.left_wrist, self.right_wrist)

    def wrist_for_arm(self, arm: int) -> int:
        if arm not in (0, 1):
            raise ContractError(f"arm must be 0 or 1, got {arm}")
        return self.wrists[arm]

    def to_obj(self) -> dict:
        return {"head": self.head, "left_wrist": self.left_wrist,
                "right_wrist": self.right_wrist}

    @classmethod
    def from_obj(cls, obj) -> "ViewRoles":
        with parsing("view roles", "roles"):
            return cls(head=obj["head"], left_wrist=obj["left_wrist"],
                       right_wrist=obj["right_wrist"])


# ---------------------------------------------------------------------------
# token containers


@dataclass(frozen=True, eq=False)
class TokenGrid(_ValueEq):
    """Patch tokens of one camera view plus its summary (CLS) token.

    ``tokens`` has shape ``(height * width, embed_dim)`` in row-major patch
    order; ``cls`` has shape ``(embed_dim,)``. Arrays are stored read-only:
    a read-only C-contiguous float64 array as given, anything else copied.
    """

    view_id: int
    height: int
    width: int
    embed_dim: int
    tokens: np.ndarray
    cls: np.ndarray

    def __post_init__(self):
        _check_int(self.view_id, "view_id", minimum=0)
        _check_int(self.height, "height", minimum=1)
        _check_int(self.width, "width", minimum=1)
        _check_int(self.embed_dim, "embed_dim", minimum=1)
        n = self.height * self.width
        object.__setattr__(self, "tokens", _as_float_array(
            self.tokens, "tokens", shape=(n, self.embed_dim)))
        object.__setattr__(self, "cls", _as_float_array(
            self.cls, "cls", shape=(self.embed_dim,)))

    @property
    def token_count(self) -> int:
        return self.height * self.width


@dataclass(frozen=True, eq=False)
class MultiViewObservation(_ValueEq):
    """One timestep of synchronized camera views.

    View ids must be exactly ``0..V-1`` in order and all views must share one
    embedding width. Grid shapes may differ between views.
    """

    episode_id: str
    frame_index: int
    views: tuple[TokenGrid, ...]

    def __post_init__(self):
        if not isinstance(self.episode_id, str) or not self.episode_id:
            raise ContractError("episode_id must be a non-empty string")
        _check_int(self.frame_index, "frame_index", minimum=0)
        views = tuple(self.views)
        if not views:
            raise ContractError("observation needs at least one view")
        for i, v in enumerate(views):
            if not isinstance(v, TokenGrid):
                raise ContractError("views must be TokenGrid instances")
            if v.view_id != i:
                raise ContractError(
                    f"view ids must be 0..{len(views) - 1} in order, "
                    f"got {v.view_id} at position {i}")
            if v.embed_dim != views[0].embed_dim:
                raise ContractError("views must share one embed_dim")
        object.__setattr__(self, "views", views)

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
    the adaptive-ratio baseline; ``seed`` drives the random baseline.
    """

    alphas: tuple[float, ...] = (0.3, 0.2, 0.2)
    beta: float = 0.5
    epsilon: float = 0.01
    strategy: Strategy = Strategy.HIERARCHICAL
    adaptive_threshold: float = 0.5
    adaptive_multiplier: float = 0.8
    seed: int = 0

    def __post_init__(self):
        alphas = tuple(_config_float(a, "alphas") for a in self.alphas)
        if not alphas:
            raise ConfigError("alphas must name at least one view",
                              field="alphas")
        for a in alphas:
            if not math.isfinite(a) or not 0.0 <= a < 1.0:
                raise ConfigError(
                    f"local prune ratio must lie in [0, 1), got {a}",
                    field="alphas")
        object.__setattr__(self, "alphas", alphas)
        for name in ("beta", "epsilon", "adaptive_threshold",
                     "adaptive_multiplier"):
            object.__setattr__(self, name,
                               _config_float(getattr(self, name), name))
        if not math.isfinite(self.beta) or not 0.0 <= self.beta < 1.0:
            raise ConfigError(
                f"global prune ratio must lie in [0, 1), got {self.beta}",
                field="beta")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}",
                              field="epsilon")
        if not isinstance(self.strategy, Strategy):
            raise ConfigError(f"unknown strategy: {self.strategy!r}")
        if not math.isfinite(self.adaptive_threshold):
            raise ConfigError("adaptive_threshold must be finite",
                              field="adaptive_threshold")
        if not math.isfinite(self.adaptive_multiplier) or self.adaptive_multiplier < 0.0:
            raise ConfigError("adaptive_multiplier must be nonnegative",
                              field="adaptive_multiplier")
        _check_int(self.seed, "seed", minimum=0)

    @classmethod
    def from_obj(cls, obj) -> "PruneConfig":
        _expect_record(obj, "prune_config")
        with parsing("prune config", "prune_config"):
            return cls(alphas=_listed(obj, "alphas"), beta=obj["beta"],
                       epsilon=obj["epsilon"],
                       strategy=_member(Strategy, obj["strategy"], "strategy"),
                       adaptive_threshold=obj.get("adaptive_threshold", 0.5),
                       adaptive_multiplier=obj.get("adaptive_multiplier", 0.8),
                       seed=obj.get("seed", 0))


def _config_float(value, name: str) -> float:
    """``value`` as a float; a refusal names ``name`` as its field."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got "
                          f"{type(value).__name__}", field=name)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float",
                          field=name) from None


def _index_array(values, name: str) -> np.ndarray:
    """Token indices of a decoded list as a 1-d int64 array.

    Only integers pass: floats, bools, strings and other objects are
    rejected rather than truncated, and so is an integer past int64.
    """
    values = tuple(values)
    # np.asarray would turn [1, True] into int64
    if bool in set(map(type, values)):
        raise ContractError(f"{name} must hold integers, got a bool")
    arr = np.asarray(values)
    # np.asarray(()) is float64 and empty, so size comes before dtype
    if arr.ndim != 1 or arr.size and not (
            arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)):
        raise ContractError(f"{name} must be a flat list of integers")
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
            fused = tuple(_as_float_array(a, "fused_scores", ndim=1)
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
            return cls(counts, tuple(tuple(idx.tolist()) for idx in kept),
                       fused, local, global_count,
                       tuple(zip(rank_view.tolist(), rank_idx.tolist())))


# ---------------------------------------------------------------------------
# episode annotation


@dataclass(frozen=True, eq=False)
class FrameAnnotation(_ValueEq):
    """Per-frame labels: one patch mask per view, one relevance label per view,
    one phase per arm."""

    masks: tuple[np.ndarray, ...]
    inter_labels: tuple[int, ...]
    arm_phases: tuple[Phase, ...]

    def __post_init__(self):
        # the counts first, so a record with very many masks is refused
        # before each one is converted
        labels = tuple(_check_int(x, "inter_labels")
                       for x in self.inter_labels)
        if len(labels) != len(self.masks):
            raise ContractError("inter_labels must have one entry per view",
                                field="inter_labels")
        if any(x not in (0, 1) for x in labels):
            raise ContractError("inter_labels must be 0 or 1",
                                field="inter_labels")
        masks = []
        for m in self.masks:
            arr = np.array(m, dtype=np.uint8)
            if arr.ndim != 1:
                raise ContractError("masks must be flat per-view arrays",
                                    field="masks")
            # 0 and 1 are what the uint8 copy keeps as is and at most 1
            if not ((arr <= 1).all() and (np.asarray(m) == arr).all()):
                raise ContractError("mask entries must be 0 or 1",
                                    field="masks")
            arr.flags.writeable = False
            masks.append(arr)
        phases = tuple(self.arm_phases)
        if any(not isinstance(p, Phase) for p in phases):
            raise ContractError("arm_phases must be Phase values",
                                field="arm_phases")
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "inter_labels", labels)
        object.__setattr__(self, "arm_phases", phases)


@dataclass(frozen=True, eq=False)
class EpisodeAnnotation(_ValueEq):
    """Token-level and view-level labels for one episode.

    ``grids`` fixes the per-view patch grid shape for the whole episode;
    every frame's masks must match it, and the head view's relevance label
    must be 1 in every frame.
    """

    episode_id: str
    roles: ViewRoles
    grids: tuple[tuple[int, int], ...]
    frames: tuple[FrameAnnotation, ...]

    def __post_init__(self):
        if not isinstance(self.episode_id, str) or not self.episode_id:
            raise ContractError("episode_id must be a non-empty string")
        if not isinstance(self.roles, ViewRoles):
            raise ContractError("roles must be a ViewRoles")
        try:
            grids = tuple((_check_int(h, "grids", minimum=1),
                           _check_int(w, "grids", minimum=1))
                          for h, w in self.grids)
        except ContractError:
            raise
        # an entry that is no (height, width) pair fails to unpack
        except (TypeError, ValueError) as exc:
            raise ContractError("grids must hold (height, width) pairs",
                                field="grids") from exc
        needed = max(self.roles.head, *self.roles.wrists) + 1
        frames = tuple(self.frames)
        if (frames or grids) and len(grids) < needed:
            raise ContractError("grids must cover every role view",
                                field="grids")
        for t, frame in enumerate(frames):
            if not isinstance(frame, FrameAnnotation):
                raise ContractError("frames must be FrameAnnotation instances")
            if len(frame.masks) != len(grids):
                raise AnnotationError("mask count does not match view count",
                                      frame=t)
            for v, (mask, (h, w)) in enumerate(zip(frame.masks, grids)):
                if mask.shape != (h * w,):
                    raise AnnotationError(
                        f"view {v} mask has {mask.shape[0]} entries, "
                        f"grid is {h}x{w}", frame=t)
            if frame.inter_labels[self.roles.head] != 1:
                raise AnnotationError("head view label must be 1", frame=t)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "frames", frames)

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
                "roles": self.roles.to_obj(),
                "grids": [list(g) for g in self.grids],
                "masks": [m.tolist() for m in f.masks],
                "inter_labels": list(f.inter_labels),
                "arm_phases": [p.value for p in f.arm_phases],
            }

    @classmethod
    def from_frame_objs(cls, objs: Iterable[dict]) -> "EpisodeAnnotation":
        """Reassemble an episode from per-frame records, validating consistency."""
        objs = list(objs)
        if not objs:
            raise ParseError("no annotation records", field="frames")
        for obj in objs:
            _expect_record(obj, "annotation")
        with parsing("annotation", "frames"):
            episode_id = objs[0]["episode_id"]
            for t, obj in enumerate(objs):
                if obj["episode_id"] != episode_id:
                    raise ParseError(
                        f"mixed episodes: {obj['episode_id']!r} vs {episode_id!r}",
                        field="episode_id")
                if obj["frame_index"] != t:
                    raise ParseError(
                        f"expected frame {t}, got {obj['frame_index']}",
                        field="frame_index")
            return cls(episode_id=episode_id,
                       roles=ViewRoles.from_obj(objs[0]["roles"]),
                       grids=objs[0]["grids"],
                       frames=tuple(_frame_from_obj(obj) for obj in objs))


def _frame_from_obj(obj) -> FrameAnnotation:
    return FrameAnnotation(
        masks=_listed(obj, "masks"),
        inter_labels=_listed(obj, "inter_labels"),
        arm_phases=tuple(_member(Phase, p, "arm_phases")
                         for p in _listed(obj, "arm_phases")))


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


def _listed(obj: dict, name: str, default=None) -> tuple:
    """Record field ``name`` as a tuple; a value that is no list names it."""
    value = obj[name] if default is None else obj.get(name, default)
    try:
        return tuple(value)
    except TypeError as exc:
        raise ParseError(f"{name} must be a list, got {type(value).__name__}",
                         field=name) from exc


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
    """Write record objects one per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(dumps_obj(obj))
            fh.write("\n")


def read_jsonl(path) -> Iterator[dict]:
    """Yield record objects one per line, reporting the line on parse errors."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield loads_obj(line)
            except ParseError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}",
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

    ``sidecar`` defaults to ``sidecar_path(path)``. The records must account
    for every value of the sidecar, no more and no fewer; each view is
    rebuilt through ``TokenGrid``, so shapes and finiteness are checked,
    as a view of the sidecar array, which is read-only.
    """
    flat = _read_sidecar(sidecar_path(path) if sidecar is None else sidecar)
    flat.flags.writeable = False
    if isinstance(flat.base, np.ndarray):  # np.load may return a view
        flat.base.flags.writeable = False
    observations = []
    offset = 0
    for obj in read_jsonl(path):
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
    return flat


def _observation_from_header(obj, flat: np.ndarray, offset: int
                             ) -> tuple[MultiViewObservation, int]:
    """Rebuild one observation from its record and the sidecar values
    starting at ``offset``; returns it with the offset past its values."""
    _expect_record(obj, "observation")
    with parsing(f"observation frame {obj.get('frame_index')!r}", "views"):
        frame = obj["frame_index"]
        views = []
        for v, header in enumerate(obj["views"]):
            height = _check_int(header["height"], "height", minimum=1)
            width = _check_int(header["width"], "width", minimum=1)
            dim = _check_int(header["embed_dim"], "embed_dim", minimum=1)
            size = height * width * dim
            end = offset + size + dim
            if end > flat.shape[0]:
                raise ParseError(
                    f"token sidecar ends inside frame {frame!r} view {v}: "
                    f"needs {end} values, holds {flat.shape[0]}",
                    field="tokens")
            views.append(TokenGrid(
                view_id=header["view_id"], height=height, width=width,
                embed_dim=dim,
                tokens=flat[offset:offset + size].reshape(height * width, dim),
                cls=flat[offset + size:end]))
            offset = end
        return MultiViewObservation(episode_id=obj["episode_id"],
                                    frame_index=frame,
                                    views=tuple(views)), offset


def save_annotation(path, annotation: EpisodeAnnotation) -> None:
    write_jsonl(path, annotation.frame_objs())


def load_annotation(path) -> EpisodeAnnotation:
    return EpisodeAnnotation.from_frame_objs(read_jsonl(path))
