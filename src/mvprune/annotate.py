"""Offline two-level annotation: patch masks from boxes, interaction
detection, phase timelines, and manual annotation ingestion.

Pixel boxes and patches are half-open rectangles, so shapes that only share
an edge do not intersect. A patch is marked relevant exactly when a
task-relevant box overlaps it with positive area. Gripper boxes carry the
arm index as their ``ident``; object boxes carry an object id, and only ids
in the frame's ``task_objects`` count as relevant (distractors stay ignored).

Interaction between an arm and the task objects is detected in a single
designated view (the head camera by default) and debounced before it feeds
view labels and phase boundaries: a run of flips shorter than the debounce
width never changes the detected state.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    AnnotationError,
    ContractError,
    EpisodeAnnotation,
    FrameAnnotation,
    ParseError,
    Phase,
    ViewRoles,
    _check_int,
    _expect_record,
    loads_obj,
    read_jsonl,
    write_jsonl,
)

DEFAULT_DEBOUNCE = 3


class BoxKind(Enum):
    """What a pixel box outlines."""

    GRIPPER = "gripper"
    OBJECT = "object"


@dataclass(frozen=True)
class Box:
    """Half-open pixel rectangle ``[x0, x1) x [y0, y1)``.

    ``ident`` is the arm index for gripper boxes and the object id for
    object boxes.
    """

    x0: int
    y0: int
    x1: int
    y1: int
    kind: BoxKind
    ident: int = 0

    def __post_init__(self):
        for name in ("x0", "y0", "x1", "y1"):
            _check_int(getattr(self, name), name, minimum=0)
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ContractError(
                f"box must have positive area, got "
                f"({self.x0},{self.y0})..({self.x1},{self.y1})")
        if not isinstance(self.kind, BoxKind):
            raise ContractError(f"kind must be a BoxKind, got {self.kind!r}")
        _check_int(self.ident, "ident", minimum=0)

    def overlaps(self, other: "Box") -> bool:
        """True when the rectangles share positive area."""
        return (max(self.x0, other.x0) < min(self.x1, other.x1)
                and max(self.y0, other.y0) < min(self.y1, other.y1))

    def to_obj(self) -> dict:
        return {"x0": self.x0, "y0": self.y0, "x1": self.x1, "y1": self.y1,
                "kind": self.kind.value, "ident": self.ident}

    @classmethod
    def from_obj(cls, obj) -> "Box":
        try:
            kind = BoxKind(obj["kind"])
            return cls(x0=obj["x0"], y0=obj["y0"], x1=obj["x1"], y1=obj["y1"],
                       kind=kind, ident=obj.get("ident", 0))
        except KeyError as exc:
            raise ParseError("missing box field", field=str(exc.args[0])) from exc
        except ValueError as exc:
            raise ParseError(f"invalid box: {exc}", field="kind") from exc


@dataclass(frozen=True)
class ViewGeometry:
    """Pixel-space description of one camera view for one frame."""

    image_width: int
    image_height: int
    patch_size: int
    boxes: tuple[Box, ...] = ()

    def __post_init__(self):
        _check_int(self.image_width, "image_width", minimum=1)
        _check_int(self.image_height, "image_height", minimum=1)
        _check_int(self.patch_size, "patch_size", minimum=1)
        boxes = tuple(self.boxes)
        if any(not isinstance(b, Box) for b in boxes):
            raise ContractError("boxes must be Box instances")
        object.__setattr__(self, "boxes", boxes)

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Patch grid ``(rows, cols)``; edge patches may be truncated when the
        image dimensions are not divisible by the patch size."""
        return (-(-self.image_height // self.patch_size),
                -(-self.image_width // self.patch_size))

    def to_obj(self) -> dict:
        return {"image_width": self.image_width,
                "image_height": self.image_height,
                "patch_size": self.patch_size,
                "boxes": [b.to_obj() for b in self.boxes]}

    @classmethod
    def from_obj(cls, obj) -> "ViewGeometry":
        try:
            boxes = tuple(Box.from_obj(b) for b in obj.get("boxes", []))
            return cls(image_width=obj["image_width"],
                       image_height=obj["image_height"],
                       patch_size=obj["patch_size"], boxes=boxes)
        except KeyError as exc:
            raise ParseError("missing view geometry field",
                             field=str(exc.args[0])) from exc
        except ContractError as exc:
            raise ParseError(f"invalid view geometry: {exc}",
                             field="boxes") from exc


@dataclass(frozen=True)
class FrameGeometry:
    """All views of one frame plus per-arm gripper state and the ids of the
    objects the task manipulates."""

    views: tuple[ViewGeometry, ...]
    gripper_closed: tuple[bool, ...] = (False, False)
    task_objects: frozenset[int] = frozenset()

    def __post_init__(self):
        views = tuple(self.views)
        if not views:
            raise ContractError("frame geometry needs at least one view")
        if any(not isinstance(v, ViewGeometry) for v in views):
            raise ContractError("views must be ViewGeometry instances")
        closed = tuple(bool(c) for c in self.gripper_closed)
        if not closed:
            raise ContractError("frame geometry needs at least one arm")
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "gripper_closed", closed)
        object.__setattr__(self, "task_objects",
                           frozenset(int(i) for i in self.task_objects))

    @property
    def arm_count(self) -> int:
        return len(self.gripper_closed)

    def relevant_boxes(self, view_index: int) -> tuple[Box, ...]:
        """Boxes that make a patch relevant: grippers plus task objects."""
        view = self._view(view_index)
        return tuple(b for b in view.boxes
                     if b.kind is BoxKind.GRIPPER
                     or (b.kind is BoxKind.OBJECT
                         and b.ident in self.task_objects))

    def _view(self, view_index: int) -> ViewGeometry:
        if not 0 <= view_index < len(self.views):
            raise ContractError(
                f"view {view_index} out of range for {len(self.views)} views")
        return self.views[view_index]

    def to_obj(self) -> dict:
        return {"views": [v.to_obj() for v in self.views],
                "gripper_closed": list(self.gripper_closed),
                "task_objects": sorted(self.task_objects)}

    @classmethod
    def from_obj(cls, obj) -> "FrameGeometry":
        try:
            views = tuple(ViewGeometry.from_obj(v) for v in obj["views"])
            return cls(views=views,
                       gripper_closed=tuple(obj["gripper_closed"]),
                       task_objects=frozenset(obj.get("task_objects", [])))
        except KeyError as exc:
            raise ParseError("missing frame geometry field",
                             field=str(exc.args[0])) from exc
        except ContractError as exc:
            raise ParseError(f"invalid frame geometry: {exc}",
                             field="views") from exc


# ---------------------------------------------------------------------------
# rasterization


def boxes_to_patch_mask(boxes: Sequence[Box], view: ViewGeometry) -> np.ndarray:
    """Rasterize pixel boxes onto the view's patch grid.

    A patch is 1 exactly when some box overlaps it with positive area; boxes
    that merely touch a patch edge leave it 0. Boxes must lie within the
    image.
    """
    rows, cols = view.grid_shape
    mask = np.zeros((rows, cols), dtype=np.uint8)
    p = view.patch_size
    for box in boxes:
        if box.x1 > view.image_width or box.y1 > view.image_height:
            raise AnnotationError(
                f"box ({box.x0},{box.y0})..({box.x1},{box.y1}) exceeds "
                f"{view.image_width}x{view.image_height} image")
        mask[box.y0 // p:-(-box.y1 // p), box.x0 // p:-(-box.x1 // p)] = 1
    out = mask.reshape(-1)
    out.flags.writeable = False
    return out


def frame_patch_mask(geom: FrameGeometry, view_index: int) -> np.ndarray:
    """Relevance mask of one view: rasterized grippers and task objects."""
    return boxes_to_patch_mask(geom.relevant_boxes(view_index),
                               geom._view(view_index))


# ---------------------------------------------------------------------------
# interaction detection and debouncing


def detect_interaction(geom: FrameGeometry, arm: int, view_index: int) -> bool:
    """True when the arm's gripper overlaps any task object in the view."""
    view = geom._view(view_index)
    grippers = [b for b in view.boxes
                if b.kind is BoxKind.GRIPPER and b.ident == arm]
    if not grippers:
        raise AnnotationError(
            f"arm {arm} has no gripper box in view {view_index}")
    targets = [b for b in view.boxes
               if b.kind is BoxKind.OBJECT and b.ident in geom.task_objects]
    return any(g.overlaps(o) for g in grippers for o in targets)


def debounce(values: Sequence[bool], width: int = DEFAULT_DEBOUNCE) -> list[bool]:
    """Suppress state flips shorter than ``width`` consecutive frames.

    The state starts open (False) and only changes when a run of the
    opposite value lasts at least ``width`` frames; shorter runs are
    absorbed into the current state. ``width`` 1 is the identity.
    """
    _check_int(width, "width", minimum=1)
    state = False
    out: list[bool] = []
    run_value: bool | None = None
    run: list[bool] = []

    def flush():
        nonlocal state
        if run:
            if run_value != state and len(run) >= width:
                state = run_value
            out.extend([state] * len(run))

    for value in values:
        value = bool(value)
        if value != run_value and run:
            flush()
            run.clear()
        run_value = value
        run.append(value)
    flush()
    return out


def interaction_intervals(values: Sequence[bool]) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` frame intervals where ``values`` is True."""
    spans = []
    start = None
    for t, value in enumerate(values):
        if value and start is None:
            start = t
        elif not value and start is not None:
            spans.append((start, t))
            start = None
    if start is not None:
        spans.append((start, len(values)))
    return spans


def label_inter_views(interactions_by_arm: Sequence[Sequence[bool]],
                      roles: ViewRoles, view_count: int = 3
                      ) -> list[tuple[int, ...]]:
    """Per-frame view relevance labels from per-arm interaction timelines.

    The head view is always labeled 1; each wrist view is labeled 1 exactly
    while its arm interacts; any other view is labeled 0.
    """
    if len(interactions_by_arm) != 2:
        raise ContractError("need interaction timelines for both arms")
    length = len(interactions_by_arm[0])
    if len(interactions_by_arm[1]) != length:
        raise ContractError("arm timelines must have equal length")
    if view_count <= max(roles.head, *roles.wrists):
        raise ContractError("view_count must cover every role view")
    labels = []
    for t in range(length):
        row = [0] * view_count
        row[roles.head] = 1
        for arm in (0, 1):
            row[roles.wrist_for_arm(arm)] = int(bool(interactions_by_arm[arm][t]))
        labels.append(tuple(row))
    return labels


# ---------------------------------------------------------------------------
# phase timelines


@dataclass(frozen=True)
class PhaseSpan:
    """One contiguous phase interval ``[start, end)`` of one arm."""

    start: int
    end: int
    phase: Phase

    def __post_init__(self):
        _check_int(self.start, "start", minimum=0)
        _check_int(self.end, "end", minimum=1)
        if self.start >= self.end:
            raise ContractError(
                f"span must be nonempty, got [{self.start}, {self.end})")
        if not isinstance(self.phase, Phase):
            raise ContractError(f"phase must be a Phase, got {self.phase!r}")


_LEGAL_TRANSITIONS = {
    (Phase.APPROACHING, Phase.STARTING_OPERATION),
    (Phase.APPROACHING, Phase.MOVING_WITH_OBJECT),
    (Phase.STARTING_OPERATION, Phase.MOVING_WITH_OBJECT),
    (Phase.STARTING_OPERATION, Phase.RETRACTING),
    (Phase.MOVING_WITH_OBJECT, Phase.RETRACTING),
    (Phase.RETRACTING, Phase.APPROACHING),
}


@dataclass(frozen=True)
class PhaseTimeline:
    """Per-arm phase spans that exactly partition an episode.

    Within each arm consecutive phases must follow the manipulation cycle:
    approach, then starting the operation, then moving with the object, then
    retracting, back to approaching. Spans for phases that were skipped
    (for example a grasp that never lifts the object) are simply absent.
    """

    length: int
    arms: tuple[tuple[PhaseSpan, ...], ...]

    def __post_init__(self):
        _check_int(self.length, "length", minimum=0)
        arms = tuple(tuple(spans) for spans in self.arms)
        for arm, spans in enumerate(arms):
            if self.length == 0:
                if spans:
                    raise ContractError(f"arm {arm}: spans in an empty episode")
                continue
            if not spans:
                raise ContractError(f"arm {arm}: timeline must cover the episode")
            if spans[0].start != 0 or spans[-1].end != self.length:
                raise ContractError(
                    f"arm {arm}: spans must cover [0, {self.length})")
            for a, b in zip(spans, spans[1:]):
                if a.end != b.start:
                    raise ContractError(
                        f"arm {arm}: gap or overlap at frame {a.end}")
                if (a.phase, b.phase) not in _LEGAL_TRANSITIONS:
                    raise ContractError(
                        f"arm {arm}: illegal phase change "
                        f"{a.phase.value} to {b.phase.value} at frame {a.end}")
        object.__setattr__(self, "arms", arms)

    @property
    def arm_count(self) -> int:
        return len(self.arms)

    def phase_at(self, arm: int, frame: int) -> Phase:
        if not 0 <= arm < len(self.arms):
            raise ContractError(f"arm {arm} out of range")
        _check_int(frame, "frame", minimum=0)
        if frame >= self.length:
            raise ContractError(f"frame {frame} out of range")
        for span in self.arms[arm]:
            if span.start <= frame < span.end:
                return span.phase
        raise ContractError(f"frame {frame} not covered")

    @classmethod
    def from_phases(cls, phases_by_arm: Sequence[Sequence[Phase]]
                    ) -> "PhaseTimeline":
        """Build a timeline from per-arm frame-by-frame phase lists."""
        arms = []
        length = None
        for phases in phases_by_arm:
            phases = list(phases)
            if length is None:
                length = len(phases)
            elif len(phases) != length:
                raise ContractError("arms must have equal length")
            spans = []
            for t, phase in enumerate(phases):
                if spans and spans[-1][2] is phase:
                    spans[-1][1] = t + 1
                else:
                    spans.append([t, t + 1, phase])
            arms.append(tuple(PhaseSpan(s, e, p) for s, e, p in spans))
        return cls(length=length or 0, arms=tuple(arms))


def build_phase_timeline(interactions_by_arm: Sequence[Sequence[bool]],
                         closed_by_arm: Sequence[Sequence[bool]]
                         ) -> PhaseTimeline:
    """Derive per-arm phases from debounced interactions and gripper state.

    Each interaction interval starts a cycle: the arm approaches until the
    interval begins, is starting the operation until its gripper first
    closes inside the interval, moves with the object until the interval
    ends, and then retracts. Between two cycles the retract and the next
    approach split the gap at its midpoint (the retract half rounds down).
    An arm that never interacts approaches for the whole episode.

    A gripper closed outside any interaction interval cannot be acting on a
    task object; such frames raise a warning and are otherwise ignored.
    """
    if len(interactions_by_arm) != len(closed_by_arm):
        raise ContractError("need one gripper timeline per arm")
    arms = []
    length = None
    for arm, (interactions, closed) in enumerate(
            zip(interactions_by_arm, closed_by_arm)):
        interactions = [bool(v) for v in interactions]
        closed = [bool(v) for v in closed]
        if len(interactions) != len(closed):
            raise ContractError(
                f"arm {arm}: interaction and gripper timelines must align")
        if length is None:
            length = len(interactions)
        elif len(interactions) != length:
            raise ContractError("arm timelines must have equal length")
        arms.append(tuple(_arm_spans(interactions, closed, arm)))
    return PhaseTimeline(length=length or 0, arms=tuple(arms))


def _arm_spans(interactions: list[bool], closed: list[bool],
               arm: int) -> list[PhaseSpan]:
    total = len(interactions)
    if total == 0:
        return []
    cycles = interaction_intervals(interactions)
    stray = [t for t, c in enumerate(closed)
             if c and not interactions[t]]
    if stray:
        warnings.warn(
            f"arm {arm}: gripper closed outside any interaction, "
            f"first at frame {stray[0]}", stacklevel=3)
    if not cycles:
        return [PhaseSpan(0, total, Phase.APPROACHING)]
    spans = []
    approach_start = 0
    for j, (start, end) in enumerate(cycles):
        if approach_start < start:
            spans.append(PhaseSpan(approach_start, start, Phase.APPROACHING))
        close_at = next((t for t in range(start, end) if closed[t]), end)
        if start < close_at:
            spans.append(PhaseSpan(start, close_at, Phase.STARTING_OPERATION))
        if close_at < end:
            spans.append(PhaseSpan(close_at, end, Phase.MOVING_WITH_OBJECT))
        if j + 1 < len(cycles):
            approach_start = (end + cycles[j + 1][0]) // 2
        else:
            approach_start = total
        if end < approach_start:
            spans.append(PhaseSpan(end, approach_start, Phase.RETRACTING))
    return spans


# ---------------------------------------------------------------------------
# episode annotation


def annotate_episode(geometry: Sequence[FrameGeometry], roles: ViewRoles,
                     episode_id: str, *, detection_view: int | None = None,
                     debounce_width: int = DEFAULT_DEBOUNCE
                     ) -> EpisodeAnnotation:
    """Produce the full two-level annotation of one episode from geometry.

    Rasterizes per-view patch masks, detects and debounces interactions in
    the detection view (the head camera unless overridden), derives view
    relevance labels and per-arm phases, and validates the result. Errors
    name the offending frame. An empty episode yields an empty annotation.
    """
    geometry = list(geometry)
    if not isinstance(roles, ViewRoles):
        raise ContractError("roles must be a ViewRoles")
    if detection_view is None:
        detection_view = roles.head
    if not geometry:
        return EpisodeAnnotation(episode_id=episode_id, roles=roles,
                                 grids=(), frames=())
    first = geometry[0]
    view_count = len(first.views)
    grids = tuple(v.grid_shape for v in first.views)
    masks_per_frame = []
    raw = [[], []]
    closed = [[], []]
    for t, geom in enumerate(geometry):
        if len(geom.views) != view_count:
            raise AnnotationError(
                f"expected {view_count} views, got {len(geom.views)}", frame=t)
        if geom.arm_count != 2:
            raise AnnotationError(
                f"expected 2 arms, got {geom.arm_count}", frame=t)
        if tuple(v.grid_shape for v in geom.views) != grids:
            raise AnnotationError("patch grid changed mid-episode", frame=t)
        try:
            masks_per_frame.append(tuple(frame_patch_mask(geom, v)
                                         for v in range(view_count)))
            for arm in (0, 1):
                raw[arm].append(detect_interaction(geom, arm, detection_view))
                closed[arm].append(geom.gripper_closed[arm])
        except AnnotationError as exc:
            if exc.frame is None:
                raise AnnotationError(str(exc), frame=t) from exc
            raise
    debounced = [debounce(raw[arm], debounce_width) for arm in (0, 1)]
    labels = label_inter_views(debounced, roles, view_count)
    timeline = build_phase_timeline(debounced, closed)
    frames = tuple(
        FrameAnnotation(
            masks=masks_per_frame[t],
            inter_labels=labels[t],
            arm_phases=tuple(timeline.phase_at(arm, t) for arm in (0, 1)),
        )
        for t in range(len(geometry)))
    return EpisodeAnnotation(episode_id=episode_id, roles=roles, grids=grids,
                             frames=frames)


# ---------------------------------------------------------------------------
# geometry records


def geometry_objs(episode_id: str, geometry: Sequence[FrameGeometry]
                  ) -> Iterable[dict]:
    for t, geom in enumerate(geometry):
        obj = {"fmt": FORMAT_VERSION, "kind": "geometry",
               "episode_id": episode_id, "frame_index": t}
        obj.update(geom.to_obj())
        yield obj


def geometry_from_objs(objs: Iterable[dict]) -> tuple[str, list[FrameGeometry]]:
    episode_id = None
    frames = []
    for obj in objs:
        _expect_record(obj, "geometry")
        try:
            if episode_id is None:
                episode_id = obj["episode_id"]
            elif obj["episode_id"] != episode_id:
                raise ParseError("mixed episodes in geometry records",
                                 field="episode_id")
            if obj["frame_index"] != len(frames):
                raise ParseError(
                    f"expected frame {len(frames)}, got {obj['frame_index']}",
                    field="frame_index")
            frames.append(FrameGeometry.from_obj(obj))
        except KeyError as exc:
            raise ParseError("missing geometry field",
                             field=str(exc.args[0])) from exc
        except ParseError:
            raise
        # a value of the wrong type (a number where a list or an object
        # belongs, a string or an infinity where an integer belongs) fails
        # as one of these
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ParseError(f"invalid geometry frame {len(frames)}: {exc}",
                             field="views") from exc
    if episode_id is None:
        raise ParseError("no geometry records", field="frames")
    return episode_id, frames


def save_geometry(path, episode_id: str,
                  geometry: Sequence[FrameGeometry]) -> None:
    write_jsonl(path, geometry_objs(episode_id, geometry))


def load_geometry(path) -> tuple[str, list[FrameGeometry]]:
    return geometry_from_objs(read_jsonl(path))


# ---------------------------------------------------------------------------
# manual annotation records


def ingest_manual(text: str) -> EpisodeAnnotation:
    """Parse a manually written annotation record into an episode annotation.

    The record carries pixel geometry, timed box placements, per-arm
    interaction and gripper-closed frame ranges, and optional explicit
    phases and label overrides; see FORMATS.md for the schema. Masks are
    rasterized from the placements; interactions are taken as-is (no
    debouncing, a human already cleaned them). Validation failures name the
    offending frame.
    """
    obj = loads_obj(text)
    _expect_record(obj, "manual_annotation")
    try:
        episode_id = obj["episode_id"]
        length = _check_int(obj["length"], "length", minimum=0)
        roles = ViewRoles.from_obj(obj["roles"])
        view_geoms = [ViewGeometry.from_obj(v) for v in obj["views"]]
        placements = obj["boxes"]
        task_objects = frozenset(obj.get("task_objects", []))
        interactions_ranges = obj["interactions"]
        closed_ranges = obj["gripper_closed"]
    except KeyError as exc:
        raise ParseError("missing manual annotation field",
                         field=str(exc.args[0])) from exc
    if len(placements) != len(view_geoms):
        raise ParseError("need one placement list per view", field="boxes")
    if len(interactions_ranges) != 2 or len(closed_ranges) != 2:
        raise ParseError("need exactly two arms", field="interactions")

    interactions = [_ranges_to_bools(r, length, "interactions")
                    for r in interactions_ranges]
    closed = [_ranges_to_bools(r, length, "gripper_closed")
              for r in closed_ranges]

    boxes_by_frame = [[[] for _ in view_geoms] for _ in range(length)]
    for v, placed in enumerate(placements):
        for item in placed:
            try:
                start = _check_int(item["start"], "start", minimum=0)
                end = _check_int(item["end"], "end", minimum=1)
                box = Box.from_obj(item)
            except KeyError as exc:
                raise ParseError("missing box placement field",
                                 field=str(exc.args[0])) from exc
            except ContractError as exc:
                raise AnnotationError(f"view {v}: {exc}",
                                      frame=item.get("start")) from exc
            if end > length or start >= end:
                raise AnnotationError(
                    f"view {v}: placement range [{start}, {end}) outside "
                    f"episode of length {length}", frame=start)
            for t in range(start, end):
                boxes_by_frame[t][v].append(box)

    view_count = len(view_geoms)
    labels = label_inter_views(interactions, roles, view_count) if length \
        else []
    for override in obj.get("label_overrides", []):
        try:
            start = _check_int(override["start"], "start", minimum=0)
            end = _check_int(override["end"], "end", minimum=1)
            view = _check_int(override["view"], "view", minimum=0)
            value = override["label"]
        except KeyError as exc:
            raise ParseError("missing label override field",
                             field=str(exc.args[0])) from exc
        if value not in (0, 1):
            raise AnnotationError(f"label override must be 0 or 1, got {value}",
                                  frame=start)
        if view >= view_count or end > length or start >= end:
            raise AnnotationError(
                f"label override out of range: view {view}, "
                f"frames [{start}, {end})", frame=start)
        if view == roles.head and value == 0:
            raise AnnotationError("head view label must be 1", frame=start)
        for t in range(start, end):
            row = list(labels[t])
            row[view] = value
            labels[t] = tuple(row)

    if "phases" in obj:
        arms = []
        for arm, spans in enumerate(obj["phases"]):
            parsed = []
            for span in spans:
                try:
                    parsed.append(PhaseSpan(span[0], span[1], Phase(span[2])))
                except (ValueError, ContractError, IndexError) as exc:
                    raise ParseError(f"arm {arm}: invalid phase span: {exc}",
                                     field="phases") from exc
            arms.append(tuple(parsed))
        try:
            timeline = PhaseTimeline(length=length, arms=tuple(arms))
        except ContractError as exc:
            raise AnnotationError(f"invalid phases: {exc}") from exc
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            timeline = build_phase_timeline(interactions, closed)

    frames = []
    for t in range(length):
        try:
            masks = tuple(
                boxes_to_patch_mask(
                    [b for b in boxes_by_frame[t][v]
                     if b.kind is BoxKind.GRIPPER
                     or (b.kind is BoxKind.OBJECT and b.ident in task_objects)],
                    view_geoms[v])
                for v in range(view_count))
        except AnnotationError as exc:
            raise AnnotationError(str(exc), frame=t) from exc
        frames.append(FrameAnnotation(
            masks=masks, inter_labels=labels[t],
            arm_phases=tuple(timeline.phase_at(arm, t) for arm in (0, 1))))
    grids = tuple(v.grid_shape for v in view_geoms) if length else ()
    return EpisodeAnnotation(episode_id=episode_id, roles=roles, grids=grids,
                             frames=tuple(frames))


def _ranges_to_bools(ranges, length: int, field_name: str) -> list[bool]:
    out = [False] * length
    previous_end = -1
    for item in ranges:
        if len(item) != 2:
            raise ParseError(f"{field_name} ranges must be [start, end) pairs",
                             field=field_name)
        start, end = int(item[0]), int(item[1])
        if start < 0 or end > length or start >= end:
            raise AnnotationError(
                f"{field_name} range [{start}, {end}) outside episode of "
                f"length {length}", frame=max(start, 0))
        if start < previous_end:
            raise AnnotationError(
                f"{field_name} ranges must be sorted and disjoint",
                frame=start)
        previous_end = end
        for t in range(start, end):
            out[t] = True
    return out


def export_manual(annotation: EpisodeAnnotation) -> str:
    """Render an episode annotation as a manual record that ingests back
    exactly.

    Masks are encoded as unit boxes on a one-pixel-per-patch image, so the
    geometry is synthetic but the rasterization is the identity; phases are
    written explicitly.
    """
    length = annotation.length
    roles = annotation.roles
    views = [{"image_width": w, "image_height": h, "patch_size": 1,
              "boxes": []} for h, w in annotation.grids]
    placements: list[list[dict]] = [[] for _ in annotation.grids]
    for t, frame in enumerate(annotation.frames):
        for v, mask in enumerate(frame.masks):
            h, w = annotation.grids[v]
            for j in np.flatnonzero(np.asarray(mask)):
                row, col = int(j) // w, int(j) % w
                placements[v].append({
                    "start": t, "end": t + 1,
                    "x0": col, "y0": row, "x1": col + 1, "y1": row + 1,
                    "kind": "object", "ident": 0})
    interactions = []
    for arm in (0, 1):
        wrist = roles.wrist_for_arm(arm)
        flags = [frame.inter_labels[wrist] == 1 for frame in annotation.frames]
        interactions.append([list(span) for span in interaction_intervals(flags)])
    closed = []
    phases = []
    for arm in (0, 1):
        by_frame = [frame.arm_phases[arm] for frame in annotation.frames]
        moving = [p is Phase.MOVING_WITH_OBJECT for p in by_frame]
        closed.append([list(span) for span in interaction_intervals(moving)])
        spans = PhaseTimeline.from_phases([by_frame]).arms[0] if length else ()
        phases.append([[s.start, s.end, s.phase.value] for s in spans])
    record = {
        "fmt": FORMAT_VERSION,
        "kind": "manual_annotation",
        "episode_id": annotation.episode_id,
        "length": length,
        "roles": roles.to_obj(),
        "views": views,
        "boxes": placements,
        "task_objects": [0],
        "interactions": interactions,
        "gripper_closed": closed,
        "phases": phases,
    }
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def load_manual(path) -> EpisodeAnnotation:
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_manual(fh.read())


def save_manual(path, annotation: EpisodeAnnotation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_manual(annotation))
        fh.write("\n")
