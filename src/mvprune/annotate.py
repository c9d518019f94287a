"""Offline two-level annotation: patch masks from boxes, interaction
detection and per-frame arm phases.

Pixel boxes and patches are half-open rectangles, so shapes that only share
an edge do not intersect. A patch is marked relevant exactly when a
task-relevant box overlaps it with positive area. Gripper boxes carry the
arm index as their ``ident``; object boxes carry an object id, and only ids
in the frame's ``task_objects`` count as relevant (distractors stay ignored).

Interaction between an arm and the task objects is detected in the head
camera's view and debounced before it feeds view labels and phase
boundaries: a run of flips shorter than the debounce width never changes the
detected state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    HEAD_VIEW,
    VIEW_COUNT,
    WRIST_VIEWS,
    AnnotationError,
    ContractError,
    EpisodeAnnotation,
    FrameAnnotation,
    ParseError,
    Phase,
    _check_int,
    _episode_records,
    _listed,
    _member,
    _read_only,
    parsing,
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
    object boxes. The record checks nothing; ``from_obj`` checks every field.
    """

    x0: int
    y0: int
    x1: int
    y1: int
    kind: BoxKind
    ident: int = 0

    def overlaps(self, other: "Box") -> bool:
        """True when the rectangles share positive area."""
        return (max(self.x0, other.x0) < min(self.x1, other.x1)
                and max(self.y0, other.y0) < min(self.y1, other.y1))

    def to_obj(self) -> dict:
        return {"x0": self.x0, "y0": self.y0, "x1": self.x1, "y1": self.y1,
                "kind": self.kind.value, "ident": self.ident}

    @classmethod
    def from_obj(cls, obj) -> "Box":
        with parsing("box", "boxes"):
            x0, y0, x1, y1 = (_check_int(obj[name], name, minimum=0)
                              for name in ("x0", "y0", "x1", "y1"))
            if x0 >= x1 or y0 >= y1:
                raise ContractError(f"box must have positive area, got "
                                    f"({x0},{y0})..({x1},{y1})")
            return cls(x0, y0, x1, y1, _member(BoxKind, obj["kind"], "kind"),
                       _check_int(obj.get("ident", 0), "ident", minimum=0))


@dataclass(frozen=True)
class ViewGeometry:
    """Pixel-space description of one camera view for one frame. The record
    checks nothing; ``from_obj`` checks every field."""

    image_width: int
    image_height: int
    patch_size: int
    boxes: tuple[Box, ...] = ()

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
        # a view that is no object fails before any box is read
        with parsing("view geometry", "views"):
            boxes = tuple(Box.from_obj(b) for b in _listed(obj, "boxes", []))
            return cls(*(_check_int(obj[name], name, minimum=1) for name in (
                "image_width", "image_height", "patch_size")), boxes)


@dataclass(frozen=True)
class FrameGeometry:
    """All views of one frame plus per-arm gripper state and the ids of the
    objects the task manipulates. The record checks nothing; ``from_obj``
    checks every field."""

    views: tuple[ViewGeometry, ...]
    gripper_closed: tuple[bool, ...] = (False, False)
    task_objects: frozenset[int] = frozenset()

    @property
    def grids(self) -> tuple[tuple[int, int], ...]:
        """Each view's patch grid ``(rows, cols)``."""
        return tuple(view.grid_shape for view in self.views)

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
        with parsing("frame geometry", "views"):
            views = tuple(ViewGeometry.from_obj(v) for v in obj["views"])
            if len(views) != VIEW_COUNT:
                raise ContractError(f"frame geometry needs one view per "
                                    f"camera, {VIEW_COUNT}, got {len(views)}")
            closed = _listed(obj, "gripper_closed")
            if len(closed) != 2 or any(not isinstance(c, bool)
                                       for c in closed):
                raise ContractError("gripper_closed needs one boolean per "
                                    "arm, two in all", field="gripper_closed")
            return cls(views, closed, frozenset(
                _check_int(i, "task_objects", minimum=0)
                for i in _listed(obj, "task_objects", [])))


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
    return _read_only(mask.reshape(-1))


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
                      view_count: int = VIEW_COUNT
                      ) -> list[tuple[int, ...]]:
    """Per-frame view relevance labels from per-arm interaction timelines.

    The head view is always labeled 1; each wrist view is labeled 1 exactly
    while its arm interacts; any view past the three cameras is labeled 0.
    """
    if len(interactions_by_arm) != 2:
        raise ContractError("need interaction timelines for both arms")
    length = len(interactions_by_arm[0])
    if len(interactions_by_arm[1]) != length:
        raise ContractError("arm timelines must have equal length")
    if view_count < VIEW_COUNT:
        raise ContractError(f"view_count must cover the {VIEW_COUNT} cameras")
    labels = []
    for t in range(length):
        row = [0] * view_count
        row[HEAD_VIEW] = 1
        for arm in (0, 1):
            row[WRIST_VIEWS[arm]] = int(bool(interactions_by_arm[arm][t]))
        labels.append(tuple(row))
    return labels


# ---------------------------------------------------------------------------
# arm phases


def arm_phases(interactions: Sequence[bool], closed: Sequence[bool],
               arm: int) -> list[Phase]:
    """One arm's phase in every frame, from its debounced interactions and
    gripper state.

    Each interaction interval starts a cycle: the arm approaches until the
    interval begins, is starting the operation until its gripper first
    closes inside the interval, moves with the object until the interval
    ends, and then retracts. Between two cycles the retract and the next
    approach split the gap at its midpoint (the retract half rounds down,
    so a one-frame gap has no retract frame). An arm that never interacts
    approaches for the whole episode.

    A gripper closed outside any interaction interval cannot be acting on a
    task object; such frames raise a warning and are otherwise ignored.
    """
    if len(interactions) != len(closed):
        raise ContractError(
            f"arm {arm}: interaction and gripper timelines must align")
    stray = next((t for t, (i, c) in enumerate(zip(interactions, closed))
                  if c and not i), None)
    if stray is not None:
        warnings.warn(f"arm {arm}: gripper closed outside any interaction, "
                      f"first at frame {stray}", stacklevel=2)
    phases = [Phase.APPROACHING] * len(interactions)
    cycles = interaction_intervals(interactions)
    for j, (start, end) in enumerate(cycles):
        close_at = next((t for t in range(start, end) if closed[t]), end)
        stop = ((end + cycles[j + 1][0]) // 2 if j + 1 < len(cycles)
                else len(phases))
        phases[start:close_at] = [Phase.STARTING_OPERATION] * (close_at - start)
        phases[close_at:end] = [Phase.MOVING_WITH_OBJECT] * (end - close_at)
        phases[end:stop] = [Phase.RETRACTING] * (stop - end)
    return phases


# ---------------------------------------------------------------------------
# episode annotation


def annotate_episode(geometry: Sequence[FrameGeometry], episode_id: str, *,
                     debounce_width: int = DEFAULT_DEBOUNCE
                     ) -> EpisodeAnnotation:
    """Produce the full two-level annotation of one episode from geometry.

    Rasterizes per-view patch masks, detects and debounces interactions in
    the head view, and derives view relevance labels and per-arm phases.
    ``geometry`` is taken as ``load_geometry`` checks it: two arms and one
    view per camera in every frame, and the first frame's view grids in
    every frame. Errors name the offending frame. An empty episode yields
    an empty annotation.
    """
    geometry = list(geometry)
    if not geometry:
        return EpisodeAnnotation(episode_id=episode_id, grids=(), frames=())
    view_count = len(geometry[0].views)
    masks_per_frame = []
    raw = [[], []]
    closed = [[], []]
    for t, geom in enumerate(geometry):
        try:
            masks_per_frame.append(tuple(frame_patch_mask(geom, v)
                                         for v in range(view_count)))
            for arm in (0, 1):
                raw[arm].append(detect_interaction(geom, arm, HEAD_VIEW))
                closed[arm].append(geom.gripper_closed[arm])
        except AnnotationError as exc:
            if exc.frame is None:
                raise AnnotationError(str(exc), frame=t) from exc
            raise
    debounced = [debounce(raw[arm], debounce_width) for arm in (0, 1)]
    labels = label_inter_views(debounced, view_count)
    phases = [arm_phases(debounced[arm], closed[arm], arm) for arm in (0, 1)]
    frames = tuple(
        FrameAnnotation(
            masks=masks_per_frame[t],
            inter_labels=labels[t],
            arm_phases=(phases[0][t], phases[1][t]),
        )
        for t in range(len(geometry)))
    return EpisodeAnnotation(episode_id=episode_id,
                             grids=geometry[0].grids, frames=frames)


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
    """The episode id and frames of geometry records, refused unless every
    frame has one view per camera and the first frame's view grids."""
    frames = []
    for obj in _episode_records(objs, "geometry"):
        with parsing(f"geometry frame {len(frames)}", "views"):
            geom = FrameGeometry.from_obj(obj)
            if frames and geom.grids != frames[0].grids:
                raise ContractError(f"view grids {geom.grids} differ from "
                                    f"frame 0's {frames[0].grids}",
                                    field="views")
            frames.append(geom)
    if not frames:
        raise ParseError("no geometry records", field="frames")
    return obj["episode_id"], frames


def save_geometry(path, episode_id: str,
                  geometry: Sequence[FrameGeometry]) -> None:
    write_jsonl(path, geometry_objs(episode_id, geometry))


def load_geometry(path) -> tuple[str, list[FrameGeometry]]:
    return geometry_from_objs(read_jsonl(path))
