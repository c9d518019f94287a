"""Scripted synthetic episodes with exact ground-truth annotations.

Episodes play on a fixed 256 x 256 pixel canvas with three views: a head
camera that sees both arms and all objects, and one wrist camera per arm
that sees only that arm's workspace during its manipulation window. Arm
motion is scripted so that, in the head view, an arm's gripper overlaps its
target object during exactly the frames ``[grasp, release)`` of its script:
approach and retreat paths stay strictly above the object band, the carry
segment moves gripper and object rigidly together, and drop zones and
distractors live in bands nothing else enters. That makes the ground truth
exactly reproducible by geometry-driven annotation.

Token embeddings are linearly separable by construction: every token is its
patch's relevance bit times a fixed unit direction plus Gaussian noise, and
every view summary token is the view's relevance label times the same
direction plus noise. All of an episode's randomness flows from one
generator seeded with its scenario's seed, in a fixed draw order, so a
scenario regenerates bit-identically. A corpus's episodes are drawn on up to
one thread per CPU the process may use, each into its own rows of the
corpus's one token buffer, so the bytes do not depend on the thread count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    HEAD_VIEW,
    VIEW_COUNT,
    WRIST_VIEWS,
    ConfigError,
    EpisodeAnnotation,
    FrameAnnotation,
    MultiViewObservation,
    ParseError,
    Phase,
    TokenGrid,
    _check_int,
    _expect_record,
    _read_only,
    load_annotation,
    load_observations,
    loads_obj,
    parsing,
    read_text,
    save_annotation,
    save_observations,
    sidecar_path,
    write_jsonl,
)
from .annotate import (
    DEFAULT_DEBOUNCE,
    Box,
    BoxKind,
    FrameGeometry,
    ViewGeometry,
    load_geometry,
    save_geometry,
)

IMAGE_SIZE = 256
OBJECT_BAND_TOP = 144
OBJECT_SIZE = 32
GRIPPER_SIZE = 24
_HOMES = ((8, 8), (224, 8))
_CARRY_DELTAS = ((0, 48), (32, 48))
_LEFT_SLOT = (56, 96)
_RIGHT_SLOT = (152, 192)
_WRIST_GRIPPER = Box(104, 104, 152, 152, BoxKind.GRIPPER)
_WRIST_OBJECT = Box(96, 160, 160, 224, BoxKind.OBJECT)
_DISTRACTOR_Y = 232
_DISTRACTOR_SLOTS = 6
# frames a wrist view sees its arm's workspace before grasp and after release
WRIST_MARGIN = 2


@dataclass(frozen=True)
class ArmScript:
    """One manipulation cycle of one arm, on object ``a`` for arm ``a``.

    The gripper first overlaps its object at ``grasp``, closes at ``close``,
    and releases (overlap ends) at ``release``; all frame indices, strictly
    increasing. The record checks nothing: ``bench.scenario_template``, the
    one reader of a corpus config, allows only episode lengths whose
    default scripts keep this order and survive debouncing.
    """

    grasp: int
    close: int
    release: int


def _default_objects() -> tuple[Box, Box]:
    return (
        Box(64, OBJECT_BAND_TOP, 64 + OBJECT_SIZE,
            OBJECT_BAND_TOP + OBJECT_SIZE, BoxKind.OBJECT, ident=0),
        Box(160, OBJECT_BAND_TOP, 160 + OBJECT_SIZE,
            OBJECT_BAND_TOP + OBJECT_SIZE, BoxKind.OBJECT, ident=1),
    )


def _default_arms(length: int) -> tuple[ArmScript, ArmScript]:
    """The scripts of a 24 frame episode, grasp, close and release at 4, 8,
    14 for arm 0 and 8, 12, 18 for arm 1, scaled to ``length`` frames."""
    scale = length / 24.0
    arms = []
    for grasp, close, release in ((4, 8, 14), (8, 12, 18)):
        g = max(1, round(grasp * scale))
        c = max(g + 1, round(close * scale))
        r = min(max(c + 1, round(release * scale)), length - DEFAULT_DEBOUNCE)
        arms.append(ArmScript(grasp=g, close=c, release=r))
    return tuple(arms)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines one synthetic episode.

    ``objects`` are the two objects of the scene, one in the left and one
    in the right slot of the object band; the slot ranges guarantee the
    scripted motion never causes an unscripted overlap. ``arms`` maps arm 0
    (left) and arm 1 (right) to their scripts, by default those of a 24
    frame episode scaled to ``episode_length``. The record checks nothing;
    ``bench.scenario_template`` checks every value a config gives.
    """

    episode_id: str = "episode"
    episode_length: int = 24
    arms: tuple[ArmScript, ArmScript] = None
    objects: tuple[Box, Box] = None
    distractors: int = 2
    embed_dim: int = 32
    noise_sigma: float = 0.05
    patch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.arms is None:
            object.__setattr__(self, "arms",
                               _default_arms(self.episode_length))
        if self.objects is None:
            object.__setattr__(self, "objects", _default_objects())

    @property
    def grid_side(self) -> int:
        return IMAGE_SIZE // self.patch_size


@dataclass(frozen=True)
class SynthEpisode:
    """One episode of a corpus, generated or loaded: the seed it regenerates
    from, its observations, pixel geometry and ground-truth annotation, all
    of ``annotation.length`` frames numbered ``0..n-1`` on the annotation's
    view grids."""

    episode_id: str
    seed: int
    observations: tuple[MultiViewObservation, ...]
    geometry: tuple[FrameGeometry, ...]
    annotation: EpisodeAnnotation


def _interp(start: int, stop: int, t: int, t0: int, t1: int) -> int:
    """Integer linear interpolation from ``start`` at ``t0`` to ``stop`` at ``t1``."""
    if t1 <= t0:
        return stop
    return start + ((stop - start) * (t - t0)) // (t1 - t0)


def _gripper_track(script: ArmScript, arm: int, target: Box,
                   length: int) -> list[tuple[int, int, bool]]:
    """Per-frame head-view gripper top-left corner and closed flag."""
    home = _HOMES[arm]
    staging = (target.x0 + 4, target.y0 - 56)
    engaged = (target.x0 - 8, target.y0 - 8)
    delta = _CARRY_DELTAS[arm]
    dropped = (engaged[0] + delta[0], engaged[1] + delta[1])
    retreat = (target.x0 + delta[0] + 4, target.y0 + delta[1] - 56)
    track = []
    for t in range(length):
        closed = script.close <= t < script.release
        if t < script.grasp:
            x = _interp(home[0], staging[0], t, 0, script.grasp - 1)
            y = _interp(home[1], staging[1], t, 0, script.grasp - 1)
        elif t < script.close:
            x, y = engaged
        elif t < script.release:
            x = _interp(engaged[0], dropped[0], t, script.close,
                        script.release - 1)
            y = _interp(engaged[1], dropped[1], t, script.close,
                        script.release - 1)
        else:
            x = _interp(retreat[0], home[0], t, script.release, length - 1)
            y = _interp(retreat[1], home[1], t, script.release, length - 1)
        track.append((x, y, closed))
    return track


def _object_track(script: ArmScript, arm: int, box: Box,
                  length: int) -> list[Box]:
    """Per-frame head-view object box; carried rigidly during the carry."""
    delta = _CARRY_DELTAS[arm]
    track = []
    for t in range(length):
        if t < script.close:
            dx = dy = 0
        elif t < script.release:
            dx = _interp(0, delta[0], t, script.close, script.release - 1)
            dy = _interp(0, delta[1], t, script.close, script.release - 1)
        else:
            dx, dy = delta
        track.append(replace(box, x0=box.x0 + dx, y0=box.y0 + dy,
                             x1=box.x1 + dx, y1=box.y1 + dy))
    return track


def build_geometry(spec: ScenarioSpec,
                   rng: np.random.Generator) -> list[FrameGeometry]:
    """Scripted pixel geometry of every frame.

    The only random element is the horizontal jitter of the distractor
    boxes, drawn once per episode before any other randomness.
    """
    length = spec.episode_length
    distractors = []
    for i in range(spec.distractors):
        jitter = int(rng.integers(-4, 5))
        x0 = 8 + 40 * i + jitter
        distractors.append(Box(x0, _DISTRACTOR_Y, x0 + 16, _DISTRACTOR_Y + 16,
                               BoxKind.OBJECT, ident=100 + i))

    gripper_tracks, object_tracks = [], []
    for arm, (script, target) in enumerate(zip(spec.arms, spec.objects)):
        gripper_tracks.append(_gripper_track(script, arm, target, length))
        object_tracks.append(_object_track(script, arm, target, length))
    task_objects = frozenset(box.ident for box in spec.objects)

    frames = []
    for t in range(length):
        head_boxes = []
        for arm in (0, 1):
            x, y, _ = gripper_tracks[arm][t]
            head_boxes.append(Box(x, y, x + GRIPPER_SIZE, y + GRIPPER_SIZE,
                                  BoxKind.GRIPPER, ident=arm))
        head_boxes.extend(track[t] for track in object_tracks)
        head_boxes.extend(distractors)

        views = [None] * VIEW_COUNT
        views[HEAD_VIEW] = ViewGeometry(
            IMAGE_SIZE, IMAGE_SIZE, spec.patch_size, tuple(head_boxes))
        for arm, (script, target) in enumerate(zip(spec.arms, spec.objects)):
            boxes = ()
            if (script.grasp - WRIST_MARGIN <= t
                    < script.release + WRIST_MARGIN):
                boxes = (replace(_WRIST_GRIPPER, ident=arm),
                         replace(_WRIST_OBJECT, ident=target.ident))
            views[WRIST_VIEWS[arm]] = ViewGeometry(
                IMAGE_SIZE, IMAGE_SIZE, spec.patch_size, boxes)
        closed = tuple(gripper_tracks[arm][t][2] for arm in (0, 1))
        frames.append(FrameGeometry(views=tuple(views), gripper_closed=closed,
                                    task_objects=task_objects))
    return frames


def _reference_mask(view: ViewGeometry, boxes: Sequence[Box],
                    side: int) -> np.ndarray:
    """Ground-truth patch mask by interval overlap, independent of the
    annotation module's rasterizer."""
    p = view.patch_size
    starts = np.arange(side) * p
    ends = np.minimum(starts + p, IMAGE_SIZE)
    mask = np.zeros((side, side), dtype=bool)
    for box in boxes:
        rows = (box.y0 < ends) & (starts < box.y1)
        cols = (box.x0 < ends) & (starts < box.x1)
        mask |= rows[:, None] & cols[None, :]
    return _read_only(mask.reshape(-1).astype(np.uint8))


def ground_truth(spec: ScenarioSpec,
                 geometry: Sequence[FrameGeometry]) -> EpisodeAnnotation:
    """Exact annotation implied by the scripts and geometry.

    Masks come from a rasterizer independent of the annotation module;
    labels and phases come straight from the script windows rather than
    from detection.
    """
    length = spec.episode_length
    side = spec.grid_side
    phases = []
    for script in spec.arms:
        row = []
        for t in range(length):
            if t < script.grasp:
                row.append(Phase.APPROACHING)
            elif t < script.close:
                row.append(Phase.STARTING_OPERATION)
            elif t < script.release:
                row.append(Phase.MOVING_WITH_OBJECT)
            else:
                row.append(Phase.RETRACTING)
        phases.append(row)

    frames = []
    for t in range(length):
        geom = geometry[t]
        masks = []
        for view in geom.views:
            relevant = [b for b in view.boxes
                        if b.kind is BoxKind.GRIPPER
                        or (b.kind is BoxKind.OBJECT
                            and b.ident in geom.task_objects)]
            masks.append(_reference_mask(view, relevant, side))
        labels = [0] * VIEW_COUNT
        labels[HEAD_VIEW] = 1
        for arm, script in enumerate(spec.arms):
            labels[WRIST_VIEWS[arm]] = int(
                script.grasp <= t < script.release)
        frames.append(FrameAnnotation(
            masks=tuple(masks), inter_labels=tuple(labels),
            arm_phases=(phases[0][t], phases[1][t])))
    grids = ((side, side),) * VIEW_COUNT
    return EpisodeAnnotation(episode_id=spec.episode_id, grids=grids,
                             frames=tuple(frames))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _generate(template: ScenarioSpec, count: int,
              specs: Iterable[ScenarioSpec]) -> list[SynthEpisode]:
    """The ``count`` episodes of ``specs``, of ``template``'s sizes, viewing
    one token buffer, a row per token in episode, frame and view order,
    read-only once full; allocated, or refused, before any spec is drawn.
    The specs are taken in order in the calling thread, then each episode is
    drawn into its own rows by ``_draw_all``."""
    per_frame = template.grid_side ** 2 * VIEW_COUNT
    rows = template.episode_length * per_frame
    try:
        buffer = np.empty((count * rows, template.embed_dim))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"corpus too large to allocate: {exc}",
                          field="corpus") from exc
    episodes = _draw_all([(spec, buffer[i * rows:(i + 1) * rows])
                          for i, spec in enumerate(specs)],
                         min(count, _usable_cpus()))
    buffer.flags.writeable = False
    return episodes


def _draw_all(jobs: list[tuple[ScenarioSpec, np.ndarray]],
              threads: int) -> list[SynthEpisode]:
    """The episode of each ``(spec, rows)`` job, drawn by the calling thread
    and ``threads - 1`` workers, each taking the next job from one queue
    until it is empty. Once a job raises, or the calling thread is
    interrupted, no further job starts, and the first exception raised
    reaches the caller unchanged."""
    episodes, errors = [None] * len(jobs), []
    todo, lock, stop = enumerate(jobs), threading.Lock(), threading.Event()

    def drain():
        while not stop.is_set():
            with lock:
                i, job = next(todo, (None, None))
            if job is None:
                return
            try:
                episodes[i] = _draw_episode(*job)
            except BaseException as exc:
                errors.append(exc)
                stop.set()

    # plain threads: concurrent.futures would import logging, about 1 MB
    workers = [threading.Thread(target=drain) for _ in range(threads - 1)]
    try:
        for worker in workers:
            worker.start()
        drain()
    finally:
        stop.set()
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if errors:
        raise errors[0]
    return episodes


def _draw_episode(spec: ScenarioSpec, rows: np.ndarray) -> SynthEpisode:
    """One episode of ``spec`` with its tokens drawn into ``rows``."""
    rng = np.random.default_rng(spec.seed)
    geometry = build_geometry(spec, rng)
    annotation = ground_truth(spec, geometry)
    # + 0.0 makes a -0.0 the 0.0 that numpy's normal takes as a scale
    side, sigma = spec.grid_side, spec.noise_sigma + 0.0
    # every token's relevance direction: the first unit vector
    direction = np.zeros(spec.embed_dim)
    direction[0] = 1.0
    observations, row = [], 0
    for t, frame in enumerate(annotation.frames):
        views = []
        for v, mask in enumerate(frame.masks):
            tokens = rows[row:row + mask.shape[0]]
            # rng.normal(0.0, sigma) bit for bit, -0.0 and sigma 0 included:
            # it computes 0.0 + sigma * z from the same z
            rng.standard_normal(out=tokens)
            tokens *= sigma
            tokens += 0.0
            # np.outer(mask, direction) + noise bit for bit: an unmasked
            # row would add a zero to noise that is never -0.0
            tokens[mask == 1] += direction
            tokens.flags.writeable = False
            cls = direction * float(frame.inter_labels[v]) + rng.normal(
                0.0, sigma, size=spec.embed_dim)
            views.append(TokenGrid(view_id=v, height=side, width=side,
                                   embed_dim=spec.embed_dim,
                                   tokens=tokens, cls=_read_only(cls)))
            row += mask.shape[0]
        observations.append(MultiViewObservation(
            episode_id=spec.episode_id, frame_index=t, views=tuple(views)))
    return SynthEpisode(spec.episode_id, spec.seed, tuple(observations),
                        tuple(geometry), annotation)


# ---------------------------------------------------------------------------
# corpora


def derive_episode_spec(template: ScenarioSpec, index: int,
                        episode_seed: int) -> ScenarioSpec:
    """Specialize the template for one corpus episode.

    All variation derives from ``episode_seed``: script waypoints shift
    rigidly by up to two frames, object slots jitter horizontally, and the
    token noise reseeds. An episode can therefore be regenerated from the
    manifest alone.
    """
    jitter_rng = np.random.default_rng([episode_seed, 1])
    arms = []
    for script in template.arms:
        low = -min(2, script.grasp - 1)
        high = min(2, template.episode_length - DEFAULT_DEBOUNCE
                   - script.release)
        shift = int(jitter_rng.integers(low, high + 1)) if high >= low else 0
        arms.append(replace(script, grasp=script.grasp + shift,
                            close=script.close + shift,
                            release=script.release + shift))
    objects = []
    for box, (lo, hi) in zip(template.objects, (_LEFT_SLOT, _RIGHT_SLOT)):
        nudge = int(jitter_rng.integers(-4, 5))
        x0 = min(max(box.x0 + nudge, lo), hi)
        objects.append(replace(box, x0=x0, x1=x0 + OBJECT_SIZE))
    return replace(template, episode_id=f"ep{index:04d}",
                   arms=tuple(arms), objects=tuple(objects),
                   seed=episode_seed)


def generate_corpus(template: ScenarioSpec, count: int,
                    seed: int) -> list[SynthEpisode]:
    """Generate ``count`` varied episodes from one template, in memory.

    Each episode draws from its own seed: the distractor jitter, then per
    frame and per view the token noise matrix and the summary-token noise.
    """
    _check_int(count, "count", minimum=1)
    master = np.random.default_rng(_check_int(seed, "seed", minimum=0))
    # derived lazily, once their buffer is allocated
    return _generate(template, count, (derive_episode_spec(
        template, i, int(master.integers(0, 2 ** 62))) for i in range(count)))


def write_corpus(episodes: Sequence[SynthEpisode], seed: int, out_dir) -> dict:
    """Write already generated episodes under ``out_dir``; returns the manifest.

    Per episode four files appear (observation headers, their token sidecar,
    annotation, geometry) plus one ``manifest.json`` naming them with their
    seeds. Writing the same episodes again produces byte-identical files.
    """
    out = Path(out_dir)
    entries = []
    for episode in episodes:
        eid = episode.episode_id
        observations = f"{eid}.obs.jsonl"
        paths = {"observations": observations,
                 "tokens": sidecar_path(observations).name,
                 "annotation": f"{eid}.ann.jsonl",
                 "geometry": f"{eid}.geom.jsonl"}
        save_observations(out / paths["observations"], episode.observations)
        save_annotation(out / paths["annotation"], episode.annotation)
        save_geometry(out / paths["geometry"], eid, episode.geometry)
        entries.append({"episode_id": eid, "seed": episode.seed, **paths})
    manifest = {"fmt": FORMAT_VERSION, "kind": "corpus_manifest",
                "seed": seed, "count": len(entries), "episodes": entries}
    write_jsonl(out / "manifest.json", [manifest])
    return manifest


def _read_manifest(path) -> tuple[dict, ...]:
    """The episode entries of a corpus manifest. ``count`` is their number,
    every seed is an integer >= 0, each episode id is listed once, and it
    and each file name is a plain file name: a nonempty string without a
    separator or NUL that is not ``.`` or ``..``."""
    manifest = loads_obj(read_text(path))
    _expect_record(manifest, "corpus_manifest")
    seen = set()
    with parsing("manifest", "episodes"):
        entries = tuple(manifest["episodes"])
        count = _check_int(manifest["count"], "count", minimum=0)
        if count != len(entries):
            raise ParseError(f"manifest count {count} but "
                             f"{len(entries)} episodes", field="count")
        _check_int(manifest["seed"], "seed", minimum=0)
        for entry in entries:
            _check_int(entry["seed"], "seed", minimum=0)
            for field in ("episode_id", "observations", "tokens",
                          "annotation", "geometry"):
                name = entry[field]
                if (not isinstance(name, str) or name in ("", ".", "..")
                        or any(c in name for c in "/\\\0")):
                    raise ParseError(f"manifest names {name!r}, not a plain "
                                     f"file name", field=field)
            if entry["episode_id"] in seen:
                raise ParseError(f"manifest lists episode "
                                 f"{entry['episode_id']!r} twice",
                                 field="episode_id")
            seen.add(entry["episode_id"])
    return entries


def _observation_grids(observations: Sequence[MultiViewObservation]
                       ) -> list[tuple[str, tuple[tuple[int, int], ...]]]:
    """Each observation's episode id and view grids: all of it that
    ``_check_episode`` reads, without its tokens."""
    return [(obs.episode_id,
             tuple((view.height, view.width) for view in obs.views))
            for obs in observations]


def _check_episode(eid: str, frames, annotation: EpisodeAnnotation,
                   geometry_id: str, geometry) -> None:
    """Refuse an episode whose parsed files disagree, given the
    ``_observation_grids`` of its observations as ``frames``: each file must
    name the manifest id ``eid``, all must hold the same number of frames,
    and every observation and the geometry, whose reader holds its view
    grids fixed, must have the annotation's view grids."""
    named = {geometry_id, annotation.episode_id,
             *(episode_id for episode_id, _ in frames)}
    if named != {eid}:
        raise ParseError(f"episode {eid!r}: its files name episodes "
                         f"{', '.join(sorted(map(repr, named)))}",
                         field="episode_id")
    if {annotation.length, len(geometry)} != {len(frames)}:
        raise ParseError(
            f"episode {eid!r}: {len(frames)} observations, but "
            f"{annotation.length} annotation and {len(geometry)} "
            f"geometry frames", field="frames")
    if (geometry[0].grids != annotation.grids
            or any(grids != annotation.grids for _, grids in frames)):
        raise ParseError(
            f"episode {eid!r}: view grids differ from the "
            f"annotation's {annotation.grids}", field="grids")


def load_corpus(corpus_dir) -> list[SynthEpisode]:
    """Read a corpus back: one episode per manifest entry, whose files
    ``_check_episode`` found in agreement with each other."""
    root = Path(corpus_dir)
    episodes = []
    for entry in _read_manifest(root / "manifest.json"):
        eid = entry["episode_id"]
        with parsing(f"episode {eid!r}", "episode_id"):
            observations = load_observations(root / entry["observations"],
                                             root / entry["tokens"])
            annotation = load_annotation(root / entry["annotation"])
            geometry_id, geometry = load_geometry(root / entry["geometry"])
            _check_episode(eid, _observation_grids(observations),
                           annotation, geometry_id, geometry)
            episodes.append(SynthEpisode(eid, entry["seed"],
                                         tuple(observations),
                                         tuple(geometry), annotation))
    return episodes
