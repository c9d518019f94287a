"""Offline annotation: rasterization, interaction detection, arm phases and
geometry records."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_patch_mask
from mvprune.annotate import (
    Box,
    BoxKind,
    FrameGeometry,
    ViewGeometry,
    annotate_episode,
    arm_phases,
    boxes_to_patch_mask,
    debounce,
    detect_interaction,
    frame_patch_mask,
    geometry_from_objs,
    geometry_objs,
    interaction_intervals,
    label_inter_views,
    load_geometry,
    save_geometry,
)
from mvprune.cli import main
from mvprune.core import (
    AnnotationError,
    ContractError,
    ParseError,
    Phase,
)


def gripper(x0, y0, size=8, arm=0):
    return Box(x0, y0, x0 + size, y0 + size, BoxKind.GRIPPER, ident=arm)


def obj(x0, y0, size=8, ident=0):
    return Box(x0, y0, x0 + size, y0 + size, BoxKind.OBJECT, ident=ident)


# ---------------------------------------------------------------------------
# boxes


def test_box_overlap_is_half_open():
    a = Box(0, 0, 10, 10, BoxKind.OBJECT)
    assert a.overlaps(Box(5, 5, 15, 15, BoxKind.OBJECT))
    # sharing only an edge is not an overlap
    assert not a.overlaps(Box(10, 0, 20, 10, BoxKind.OBJECT))
    assert not a.overlaps(Box(0, 10, 10, 20, BoxKind.OBJECT))


def test_box_requires_positive_area():
    for x1, y1 in ((5, 10), (10, 5)):
        obj = {"x0": 5, "y0": 5, "x1": x1, "y1": y1, "kind": "object"}
        with pytest.raises(ParseError, match="positive area"):
            Box.from_obj(obj)


def test_box_round_trip():
    box = Box(1, 2, 3, 4, BoxKind.GRIPPER, ident=1)
    assert Box.from_obj(box.to_obj()) == box


# ---------------------------------------------------------------------------
# rasterization


def test_grid_shape_rounds_up_for_truncated_edges():
    assert ViewGeometry(224, 224, 16).grid_shape == (14, 14)
    assert ViewGeometry(230, 100, 16).grid_shape == (7, 15)
    assert ViewGeometry(1, 1, 16).grid_shape == (1, 1)


def test_patch_mask_small_box_covers_four_patches():
    view = ViewGeometry(224, 224, 16)
    mask = boxes_to_patch_mask([Box(0, 0, 20, 20, BoxKind.OBJECT)], view)
    assert mask.shape == (196,)
    on = {(i // 14, i % 14) for i in np.flatnonzero(mask)}
    assert on == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_patch_mask_edge_aligned_box_stays_inside():
    view = ViewGeometry(64, 64, 16)
    mask = boxes_to_patch_mask([Box(16, 16, 32, 32, BoxKind.OBJECT)], view)
    assert np.flatnonzero(mask).tolist() == [1 * 4 + 1]


def test_patch_mask_rejects_out_of_image_boxes():
    view = ViewGeometry(64, 64, 16)
    with pytest.raises(AnnotationError):
        boxes_to_patch_mask([Box(60, 0, 70, 8, BoxKind.OBJECT)], view)


def test_patch_mask_covers_truncated_edge_patches():
    view = ViewGeometry(20, 20, 16)  # 2x2 grid, right/bottom truncated
    mask = boxes_to_patch_mask([Box(17, 17, 20, 20, BoxKind.OBJECT)], view)
    assert np.flatnonzero(mask).tolist() == [3]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_patch_mask_matches_per_pixel_reference(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(8, 100))
    height = int(rng.integers(8, 100))
    patch = int(rng.integers(1, 20))
    view_boxes = []
    for _ in range(int(rng.integers(0, 4))):
        x0 = int(rng.integers(0, width))
        y0 = int(rng.integers(0, height))
        x1 = int(rng.integers(x0 + 1, width + 1))
        y1 = int(rng.integers(y0 + 1, height + 1))
        view_boxes.append(Box(x0, y0, x1, y1, BoxKind.OBJECT))
    view = ViewGeometry(width, height, patch)
    got = boxes_to_patch_mask(view_boxes, view)
    want = oracle_patch_mask(view_boxes, width, height, patch)
    assert got.tolist() == want


def test_frame_patch_mask_filters_distractors():
    view = ViewGeometry(64, 64, 16, boxes=(
        gripper(0, 0, arm=0), obj(16, 16, ident=0), obj(32, 32, ident=5)))
    geom = FrameGeometry(views=(view,), task_objects=frozenset([0]))
    mask = frame_patch_mask(geom, 0)
    on = set(np.flatnonzero(mask).tolist())
    assert on == {0, 5}  # gripper patch and the task object patch only


# ---------------------------------------------------------------------------
# interaction detection


def test_detect_interaction_requires_overlap_with_task_object():
    touching = ViewGeometry(64, 64, 16, boxes=(
        gripper(0, 0, size=17, arm=0), obj(16, 16, ident=0)))
    apart = ViewGeometry(64, 64, 16, boxes=(
        gripper(0, 0, size=8, arm=0), obj(16, 16, ident=0)))
    yes = FrameGeometry(views=(touching,), task_objects=frozenset([0]))
    no = FrameGeometry(views=(apart,), task_objects=frozenset([0]))
    assert detect_interaction(yes, 0, 0)
    assert not detect_interaction(no, 0, 0)


def test_detect_interaction_ignores_other_arms_and_distractors():
    view = ViewGeometry(64, 64, 16, boxes=(
        gripper(0, 0, size=17, arm=1),  # other arm overlaps
        gripper(40, 40, size=8, arm=0),
        obj(16, 16, ident=0),
        obj(40, 40, size=8, ident=9),  # distractor under arm 0
    ))
    geom = FrameGeometry(views=(view,), task_objects=frozenset([0]))
    assert not detect_interaction(geom, 0, 0)
    assert detect_interaction(geom, 1, 0)


def test_detect_interaction_needs_the_arms_gripper():
    view = ViewGeometry(64, 64, 16, boxes=(obj(16, 16, ident=0),))
    geom = FrameGeometry(views=(view,), task_objects=frozenset([0]))
    with pytest.raises(AnnotationError):
        detect_interaction(geom, 0, 0)


# ---------------------------------------------------------------------------
# debouncing


def test_debounce_absorbs_short_runs():
    t, f = True, False
    assert debounce([f, t, t, f, f, f], 3) == [f] * 6
    assert debounce([t, t, t, f, f, t, f], 3) == [t] * 7
    assert debounce([f, f, t, t, t, f, f, f], 3) == [f, f, t, t, t, f, f, f]


def test_debounce_width_one_is_identity():
    values = [True, False, True, True, False]
    assert debounce(values, 1) == values


def test_debounce_starts_open():
    # a short leading True run cannot establish the closed state
    assert debounce([True, True, False, False, False], 3) == [False] * 5


@given(st.lists(st.booleans(), max_size=40), st.integers(1, 5))
def test_debounce_only_changes_state_after_full_runs(values, width):
    out = debounce(values, width)
    assert len(out) == len(values)
    state = False
    run_value, run_length = None, 0
    for raw, got in zip(values, out):
        if raw == run_value:
            run_length += 1
        else:
            run_value, run_length = raw, 1
        if run_value != state and run_length >= width:
            state = run_value
        # the eventual state of this run is only known at run end, so the
        # output may anticipate it; check against recomputed semantics below
    assert out == debounce(out, width)  # idempotent
    if width == 1:
        assert out == [bool(v) for v in values]


def test_interaction_intervals_half_open():
    assert interaction_intervals([]) == []
    assert interaction_intervals([False, False]) == []
    assert interaction_intervals([True, True, False, True]) == [(0, 2), (3, 4)]
    assert interaction_intervals([False, True]) == [(1, 2)]


# ---------------------------------------------------------------------------
# view labels


def test_label_inter_views_head_always_on():
    labels = label_inter_views([[False, True], [True, False]])
    assert labels == [(1, 0, 1), (1, 1, 0)]


def test_label_inter_views_labels_views_past_the_cameras_0():
    labels = label_inter_views([[True], [False]], 5)
    assert labels == [(1, 1, 0, 0, 0)]


def test_label_inter_views_validates_lengths():
    with pytest.raises(ContractError):
        label_inter_views([[True]])
    with pytest.raises(ContractError):
        label_inter_views([[True], [True, False]])
    with pytest.raises(ContractError):
        label_inter_views([[True], [False]], 2)


# ---------------------------------------------------------------------------
# arm phases

A, S, M, R = (Phase.APPROACHING, Phase.STARTING_OPERATION,
              Phase.MOVING_WITH_OBJECT, Phase.RETRACTING)

# the manipulation cycle; S -> R is a grasp that never closes and A -> M one
# whose gripper closes on the interval's first frame
CYCLE = {(A, S), (A, M), (S, M), (S, R), (M, R), (R, A)}


def test_build_phase_timeline_single_cycle():
    inter = [False] * 3 + [True] * 5 + [False] * 4
    closed = [False] * 5 + [True] * 3 + [False] * 4
    want = [A] * 3 + [S] * 2 + [M] * 3 + [R] * 4
    assert arm_phases(inter, closed, 0) == want


def test_build_phase_timeline_never_closing_still_legal():
    inter = [False, True, True, True, False]
    closed = [False] * 5
    assert arm_phases(inter, closed, 0) == [A, S, S, S, R]
    assert arm_phases(closed, closed, 0) == [A] * 5


def test_build_phase_timeline_splits_gap_between_cycles():
    length = 20
    inter = [3 <= t < 8 or 13 <= t < 17 for t in range(length)]
    closed = [5 <= t < 8 or 14 <= t < 16 for t in range(length)]
    want = (
        [A] * 3 + [S] * 2 + [M] * 3
        + [R] * 2        # gap [8, 13) splits at (8+13)//2 = 10
        + [A] * 3 + [S] * 1 + [M] * 3 + [R] * 3
    )
    assert arm_phases(inter, closed, 0) == want
    # a one-frame gap splits at its own frame: no retract, one approach
    assert arm_phases([False, True, False, True, False],
                      [False, True, False, False, False], 0) == [A, M, A, S, R]


def test_build_phase_timeline_warns_on_stray_closure():
    inter = [False, False, True, True, True, False]
    closed = [True, False, False, True, True, False]
    with pytest.warns(UserWarning, match="outside any interaction"):
        phases = arm_phases(inter, closed, 0)
    assert phases[0] is A


def test_arm_phases_rejects_misaligned_timelines():
    with pytest.raises(ContractError, match="arm 1"):
        arm_phases([True, False], [False], arm=1)
    assert arm_phases([], [], 0) == []


@st.composite
def cycle_timelines(draw):
    """Interactions whose intervals are at least 2 frames apart, as debounce
    width 2 or more guarantees, and a gripper that closes only inside them."""
    inter = [False] * draw(st.integers(0, 4))
    for k in range(draw(st.integers(0, 4))):
        inter += [False] * (draw(st.integers(2, 5)) if k else 0)
        inter += [True] * draw(st.integers(1, 5))
    inter += [False] * draw(st.integers(0, 4))
    grips = draw(st.lists(st.booleans(), min_size=len(inter),
                          max_size=len(inter)))
    return inter, [i and g for i, g in zip(inter, grips)]


@given(cycle_timelines())
def test_arm_phases_follow_the_cycle(timelines):
    inter, closed = timelines
    phases = arm_phases(inter, closed, 0)
    assert {(a, b) for a, b in zip(phases, phases[1:]) if a is not b} <= CYCLE
    assert [p in (S, M) for p in phases] == inter


# ---------------------------------------------------------------------------
# episode annotation


def scripted_geometry(length=14):
    """Arm 0 approaches, grabs the object during [4, 9), then retreats;
    arm 1 never interacts. One 64x64 view with patch size 16."""
    frames = []
    for t in range(length):
        interacting = 4 <= t < 9
        g0 = gripper(17, 17, arm=0) if interacting else gripper(0, 0, arm=0)
        boxes = (g0, gripper(48, 0, arm=1), obj(24, 24, ident=0),
                 obj(48, 48, ident=7))
        view = ViewGeometry(64, 64, 16, boxes=boxes)
        frames.append(FrameGeometry(
            views=(view, view, view),
            gripper_closed=(6 <= t < 9, False),
            task_objects=frozenset([0])))
    return frames


def test_annotate_episode_end_to_end():
    geometry = scripted_geometry()
    ann = annotate_episode(geometry, "ep-test")
    assert ann.length == 14
    assert ann.grids == ((4, 4), (4, 4), (4, 4))
    labels = [f.inter_labels for f in ann.frames]
    assert all(row[0] == 1 for row in labels)
    assert [row[1] for row in labels] == [0] * 4 + [1] * 5 + [0] * 5
    assert [row[2] for row in labels] == [0] * 14
    phases = [f.arm_phases[0] for f in ann.frames]
    assert phases == [Phase.APPROACHING] * 4 \
        + [Phase.STARTING_OPERATION] * 2 + [Phase.MOVING_WITH_OBJECT] * 3 \
        + [Phase.RETRACTING] * 5
    assert all(f.arm_phases[1] is Phase.APPROACHING for f in ann.frames)
    # distractor object 7 never enters the masks
    on = set(np.flatnonzero(ann.frames[0].masks[0]).tolist())
    assert on == {0, 5, 3}  # arm 0 home, task object, arm 1 home


def test_annotate_episode_debounce_suppresses_flicker():
    geometry = scripted_geometry()
    # one-frame touch at t=1 must be absorbed by the default width of 3
    flicker = geometry[4]
    geometry[1] = flicker
    ann = annotate_episode(geometry, "ep-flicker")
    assert ann.frames[1].inter_labels[1] == 0
    raw = annotate_episode(geometry, "ep-raw", debounce_width=1)
    assert raw.frames[1].inter_labels[1] == 1


def test_annotate_episode_one_frame_gap_without_debounce():
    geometry = scripted_geometry()
    # arm 0 lets go of the object for frame 6 only: intervals [4, 6) and
    # [7, 9) are one frame apart, which debounce width 1 keeps
    geometry[6] = geometry[0]
    ann = annotate_episode(geometry, "ep-gap", debounce_width=1)
    assert [f.inter_labels[1] for f in ann.frames] == \
        [0] * 4 + [1] * 2 + [0] + [1] * 2 + [0] * 5
    assert [f.arm_phases[0] for f in ann.frames] == \
        [A] * 4 + [S] * 2 + [A] + [M] * 2 + [R] * 5


def test_annotate_episode_empty():
    ann = annotate_episode([], "ep-empty")
    assert ann.length == 0
    assert ann.grids == ()


def test_annotate_episode_names_frame_of_missing_gripper():
    geometry = scripted_geometry()
    view = ViewGeometry(64, 64, 16, boxes=(gripper(48, 0, arm=1),
                                           obj(24, 24, ident=0)))
    geometry[5] = FrameGeometry(views=(view,) * 3,
                                gripper_closed=(False, False),
                                task_objects=frozenset([0]))
    with pytest.raises(AnnotationError) as err:
        annotate_episode(geometry, "ep")
    assert err.value.frame == 5


def test_annotate_episode_detects_in_the_head_view():
    geometry = scripted_geometry()
    idle = geometry[0].views[0]  # arm 0 at home, touching nothing
    # the head view alone sees arm 0 touch the object during [4, 9)
    head_only = [FrameGeometry(views=(g.views[0], idle, idle),
                               gripper_closed=g.gripper_closed,
                               task_objects=g.task_objects) for g in geometry]
    ann = annotate_episode(head_only, "ep")
    assert [f.inter_labels for f in ann.frames] == \
        [(1, 0, 0)] * 4 + [(1, 1, 0)] * 5 + [(1, 0, 0)] * 5
    # the wrist views alone see it: nothing is detected
    wrist_only = [FrameGeometry(views=(idle, g.views[1], g.views[2]),
                                task_objects=g.task_objects) for g in geometry]
    ann = annotate_episode(wrist_only, "ep")
    assert all(f.inter_labels == (1, 0, 0) for f in ann.frames)


# ---------------------------------------------------------------------------
# geometry records


def test_geometry_file_round_trip(tmp_path):
    geometry = scripted_geometry(6)
    path = tmp_path / "geom.jsonl"
    save_geometry(path, "ep-geo", geometry)
    episode_id, again = load_geometry(path)
    assert episode_id == "ep-geo"
    assert again == geometry


def test_geometry_records_reject_reordered_frames():
    objs = list(geometry_objs("ep", scripted_geometry(3)))
    objs[1], objs[2] = objs[2], objs[1]
    with pytest.raises(ParseError):
        geometry_from_objs(objs)


def test_geometry_records_reject_mixed_episodes():
    objs = list(geometry_objs("a", scripted_geometry(2)))
    other = list(geometry_objs("b", scripted_geometry(2)))
    other[0]["frame_index"] = 2
    with pytest.raises(ParseError):
        geometry_from_objs(objs + other[:1])


# edits of frame 3 of scripted_geometry that annotate_episode cannot take:
# the edit and the field the reader names
OTHER_RIGS = {
    "one_arm": (lambda geom: replace(geom, gripper_closed=(False,)),
                "gripper_closed"),
    "three_arms": (lambda geom: replace(geom, gripper_closed=(False,) * 3),
                   "gripper_closed"),
    "dropped_view": (lambda geom: replace(geom, views=geom.views[:2]),
                     "views"),
    "grid_change": (lambda geom: replace(geom, views=(
        replace(geom.views[0], patch_size=8), *geom.views[1:])), "views"),
}


@pytest.mark.parametrize("rig", sorted(OTHER_RIGS))
def test_load_geometry_refuses_arm_count_and_grid_change(rig, tmp_path,
                                                         capsys):
    edit, field = OTHER_RIGS[rig]
    geometry = scripted_geometry()
    geometry[3] = edit(geometry[3])
    path = tmp_path / "ep.geom.jsonl"
    save_geometry(path, "ep", geometry)
    with pytest.raises(ParseError) as err:
        load_geometry(path)
    assert err.value.field == field
    assert main(["annotate", "--geometry", str(path), "--annotation-out",
                 str(tmp_path / "ep.ann.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert not (tmp_path / "ep.ann.jsonl").exists()
