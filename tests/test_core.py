"""Data-model validation and serialization round trips."""

import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvprune.core import (
    AnnotationError,
    ConfigError,
    ContractError,
    EpisodeAnnotation,
    FrameAnnotation,
    MultiViewObservation,
    ParseError,
    Phase,
    PruneConfig,
    PruneResult,
    Strategy,
    TokenGrid,
    _as_float_array,
    _episode_records,
    _member,
    dumps_obj,
    load_annotation,
    load_observations,
    loads_obj,
    parsing,
    read_jsonl,
    read_text,
    save_annotation,
    save_observations,
    sidecar_path,
    write_jsonl,
)
from mvprune.synth import ScenarioSpec, generate_corpus

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def make_grid(view_id=0, height=2, width=3, embed_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    n = height * width
    return TokenGrid(view_id=view_id, height=height, width=width,
                     embed_dim=embed_dim, tokens=rng.normal(size=(n, embed_dim)),
                     cls=rng.normal(size=embed_dim))


def make_obs(episode_id="ep", frame_index=0, view_count=3, seed=0):
    views = tuple(make_grid(view_id=i, seed=seed + i) for i in range(view_count))
    return MultiViewObservation(episode_id=episode_id, frame_index=frame_index,
                                views=views)


# ---------------------------------------------------------------------------
# token grids and observations


def write_one_frame(tmp_path, tokens, cls, view_ids=(0,), embed_dims=None):
    """An observation file of one frame whose views, one per ``view_ids``
    entry, each read a 2x2 grid of width ``embed_dims`` (by default
    ``len(cls)`` for each), and whose sidecar holds ``tokens`` then ``cls``
    once per view."""
    path = tmp_path / "ep.obs.jsonl"
    dims = embed_dims or (len(cls),) * len(view_ids)
    write_jsonl(path, [{
        "fmt": 2, "kind": "observation", "episode_id": "ep",
        "frame_index": 0,
        "views": [{"view_id": v, "height": 2, "width": 2, "embed_dim": d}
                  for v, d in zip(view_ids, dims)]}])
    np.save(sidecar_path(path), np.concatenate(
        [np.zeros(0)] + [np.ravel(a) for _ in view_ids for a in (tokens, cls)]))
    return path


def test_load_observations_rejects_shape_mismatch(tmp_path):
    path = write_one_frame(tmp_path, np.zeros((3, 4)), np.zeros(4))
    with pytest.raises(ParseError):
        load_observations(path)


def test_load_observations_rejects_non_finite(tmp_path):
    tokens = np.zeros((4, 2))
    tokens[1, 0] = np.nan
    path = write_one_frame(tmp_path, tokens, np.zeros(2))
    with pytest.raises(ParseError, match="token sidecar ep.obs.npy holds"):
        load_observations(path)


def test_token_grid_arrays_are_read_only(tmp_path):
    # as the two places that make grids leave them: a loaded sidecar and a
    # generated corpus
    path = tmp_path / "ep.obs.jsonl"
    save_observations(path, [make_obs()])
    loaded = load_observations(path)[0].views[0]
    drawn = generate_corpus(ScenarioSpec(episode_length=12), 1, 0)[0]
    for grid in (loaded, drawn.observations[0].views[0]):
        for array in (grid.tokens, grid.cls):
            with pytest.raises(ValueError):
                array[0] = 1.0


def read_only(array):
    array.flags.writeable = False
    return array


def test_token_grid_shares_a_read_only_float64_input():
    tokens = read_only(np.arange(24.0).reshape(6, 4))
    cls = read_only(np.ones(4))
    grid = TokenGrid(view_id=0, height=2, width=3, embed_dim=4,
                     tokens=tokens, cls=cls)
    assert np.shares_memory(grid.tokens, tokens)
    assert np.shares_memory(grid.cls, cls)


@pytest.mark.parametrize("tokens", [
    np.zeros((3, 4)), np.zeros((5, 4)), np.full((4, 4), np.nan),
    np.full((4, 4), -np.inf)])
def test_load_observations_refuses_bad_tokens(tmp_path, tokens):
    path = write_one_frame(tmp_path, tokens, np.zeros(4))
    with pytest.raises(ParseError):
        load_observations(path)


def test_load_observations_requires_ordered_view_ids(tmp_path):
    path = write_one_frame(tmp_path, np.zeros((4, 4)), np.zeros(4),
                          view_ids=(0, 2))
    with pytest.raises(ParseError, match="in order"):
        load_observations(path)


def test_load_observations_requires_shared_embed_dim(tmp_path):
    # 4 * 4 + 4 values per view: view 1 reads a 2x2 grid of width 8 as
    # 2 * 2 * 8 + 8 values, which would leave the sidecar 20 short
    path = write_one_frame(tmp_path, np.zeros((4, 4)), np.zeros(4),
                          view_ids=(0, 1, 2), embed_dims=(4, 8, 4))
    with pytest.raises(ParseError, match="one embed_dim"):
        load_observations(path)


def test_load_observations_requires_a_view(tmp_path):
    path = write_one_frame(tmp_path, np.zeros(0), np.zeros(0), view_ids=())
    with pytest.raises(ParseError, match="at least one view"):
        load_observations(path)


def test_observation_counts():
    obs = make_obs(view_count=3)
    assert obs.view_count == 3
    assert obs.embed_dim == 4
    assert obs.total_tokens == 18


@given(finite)
def test_float_text_round_trip_is_exact(value):
    text = dumps_obj({"fmt": 1, "kind": "x", "v": value})
    back = loads_obj(text)["v"]
    assert np.float64(back) == np.float64(value) or (value != value)


# ---------------------------------------------------------------------------
# scores and configs


def test_prune_config_defaults():
    config = PruneConfig()
    assert config.alphas == (0.3, 0.2, 0.2)
    assert config.beta == 0.5
    assert config.epsilon == 0.01
    assert config.strategy is Strategy.HIERARCHICAL


@pytest.mark.parametrize("kwargs", [
    {"alphas": [1.0, 0.2, 0.2]},
    {"alphas": [-0.1, 0.2, 0.2]},
    {"alphas": []},
    {"beta": 1.0},
    {"epsilon": 0.0},
    {"adaptive_threshold": float("nan")},
    {"adaptive_multiplier": -1.0},
])
def test_prune_config_rejects_bad_values(kwargs):
    obj = formats_example("prune_config")
    obj.update(kwargs)
    with pytest.raises(ParseError) as err:
        PruneConfig.from_obj(obj)
    assert isinstance(err.value.__cause__, ConfigError)
    assert err.value.field == next(iter(kwargs))


def formats_example(kind):
    """The example record FORMATS.md gives for ``kind``."""
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text(
        encoding="utf-8")
    block, = (block for block in re.findall(r"```json\n(.*?)```", text, re.S)
              if f'"kind": "{kind}"' in block)
    return json.loads(block)


def test_prune_config_round_trip():
    obj = formats_example("prune_config")
    assert PruneConfig.from_obj(obj) == PruneConfig()
    obj.update(alphas=[0.1, 0.0], beta=0.25, epsilon=0.5,
               strategy="adaptive_ratio_drop", adaptive_threshold=0.25,
               adaptive_multiplier=2.0, seed=9)
    assert PruneConfig.from_obj(obj) == PruneConfig(
        alphas=(0.1, 0.0), beta=0.25, epsilon=0.5,
        strategy=Strategy.ADAPTIVE_RATIO_DROP, adaptive_threshold=0.25,
        adaptive_multiplier=2.0, seed=9)


@pytest.mark.parametrize("key, value", [
    ("alphas", [1.5, 0.2, 0.2]), ("alphas", []), ("beta", 1.5),
    ("epsilon", 0.0), ("beta", "x"), ("alphas", 5), ("alphas", ["a"]),
    ("epsilon", "e"), ("epsilon", True), ("adaptive_threshold", "t"),
    ("adaptive_multiplier", None),
    *(pytest.param(key, 10 ** 400, id=f"{key}-10**400")
      for key in ("beta", "epsilon", "adaptive_multiplier"))])
def test_prune_config_from_obj_names_refused_key(key, value):
    obj = formats_example("prune_config")
    obj[key] = value
    with pytest.raises(ParseError) as err:
        PruneConfig.from_obj(obj)
    assert err.value.field == key


# a string or an object is iterable, but no JSON list
@pytest.mark.parametrize("value", ["", "0.5", {}, {"0.5": 1}], ids=repr)
def test_prune_config_refuses_alphas_that_are_no_list(value):
    obj = formats_example("prune_config")
    obj["alphas"] = value
    with pytest.raises(ParseError, match="alphas must be a list") as err:
        PruneConfig.from_obj(obj)
    assert err.value.field == "alphas"


# ---------------------------------------------------------------------------
# float arrays


def test_float_array_check_peaks_far_below_an_entrywise_scan():
    # an entrywise finiteness scan of 4M entries would allocate a 4 MB mask
    values = np.random.default_rng(0).random(4_000_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        checked = _as_float_array(values, "values", copy=False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.shares_memory(checked, values)
    assert peak < 100_000


@pytest.mark.parametrize("values", [
    [1e308, 1e308], [-1e308, -1e308], [1e308, 1e308, -1e308],
    [[1e308, -1e308], [-1e308, -1e308]], [sys.float_info.max] * 5],
    ids=repr)
def test_float_array_accepts_finite_entries_whose_sum_overflows(values):
    # pytest turns an overflow or invalid-value RuntimeWarning into an error
    assert np.array_equal(_as_float_array(values, "values"), values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 3, -1])
def test_float_array_refuses_a_value_that_is_not_finite_anywhere(bad, at):
    values = np.ones(7)
    values[at] = bad
    with pytest.raises(ContractError, match="^values must be finite$"):
        _as_float_array(values, "values")
    with pytest.raises(ContractError, match="^values must be finite$"):
        _as_float_array(values.reshape(1, 7), "values", copy=False)


@pytest.mark.parametrize("values", [
    [np.inf, -np.inf], [1e308, 1e308, np.nan], [-1e308, -1e308, np.inf]],
    ids=repr)
def test_float_array_refuses_non_finite_entries_whatever_their_sum(values):
    with pytest.raises(ContractError, match="^values must be finite$"):
        _as_float_array(values, "values")


def test_float_array_takes_bools_from_python_callers():
    assert _as_float_array([True, 0.5], "values").tolist() == [1.0, 0.5]


# ---------------------------------------------------------------------------
# prune results


def good_result():
    return PruneResult(
        view_token_counts=(4, 4),
        kept=((1, 3), (0,)),
        fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
        local_pruned_counts=(1, 1),
        global_pruned_count=3,
        ranking=((0, 3), (1, 0), (0, 1)),
    )


def test_prune_result_counts():
    result = good_result()
    assert result.kept_total == 3
    assert result.kept_per_view == (2, 1)
    assert result.post_local_counts == (3, 3)


def refused_record(result, **changes):
    """The ``ParseError`` that ``from_obj`` raises for ``result``'s record
    with some fields replaced."""
    with pytest.raises(ParseError) as err:
        PruneResult.from_obj({**result.to_obj(), **changes})
    return err.value


def test_prune_result_rejects_count_mismatch():
    err = refused_record(good_result(), global_pruned_count=2)
    assert "kept count must equal post-local survivors" in str(err)


def test_prune_result_rejects_unsorted_kept():
    err = refused_record(good_result(), view_token_counts=[4],
                         kept=[[3, 1]], fused_scores=[[0.5, 0.9]],
                         local_pruned_counts=[1], global_pruned_count=1,
                         ranking=[[0, 3], [0, 1]])
    assert "strictly increasing" in str(err)


def test_prune_result_rejects_bad_ranking():
    err = refused_record(good_result(),
                         ranking=[[0, 3], [0, 3], [0, 1]])
    assert "ranking must enumerate exactly the kept tokens" in str(err)


@pytest.mark.parametrize("ranking", [
    ((0, 3), (0, 3), (0, 1)),
    ((0, 3), (1, 0), (0, 1), (0, 1)),
    ((0, 3), (-1, 0), (0, 1)),
    ((0, 3), (2, 0), (0, 1)),
    ((0, 3), (1, 2), (0, 1)),
    ((0, 3), (1, 0), (1, 1)),
    ((0, 3), (1, 0)),
    ((0, 3), (1, 0), (0, 1), (1, 2)),
    (),
], ids=["duplicate", "duplicate_added", "view_negative", "view_past_end",
        "index_not_kept", "index_in_wrong_view", "missing", "extra", "empty"])
@pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "array"])
def test_prune_result_refuses_ranking_of_other_tokens(ranking, as_array):
    if as_array:
        ranking = np.array(ranking, dtype=np.int64).reshape(-1, 2)
    err = refused_record(good_result(), ranking=ranking)
    assert "ranking must enumerate exactly the kept tokens" in str(err)


def test_prune_result_refuses_ranking_against_its_fused_scores():
    # the best (0, 3) last and the worst (0, 1) first
    err = refused_record(good_result(), ranking=[[0, 1], [1, 0], [0, 3]])
    assert "ranking must follow falling fused scores" in str(err)
    assert err.field == "ranking"


def test_prune_result_refuses_a_fused_score_out_of_its_rank():
    # (1, 0), ranked second, outscores (0, 3), ranked first
    err = refused_record(good_result(), fused_scores=[[0.5, 0.9], [1e300]])
    assert "ranking must follow falling fused scores" in str(err)


@pytest.mark.parametrize("ranking, accepted", [
    ([[1, 0], [0, 3], [0, 1]], True),
    ([[0, 3], [1, 0], [0, 1]], False),
    ([[1, 0], [0, 1], [0, 3]], False),
], ids=["higher_view_first", "lower_view_first", "lower_index_first"])
def test_prune_result_ranks_equal_fused_scores_by_falling_position(
        ranking, accepted):
    # as the global stage ranks: of equal scores the lower (view, index)
    # pair is pruned first, so it is ranked last
    obj = {**good_result().to_obj(), "fused_scores": [[0.5, 0.5], [0.5]],
           "ranking": ranking}
    if accepted:
        assert PruneResult.from_obj(obj).ranking == tuple(map(tuple, ranking))
    else:
        assert "ranking must follow" in str(refused_record(good_result(),
                                                           **obj))


def test_prune_result_ties_negative_and_positive_zero():
    obj = {**good_result().to_obj(), "fused_scores": [[0.0, -0.0], [0.0]],
           "ranking": [[1, 0], [0, 3], [0, 1]]}
    assert PruneResult.from_obj(obj).kept == ((1, 3), (0,))


@pytest.mark.parametrize("fused", [
    [[0.5, True], [0.7]], [[0.5, 0.9], [False]], [True, [0.7]]], ids=repr)
def test_prune_result_refuses_bool_fused_scores(fused):
    err = refused_record(good_result(), fused_scores=fused)
    assert err.field == "fused_scores"
    assert "fused_scores must hold numbers, got bool" in str(err)


def test_prune_result_accepts_empty_views():
    obj = {**good_result().to_obj(), "view_token_counts": [2, 0],
           "kept": [[], []], "fused_scores": [[], []],
           "local_pruned_counts": [0, 0], "global_pruned_count": 2,
           "ranking": []}
    result = PruneResult.from_obj(obj)
    assert result.kept == ((), ())
    assert result.ranking == ()
    assert result.to_obj() == obj


@pytest.mark.parametrize("kept", [
    [[1.0, 3.0], [0]],
    [[True, True], [0]],
    [[1, 3], [{}]],
    [[1, 3], [[0]]],
])
def test_prune_result_rejects_non_integer_index_arrays(kept):
    err = refused_record(good_result(), kept=kept)
    assert err.field == "kept"


def test_prune_result_round_trip():
    result = good_result()
    assert PruneResult.from_obj(result.to_obj()) == result


@pytest.mark.parametrize("field, value", [
    ("kept", 5),
    ("kept", [5, [0]]),
    ("ranking", [[0, 3, 1], [1, 0], [0, 1]]),
    ("view_token_counts", 4),
    ("fused_scores", [["a", "b"], [0.7]]),
    # each of these once passed as kept ((1, 3), (0,)) through int()
    ("kept", [[1.5, 3.9], [0]]),
    ("kept", [[1.0, 3.0], [0]]),
    ("kept", [["1", "3"], [0]]),
    ("kept", [[True, 3], [0]]),
    ("kept", [[1, 3], [False]]),
    ("kept", [[1, 3], [None]]),
    ("kept", [[1, 3], [[0]]]),
    ("kept", [[1, 3], [2**63]]),
    ("kept", [[1, 3], [2**64]]),
    ("ranking", [[0, 3.0], [1, 0], [0, 1]]),
    ("ranking", [[0, 3], [True, 0], [0, 1]]),
    ("ranking", [[0, "3"], [1, 0], [0, 1]]),
    ("ranking", [[0, 3], [1], [0, 1]]),
    ("ranking", [[0, 3], [1, 0], [0, 1], [0, 2**64]]),
    ("ranking", [[0, 3], [1, 0], 5]),
    ("fused_scores", [[0.5, 10**400], [0.7]]),
])
def test_prune_result_from_obj_reports_malformed_fields(field, value):
    obj = good_result().to_obj()
    obj[field] = value
    with pytest.raises(ParseError):
        PruneResult.from_obj(obj)


# ---------------------------------------------------------------------------
# annotations


def make_annotation(length=3):
    grids = ((2, 2), (2, 2), (2, 2))
    frames = []
    for t in range(length):
        masks = tuple(np.zeros(4, dtype=np.uint8) for _ in range(3))
        masks[0][1] = 1
        frames.append(FrameAnnotation(
            masks=masks, inter_labels=(1, t % 2, 0),
            arm_phases=(Phase.APPROACHING, Phase.RETRACTING)))
    return EpisodeAnnotation(episode_id="ep", grids=grids,
                             frames=tuple(frames))


def refused_annotation(view0=None, **changes):
    """The ``ParseError`` that ``from_frame_objs`` raises for the second
    record of ``make_annotation()`` with its view 0 mask set to ``view0`` and
    its grids sized for it, and other fields replaced."""
    objs = list(make_annotation().frame_objs())
    for obj in objs:
        if view0 is not None:
            obj["grids"][0] = [1, len(view0)]
            obj["masks"][0] = [1] * len(view0)
    objs[1].update(changes)
    if view0 is not None:
        objs[1]["masks"][0] = view0
    with pytest.raises(ParseError) as err:
        EpisodeAnnotation.from_frame_objs(objs)
    return err.value


def test_annotation_reader_rejects_non_binary_mask():
    err = refused_annotation([2, 2, 2, 2])
    assert err.field == "masks"


# entries the uint8 copy of a mask changes (256, -1) or keeps above 1 (2)
@pytest.mark.parametrize("mask", [[0, 2], [0, 256], [1, -1], [256, 1]],
                         ids=repr)
def test_annotation_reader_refuses_entries_other_than_0_and_1(mask):
    assert "0 or 1" in str(refused_annotation(mask))


# JSON's true, 1.0 and -0.0 equal 1 or 0, and the uint8 copy would truncate
# 0.5 and 1.0000001; a mask holds integers only
@pytest.mark.parametrize("mask", [
    [True, False], [1, True], [0.0, -0.0, 1.0], [-0.0, 1], [0.5, 1.0],
    [1.0000001, 0.0]], ids=repr)
def test_annotation_reader_refuses_bool_and_float_mask_entries(mask):
    assert refused_annotation(mask).field == "masks"


@pytest.mark.parametrize("mask", [[1, 0], [0, 0, 1]], ids=repr)
def test_annotation_reader_reads_integer_masks_as_uint8(mask):
    objs = list(make_annotation().frame_objs())
    for obj in objs:
        obj["grids"][0] = [1, len(mask)]
        obj["masks"][0] = mask
    ann = EpisodeAnnotation.from_frame_objs(objs)
    for frame in ann.frames:
        assert frame.masks[0].dtype == np.uint8
        assert not frame.masks[0].flags.writeable
        assert frame.masks[0].tolist() == [int(x) for x in mask]


def test_annotation_reader_rejects_square_mask():
    err = refused_annotation(masks=[[[0, 0], [0, 0]], [0] * 4, [0] * 4])
    assert "flat" in str(err)


def test_annotation_reader_counts_masks_before_converting_them():
    # a {} mask cannot be converted, so only the count check passes
    err = refused_annotation(masks=[{}] * 100_000)
    assert "one entry per view" in str(err)


def test_annotation_reader_requires_head_always_on():
    err = refused_annotation(inter_labels=[0, 0, 0])
    assert isinstance(err.__cause__, AnnotationError)
    assert err.__cause__.frame == 1


def test_annotation_reader_checks_mask_shapes():
    err = refused_annotation(masks=[[0] * 9, [0] * 4, [0] * 4])
    assert isinstance(err.__cause__, AnnotationError)
    assert err.__cause__.frame == 1


def test_annotation_reader_requires_grids_of_the_three_cameras():
    objs = list(make_annotation().frame_objs())
    for obj in objs:
        del obj["grids"][2], obj["masks"][2], obj["inter_labels"][2]
    with pytest.raises(ParseError, match="cover the 3 cameras"):
        EpisodeAnnotation.from_frame_objs(objs)


@pytest.mark.parametrize("episode_id", ["", 5, None, ["ep"]], ids=repr)
@pytest.mark.parametrize("kind", ["observation", "annotation", "geometry",
                                  "prune"])
def test_episode_records_need_an_episode_id(kind, episode_id):
    objs = [{"fmt": 2, "kind": kind, "episode_id": episode_id,
             "frame_index": 0}]
    with pytest.raises(ParseError) as err:
        list(_episode_records(objs, kind))
    assert err.value.field == "episode_id"


def test_empty_episode_annotation_allowed():
    ann = EpisodeAnnotation(episode_id="ep", grids=(), frames=())
    assert ann.length == 0


def test_annotation_round_trips():
    ann = make_annotation()
    assert EpisodeAnnotation.from_frame_objs(ann.frame_objs()) == ann


# roles with the wrists swapped, an index as a float or a bool (both equal
# 1), an extra key, and no object; grids that are no pairs, hold a float or
# a bool that equals the other frames' side, or differ from the other
# frames'; in the first record or a later one
OTHER_ROLES_OR_GRIDS = [("roles", value) for value in (
    {"head": 0, "left_wrist": 2, "right_wrist": 1},
    {"head": 0, "left_wrist": 1.0, "right_wrist": 2},
    {"head": 0, "left_wrist": True, "right_wrist": 2},
    {"head": 0, "left_wrist": 1, "right_wrist": 2, "extra": 3},
    [0, 1, 2])] + [("grids", value) for value in (
        "anything", [[2.0, 2], [2, 2], [2, 2]], [[2, 2], [2, 2], [True, 4]],
        [[2, 2], [2, 2], [4, 1]])]


@pytest.mark.parametrize(
    "field, value", OTHER_ROLES_OR_GRIDS,
    ids=[repr(value) if field == "roles" else f"grids={value!r}"
         for field, value in OTHER_ROLES_OR_GRIDS])
@pytest.mark.parametrize("frame", [0, 2])
def test_annotation_refuses_any_other_camera_roles(field, value, frame):
    objs = list(make_annotation().frame_objs())
    objs[frame][field] = value
    with pytest.raises(ParseError) as err:
        EpisodeAnnotation.from_frame_objs(objs)
    assert err.value.field == field


# ---------------------------------------------------------------------------
# parse errors and files


def test_parsing_passes_parse_error_through():
    inner = ParseError("bad box", field="x0")
    with pytest.raises(ParseError) as err:
        with parsing("view geometry", "views"):
            raise inner
    assert err.value is inner


@pytest.mark.parametrize("exc, message, field", [
    (KeyError("height"), "missing thing field", "height"),
    (ContractError("bad", field="width"), "invalid thing: bad", "width"),
    (ContractError("bad"), "invalid thing: bad", "fallback"),
    (ConfigError("bad"), "invalid thing: bad", "fallback"),
    (AnnotationError("bad", frame=2), "invalid thing: frame 2: bad",
     "fallback"),
    (TypeError("bad"), "invalid thing: bad", "fallback"),
    (ValueError("bad"), "invalid thing: bad", "fallback"),
    (AttributeError("bad"), "invalid thing: bad", "fallback"),
    (OverflowError("bad"), "invalid thing: bad", "fallback"),
], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
def test_parsing_maps_to_parse_error(exc, message, field):
    with pytest.raises(ParseError) as err:
        with parsing("thing", "fallback"):
            raise exc
    assert str(err.value) == f"{message} (field {field!r})"
    assert err.value.field == field
    assert err.value.__cause__ is exc


@pytest.mark.parametrize("exc", [IndexError("i"), OSError("o"),
                                 MemoryError("m")], ids=repr)
def test_parsing_leaves_other_errors_alone(exc):
    with pytest.raises(type(exc)) as err:
        with parsing("thing", "fallback"):
            raise exc
    assert err.value is exc


def test_member_names_its_field():
    assert _member(Phase, "retracting", "arm_phases") is Phase.RETRACTING
    # an unhashable value is refused like any other non-member
    for value in ("nope", [], None):
        with pytest.raises(ContractError) as err:
            _member(Strategy, value, "strategy")
        assert err.value.field == "strategy"


def test_loads_obj_reports_offset():
    with pytest.raises(ParseError) as err:
        loads_obj('{"fmt": 1, "kind": }')
    assert err.value.offset is not None


@pytest.mark.parametrize("text", [
    '{"fmt": ' + "1" * 5000 + "}",
    '{"fmt": ' + "[" * 5000 + "]" * 5000 + "}",
], ids=["integer_too_long", "nested_too_deep"])
def test_loads_obj_refuses_what_json_cannot_decode(text):
    with pytest.raises(ParseError, match="^invalid JSON: "):
        loads_obj(text)


def test_deserialize_rejects_wrong_fmt():
    obj = good_result().to_obj()
    obj["fmt"] = 99
    with pytest.raises(ParseError) as err:
        PruneResult.from_obj(obj)
    assert err.value.field == "fmt"


def test_from_obj_names_missing_field():
    obj = good_result().to_obj()
    del obj["kept"]
    with pytest.raises(ParseError) as err:
        PruneResult.from_obj(obj)
    assert err.value.field == "kept"


def test_read_jsonl_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"fmt": 1, "kind": "x"}\nnot json\n')
    with pytest.raises(ParseError) as err:
        list(read_jsonl(path))
    assert "line 2" in str(err.value)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "objs.jsonl"
    objs = [{"fmt": 1, "kind": "x", "i": i, "v": i / 3} for i in range(4)]
    write_jsonl(path, objs)
    assert list(read_jsonl(path)) == objs


def test_read_text_ends_lines_only_at_newline_and_carriage_return(tmp_path):
    path = tmp_path / "ends.jsonl"
    # raw U+2028 and U+0085 inside JSON strings stay in their record
    objs = [{"s": "a\u2028b"}, {"s": "c\u0085d"}, {"s": "e"}, {"s": "f"}]
    lines = [json.dumps(obj, ensure_ascii=False) for obj in objs]
    path.write_bytes((lines[0] + "\r\n" + lines[1] + "\r" + lines[2] + "\n"
                      + lines[3]).encode("utf-8"))
    assert read_text(path) == "\n".join(lines)
    assert list(read_jsonl(path)) == objs


def test_read_text_names_the_absolute_offset_of_a_bad_byte(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
    with pytest.raises(ParseError) as err:
        list(read_jsonl(path))
    assert err.value.offset == 16
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


def test_read_jsonl_peaks_below_three_times_the_file_size(tmp_path):
    path = tmp_path / "big.jsonl"
    write_jsonl(path, ({"fmt": 1, "kind": "x", "i": i, "v": [i / 7] * 40}
                       for i in range(200)))
    size = path.stat().st_size
    assert size >= 100_000
    tracemalloc.start()
    try:
        for _ in read_jsonl(path):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_observation_file_round_trip(tmp_path):
    path = tmp_path / "obs.jsonl"
    observations = [make_obs(frame_index=t, seed=t) for t in range(3)]
    save_observations(path, observations)
    assert sidecar_path(path) == tmp_path / "obs.npy"
    loaded = load_observations(path)
    assert loaded == observations
    # every grid holds read-only views of the one read-only sidecar array
    arrays = [array for obs in loaded for view in obs.views
              for array in (view.tokens, view.cls)]
    assert not any(array.flags.writeable for array in arrays)
    assert all(array.base is arrays[0].base is not None for array in arrays)
    assert not arrays[0].base.flags.writeable


# values whose bits decimal text or a lossy store would most likely change
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
    sys.float_info.max, -sys.float_info.max, sys.float_info.min])


@st.composite
def observation_streams(draw):
    """Frames of views with distinct grid shapes and edge-case values."""
    embed_dim = draw(st.integers(1, 3))
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=2, max_size=3, unique=True))
    values = st.one_of(edge_floats, finite)
    frames = []
    for t in range(draw(st.integers(1, 3))):
        views = []
        for v, (h, w) in enumerate(shapes):
            tokens = draw(st.lists(values, min_size=h * w * embed_dim,
                                   max_size=h * w * embed_dim))
            cls = draw(st.lists(values, min_size=embed_dim,
                                max_size=embed_dim))
            views.append(TokenGrid(
                view_id=v, height=h, width=w, embed_dim=embed_dim,
                tokens=np.reshape(tokens, (h * w, embed_dim)),
                cls=np.array(cls)))
        frames.append(MultiViewObservation(episode_id="ep", frame_index=t,
                                           views=tuple(views)))
    return frames


@settings(max_examples=60, deadline=None)
@given(observation_streams())
def test_observation_file_round_trip_is_bit_exact(observations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ep.obs.jsonl"
        save_observations(path, observations)
        loaded = load_observations(path)
    assert loaded == observations
    for again, obs in zip(loaded, observations):
        for a, b in zip(again.views, obs.views):
            assert (a.height, a.width) == (b.height, b.width)
            # bytes, not ==: 0.0 == -0.0 would hide a lost sign bit
            assert a.tokens.tobytes() == b.tokens.tobytes()
            assert a.cls.tobytes() == b.cls.tobytes()


def test_annotation_file_round_trip(tmp_path):
    path = tmp_path / "ann.jsonl"
    ann = make_annotation()
    save_annotation(path, ann)
    assert load_annotation(path) == ann
