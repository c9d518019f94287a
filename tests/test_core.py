"""Data-model validation and serialization round trips."""

import json
import re
import sys
import tempfile
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
    ViewRoles,
    _member,
    dumps_obj,
    load_annotation,
    load_observations,
    loads_obj,
    parsing,
    read_jsonl,
    save_annotation,
    save_observations,
    sidecar_path,
    write_jsonl,
)

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
# roles


def test_view_roles_defaults_and_lookup():
    roles = ViewRoles()
    assert (roles.head, roles.left_wrist, roles.right_wrist) == (0, 1, 2)
    assert roles.wrists == (1, 2)
    assert roles.wrist_for_arm(0) == 1
    assert roles.wrist_for_arm(1) == 2


def test_view_roles_must_be_distinct():
    with pytest.raises(ConfigError):
        ViewRoles(head=0, left_wrist=0, right_wrist=2)


def test_view_roles_round_trip():
    roles = ViewRoles(head=2, left_wrist=0, right_wrist=1)
    assert ViewRoles.from_obj(roles.to_obj()) == roles


# ---------------------------------------------------------------------------
# token grids and observations


def test_token_grid_rejects_shape_mismatch():
    with pytest.raises(ContractError):
        TokenGrid(view_id=0, height=2, width=2, embed_dim=4,
                  tokens=np.zeros((3, 4)), cls=np.zeros(4))


def test_token_grid_rejects_non_finite():
    tokens = np.zeros((4, 2))
    tokens[1, 0] = np.nan
    with pytest.raises(ContractError):
        TokenGrid(view_id=0, height=2, width=2, embed_dim=2,
                  tokens=tokens, cls=np.zeros(2))


def test_token_grid_arrays_are_read_only():
    grid = make_grid()
    with pytest.raises(ValueError):
        grid.tokens[0, 0] = 1.0


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


def test_token_grid_copies_a_writeable_input():
    tokens, cls = np.arange(24.0).reshape(6, 4), np.ones(4)
    grid = TokenGrid(view_id=0, height=2, width=3, embed_dim=4,
                     tokens=tokens, cls=cls)
    tokens[0, 0], cls[0] = 99.0, 99.0
    assert grid.tokens[0, 0] == 0.0 and grid.cls[0] == 1.0
    assert not np.shares_memory(grid.tokens, tokens)


@pytest.mark.parametrize("make", [
    lambda: np.arange(24, dtype=np.float32).reshape(6, 4),
    lambda: np.repeat(np.arange(24.0).reshape(6, 4), 2, axis=1)[:, ::2],
    lambda: np.asfortranarray(np.arange(24.0).reshape(6, 4)),
    lambda: np.arange(24.0).reshape(6, 4).astype(">f8")], ids=[
        "float32", "strided", "fortran", "big-endian"])
def test_token_grid_copies_other_read_only_input(make):
    source = read_only(make())
    grid = TokenGrid(view_id=0, height=2, width=3, embed_dim=4,
                     tokens=source, cls=np.ones(4))
    assert grid.tokens.dtype == np.float64
    assert not np.shares_memory(grid.tokens, source)
    assert np.array_equal(grid.tokens, np.arange(24.0).reshape(6, 4))


@pytest.mark.parametrize("writeable", [True, False])
@pytest.mark.parametrize("tokens", [
    np.zeros((3, 4)), np.zeros(16), np.full((4, 4), np.nan),
    np.full((4, 4), -np.inf)])
def test_token_grid_refuses_bad_tokens_shared_or_copied(tokens, writeable):
    tokens = tokens.copy()
    tokens.flags.writeable = writeable
    with pytest.raises(ContractError):
        TokenGrid(view_id=0, height=2, width=2, embed_dim=4, tokens=tokens,
                  cls=read_only(np.zeros(4)))


def test_observation_requires_ordered_view_ids():
    views = (make_grid(view_id=0), make_grid(view_id=2))
    with pytest.raises(ContractError):
        MultiViewObservation(episode_id="ep", frame_index=0, views=views)


def test_observation_requires_shared_embed_dim():
    views = (make_grid(view_id=0, embed_dim=4),
             make_grid(view_id=1, embed_dim=8))
    with pytest.raises(ContractError):
        MultiViewObservation(episode_id="ep", frame_index=0, views=views)


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
    {"alphas": (1.0, 0.2, 0.2)},
    {"alphas": (-0.1, 0.2, 0.2)},
    {"alphas": ()},
    {"beta": 1.0},
    {"epsilon": 0.0},
    {"adaptive_threshold": float("nan")},
    {"adaptive_multiplier": -1.0},
])
def test_prune_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        PruneConfig(**kwargs)


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
    roles = ViewRoles()
    grids = ((2, 2), (2, 2), (2, 2))
    frames = []
    for t in range(length):
        masks = tuple(np.zeros(4, dtype=np.uint8) for _ in range(3))
        masks[0][1] = 1
        frames.append(FrameAnnotation(
            masks=masks, inter_labels=(1, t % 2, 0),
            arm_phases=(Phase.APPROACHING, Phase.RETRACTING)))
    return EpisodeAnnotation(episode_id="ep", roles=roles, grids=grids,
                             frames=tuple(frames))


def test_frame_annotation_rejects_non_binary_mask():
    mask = np.full(4, 2, dtype=np.uint8)
    with pytest.raises(ContractError):
        FrameAnnotation(masks=(mask,), inter_labels=(1,),
                        arm_phases=(Phase.APPROACHING,))


# entries the uint8 copy of a mask changes (0.5, 1.0000001, 256, -1) or
# keeps above 1 (2)
@pytest.mark.parametrize("mask", [
    [0, 2], [0.5, 1.0], [1.0000001, 0.0], np.array([0, 256]),
    np.array([1, -1]), np.array([256, 1], dtype=np.int64)], ids=repr)
def test_frame_annotation_refuses_entries_other_than_0_and_1(mask):
    with pytest.raises(ContractError, match="0 or 1"):
        FrameAnnotation(masks=(mask,), inter_labels=(1,),
                        arm_phases=(Phase.APPROACHING,))


@pytest.mark.parametrize("mask", [
    [True, False], [0.0, -0.0, 1.0], np.array([1, 0], dtype=np.int64), []],
    ids=repr)
def test_frame_annotation_accepts_bools_and_signed_zeros(mask):
    frame = FrameAnnotation(masks=(mask,), inter_labels=(1,),
                            arm_phases=(Phase.APPROACHING,))
    assert frame.masks[0].dtype == np.uint8
    assert frame.masks[0].tolist() == [int(x) for x in mask]


def test_frame_annotation_rejects_square_mask():
    with pytest.raises(ContractError):
        FrameAnnotation(masks=(np.zeros((2, 2), dtype=np.uint8),),
                        inter_labels=(1,), arm_phases=(Phase.APPROACHING,))


def test_frame_annotation_counts_masks_before_converting_them():
    # an object() mask cannot be converted, so only the count check passes
    with pytest.raises(ContractError, match="one entry per view"):
        FrameAnnotation(masks=(object(),) * 100_000, inter_labels=(1, 0, 0),
                        arm_phases=(Phase.APPROACHING, Phase.APPROACHING))


def test_episode_annotation_requires_head_always_on():
    roles = ViewRoles()
    masks = tuple(np.zeros(4, dtype=np.uint8) for _ in range(3))
    frame = FrameAnnotation(masks=masks, inter_labels=(0, 0, 0),
                            arm_phases=(Phase.APPROACHING, Phase.APPROACHING))
    with pytest.raises(AnnotationError):
        EpisodeAnnotation(episode_id="ep", roles=roles,
                          grids=((2, 2),) * 3, frames=(frame,))


def test_episode_annotation_checks_mask_shapes():
    ann = make_annotation()
    masks = (np.zeros(9, dtype=np.uint8),) + ann.frames[0].masks[1:]
    frame = FrameAnnotation(masks=masks, inter_labels=(1, 0, 0),
                            arm_phases=ann.frames[0].arm_phases)
    with pytest.raises(AnnotationError) as err:
        EpisodeAnnotation(episode_id="ep", roles=ann.roles, grids=ann.grids,
                          frames=(frame,))
    assert err.value.frame == 0


def test_empty_episode_annotation_allowed():
    ann = EpisodeAnnotation(episode_id="ep", roles=ViewRoles(), grids=(),
                            frames=())
    assert ann.length == 0


def test_annotation_round_trips():
    ann = make_annotation()
    assert EpisodeAnnotation.from_frame_objs(ann.frame_objs()) == ann


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
                tokens=np.reshape(tokens, (h * w, embed_dim)), cls=cls))
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
