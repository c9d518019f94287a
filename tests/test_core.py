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
    ImportanceScores,
    MultiViewObservation,
    ParseError,
    Phase,
    PruneConfig,
    PruneResult,
    Strategy,
    TokenGrid,
    ViewRoles,
    dumps_obj,
    load_annotation,
    load_observations,
    loads_obj,
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


def test_importance_scores_validated():
    raw = (np.array([0.2, 0.8]),)
    weighted = (np.array([1.0, 2.0]),)
    scores = ImportanceScores(intra_raw=raw, intra_weighted=weighted,
                              inter=np.array([0.5]))
    assert scores.inter.shape == (1,)
    with pytest.raises(ContractError):
        ImportanceScores(intra_raw=(np.array([1.5]),),
                         intra_weighted=(np.array([1.0]),),
                         inter=np.array([0.5]))
    with pytest.raises(ContractError):
        ImportanceScores(intra_raw=raw, intra_weighted=weighted,
                         inter=np.array([-0.1]))


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


def test_prune_result_rejects_count_mismatch():
    with pytest.raises(ContractError):
        PruneResult(view_token_counts=(4, 4), kept=((1, 3), (0,)),
                    fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
                    local_pruned_counts=(1, 1), global_pruned_count=2,
                    ranking=((0, 3), (1, 0), (0, 1)))


def test_prune_result_rejects_unsorted_kept():
    with pytest.raises(ContractError):
        PruneResult(view_token_counts=(4,), kept=((3, 1),),
                    fused_scores=(np.array([0.5, 0.9]),),
                    local_pruned_counts=(1,), global_pruned_count=1,
                    ranking=((0, 3), (0, 1)))


def test_prune_result_rejects_bad_ranking():
    with pytest.raises(ContractError):
        PruneResult(view_token_counts=(4, 4), kept=((1, 3), (0,)),
                    fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
                    local_pruned_counts=(1, 1), global_pruned_count=3,
                    ranking=((0, 3), (0, 3), (0, 1)))


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
    with pytest.raises(ContractError,
                       match="ranking must enumerate exactly the kept tokens"):
        PruneResult(view_token_counts=(4, 4), kept=((1, 3), (0,)),
                    fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
                    local_pruned_counts=(1, 1), global_pruned_count=3,
                    ranking=ranking)


def test_prune_result_accepts_integer_arrays_and_stores_tuples():
    result = PruneResult(
        view_token_counts=(4, 4),
        kept=(np.array([1, 3], dtype=np.int32), np.array([0], np.uint8)),
        fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
        local_pruned_counts=(1, 1), global_pruned_count=3,
        ranking=np.array([[0, 3], [1, 0], [0, 1]]))
    assert result == good_result()
    assert result.kept == ((1, 3), (0,))
    assert result.ranking == ((0, 3), (1, 0), (0, 1))
    assert all(type(i) is int for idx in result.kept for i in idx)
    assert all(type(i) is int for pair in result.ranking for i in pair)
    assert dumps_obj(result.to_obj()) == dumps_obj(good_result().to_obj())


def test_prune_result_accepts_empty_views():
    result = PruneResult(view_token_counts=(2, 0), kept=((), ()),
                         fused_scores=((), ()), local_pruned_counts=(0, 0),
                         global_pruned_count=2, ranking=())
    assert result.kept == ((), ())
    assert result.ranking == ()
    assert PruneResult.from_obj(result.to_obj()) == result


@pytest.mark.parametrize("kept", [
    (np.array([1.0, 3.0]), (0,)),
    (np.array([True, True]), (0,)),
    ((1, 3), np.array([0], dtype=object)),
    ((1, 3), np.array([[0]])),
])
def test_prune_result_rejects_non_integer_index_arrays(kept):
    with pytest.raises(ContractError):
        PruneResult(view_token_counts=(4, 4), kept=kept,
                    fused_scores=(np.array([0.5, 0.9]), np.array([0.7])),
                    local_pruned_counts=(1, 1), global_pruned_count=3,
                    ranking=((0, 3), (1, 0), (0, 1)))


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


def test_frame_annotation_rejects_square_mask():
    with pytest.raises(ContractError):
        FrameAnnotation(masks=(np.zeros((2, 2), dtype=np.uint8),),
                        inter_labels=(1,), arm_phases=(Phase.APPROACHING,))


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


def test_loads_obj_reports_offset():
    with pytest.raises(ParseError) as err:
        loads_obj('{"fmt": 1, "kind": }')
    assert err.value.offset is not None


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
    assert load_observations(path) == observations


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
