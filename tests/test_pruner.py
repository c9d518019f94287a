"""Pruning pipeline: weighting, stages, baselines, and the cost model."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_adaptive_ratio_drop,
    oracle_adaptive_weight,
    oracle_flops,
    oracle_pipeline,
    oracle_prune_count,
)
from mvprune import pruner
from mvprune.core import (
    ConfigError,
    ContractError,
    ImportanceScores,
    MultiViewObservation,
    PruneConfig,
    PruneResult,
    Strategy,
)
from mvprune.predictor import MlpParams, init_mlp
from mvprune.pruner import (
    FlopModel,
    _dispatch,
    _order_rows,
    _prune_count,
    _weight_matrix,
    adaptive_weight,
    flop_estimate,
    fuse_scores,
    global_prune,
    hierarchical_prune,
    local_prune,
    normalize_scores,
    prune_observation,
    prune_scores,
    random_drop,
    score_observation,
    speedup_estimate,
)
from test_core import make_grid, make_obs, refused_record


# ---------------------------------------------------------------------------
# count arithmetic


@pytest.mark.parametrize("ratio, n, expected", [
    (0.3, 256, 76),
    (0.2, 256, 51),
    (0.5, 590, 295),
    (0.29, 100, 29),
    (0.0, 100, 0),
    (0.999, 1000, 999),
    (0.29, 10**8, 29_000_000),
    (0.57, 10**8, 57_000_000),
])
def test_prune_count_is_exact_on_decimal_ratios(ratio, n, expected):
    assert _prune_count(ratio, n) == expected
    assert oracle_prune_count(ratio, n) == expected


@given(st.integers(0, 999), st.integers(0, 2000))
def test_prune_count_matches_fraction_floor(milli, n):
    ratio = milli / 1000.0
    assert _prune_count(ratio, n) == oracle_prune_count(round(ratio, 3), n)


@given(st.integers(0, 9999), st.integers(0, 10**9))
def test_prune_count_matches_fraction_floor_at_large_n(ten_thousandths, n):
    ratio = ten_thousandths / 10_000
    assert _prune_count(ratio, n) == oracle_prune_count(ratio, n)


# ---------------------------------------------------------------------------
# spatial weighting


def test_adaptive_weight_2x2_impulse():
    out = adaptive_weight([1.0, 0.0, 0.0, 0.0], 2, 2, 0.01)
    expected = [1 / 0.01, 1 / 1.01, 1 / 1.01, 1 / (math.sqrt(2) + 0.01)]
    assert out == pytest.approx(expected, rel=1e-12)


def test_adaptive_weight_matches_reference():
    rng = np.random.default_rng(0)
    for height, width in [(1, 1), (1, 5), (3, 4), (6, 6)]:
        raw = rng.random(height * width)
        got = adaptive_weight(raw, height, width, 0.01)
        want = oracle_adaptive_weight(list(raw), height, width, 0.01)
        assert got == pytest.approx(want, rel=1e-10)


def test_adaptive_weight_rejects_bad_epsilon():
    with pytest.raises(ConfigError):
        adaptive_weight([1.0], 1, 1, 0.0)
    with pytest.raises(ConfigError):
        adaptive_weight([1.0], 1, 1, -1.0)


def test_adaptive_weight_scales_linearly():
    raw = np.array([0.3, 0.1, 0.9, 0.5])
    one = adaptive_weight(raw, 2, 2)
    three = adaptive_weight(3.0 * raw, 2, 2)
    assert three == pytest.approx((3.0 * one).tolist(), rel=1e-12)


def pairwise_weight_matrix(height, width, epsilon):
    """The weight matrix from pairwise patch distances, built a few rows at a
    time: every entry is computed on its own, so blocks change no bytes."""
    rows, cols = np.divmod(np.arange(height * width), width)
    pos = np.stack([rows, cols], axis=1).astype(np.float64)
    blocks = []
    for start in range(0, len(pos), 256):
        diff = pos[start:start + 256, None, :] - pos[None, :, :]
        blocks.append(1.0 / (np.sqrt((diff ** 2).sum(axis=2)) + epsilon))
    return np.concatenate(blocks)


@pytest.mark.parametrize("height, width", [(7, 13), (16, 16), (32, 32),
                                           (48, 48)])
def test_weight_matrix_bytes_equal_pairwise_build(height, width):
    matrix = _weight_matrix(height, width, 0.01)
    want = pairwise_weight_matrix(height, width, 0.01)
    assert matrix.shape == want.shape
    assert matrix.tobytes() == want.tobytes()
    assert not matrix.flags.writeable


def test_weight_matrix_cache_evicts_oldest(monkeypatch):
    monkeypatch.setattr(pruner, "_weight_matrices", {})
    shapes = [(1, n) for n in range(1, pruner._WEIGHT_CACHE_SIZE + 2)]
    for height, width in shapes:
        _weight_matrix(height, width, 0.5)
    assert list(pruner._weight_matrices) == [
        (height, width, 0.5) for height, width in shapes[1:]]


def grid_obs(shapes, seed=0):
    return MultiViewObservation(episode_id="ep", frame_index=0, views=tuple(
        make_grid(view_id=v, height=h, width=w, seed=seed + v)
        for v, (h, w) in enumerate(shapes)))


# at the 1 MB default every grid but 7x13 spans several row blocks; a block
# of 1 byte rounds up to the smallest block, 8 rows, which splits them all
@pytest.mark.parametrize("block_bytes", [pruner._WEIGHT_BLOCK_BYTES, 1])
@pytest.mark.parametrize("shapes", [
    [(20, 20)] * 3, [(32, 32)] * 3, [(48, 48)] * 2,
    [(32, 32), (7, 13), (32, 32), (20, 24)]], ids=str)
def test_score_observation_weights_like_adaptive_weight(shapes, block_bytes,
                                                        monkeypatch):
    monkeypatch.setattr(pruner, "_WEIGHT_BLOCK_BYTES", block_bytes)
    obs = grid_obs(shapes)
    intra = init_mlp((obs.embed_dim, 8, 1), seed=0)
    inter = init_mlp((len(shapes) * obs.embed_dim, 8, len(shapes)), seed=1)
    scores = score_observation(obs, intra, inter, 0.01)
    for raw, weighted, (h, w) in zip(scores.intra_raw, scores.intra_weighted,
                                     shapes):
        assert weighted.tobytes() == adaptive_weight(raw, h, w).tobytes()


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
def test_score_observation_rejects_bad_epsilon(tiny_predictors, epsilon):
    intra, inter = tiny_predictors
    with pytest.raises(ConfigError):
        score_observation(make_obs(view_count=3), intra, inter, epsilon)


@pytest.mark.parametrize("predictor", ["predict_intra", "predict_inter"])
def test_score_observation_refuses_non_finite_predictor_output(
        tiny_predictors, predictor, monkeypatch):
    intra, inter = tiny_predictors
    obs = make_obs(view_count=3)
    real = getattr(pruner, predictor)

    def last_nan(values):
        values = values.copy()
        values[-1] = np.nan
        return values

    def with_nan(params, obs):
        out = real(params, obs)
        return (tuple(map(last_nan, out)) if isinstance(out, tuple)
                else last_nan(out))

    monkeypatch.setattr(pruner, predictor, with_nan)
    name = predictor.removeprefix("predict_")
    with pytest.raises(ContractError, match=f"{name} predictor output"):
        score_observation(obs, intra, inter, 0.01)


# ---------------------------------------------------------------------------
# normalization and stages


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0]),
    st.floats(-2.0, 2.0, allow_subnormal=False)), max_size=60))
@example([])
@example([0.0])
@example([0.5] * 17)
@example([0.0, -0.0, 0.0, -0.0])
def test_order_by_score_is_lexsort_by_score_then_index(values):
    """Each row is ordered on its own: the row as drawn, reversed, and
    negated, in one call, each row's indices offset into the ravel."""
    scores = np.array(values, dtype=np.float64)
    rows = np.stack([scores, scores[::-1], -scores])
    got = _order_rows(rows)
    for r, (row, order) in enumerate(zip(rows, got)):
        want = np.lexsort((np.arange(len(values)), row)) + r * len(values)
        assert order.dtype == want.dtype
        assert order.tolist() == want.tolist()


def test_normalize_spans_unit_interval():
    out = normalize_scores([2.0, 4.0, 3.0])
    assert out.tolist() == [0.0, 1.0, 0.5]


def test_normalize_constant_becomes_ones():
    assert normalize_scores([7.0, 7.0, 7.0]).tolist() == [1.0, 1.0, 1.0]
    assert normalize_scores([]).size == 0


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30))
def test_normalize_preserves_order(values):
    out = normalize_scores(values)
    assert out.min() >= 0.0 and out.max() <= 1.0
    for i in range(len(values)):
        for j in range(len(values)):
            if values[i] < values[j]:
                assert out[i] <= out[j]


def test_local_prune_drops_floor_and_breaks_ties_low_index_first():
    kept, counts = local_prune([np.array([0.5, 0.5, 0.5, 0.9])], [0.5])
    assert counts == (2,)
    # three tokens tie at 0.5; the two lowest indices lose
    assert kept[0].tolist() == [2, 3]


def test_local_prune_needs_matching_ratios():
    with pytest.raises(ContractError):
        local_prune([np.zeros(4)], [0.1, 0.1])


def test_fuse_scores_multiplies_view_weight():
    fused = fuse_scores([np.array([0.5, 1.0]), np.array([1.0])],
                        np.array([0.4, 0.9]))
    assert fused[0].tolist() == [0.2, 0.4]
    assert fused[1].tolist() == [0.9]


def test_global_prune_breaks_ties_by_view_then_index():
    fused = [np.array([0.5, 0.5]), np.array([0.5, 0.9])]
    kept = [np.array([0, 1]), np.array([0, 1])]
    result = global_prune(fused, kept, 0.5, (2, 2), (0, 0))
    # drop floor(0.5*4)=2: ties at 0.5 lose ascending by (view, index)
    assert result.kept == ((), (0, 1))
    assert result.ranking == ((1, 1), (1, 0))
    assert result.global_pruned_count == 2


def test_global_prune_count_identity():
    fused = [np.array([0.1, 0.2, 0.3])]
    kept = [np.array([1, 3, 5])]
    result = global_prune(fused, kept, 0.4, (8,), (5,))
    assert result.kept == ((3, 5),)
    assert result.kept_total == 2
    assert result.post_local_counts == (3,)


@pytest.mark.parametrize("kept, fused", [
    ([[0, 4]], [[0.5, 0.5]]),
    ([[-1]], [[0.5]]),
    ([[1, 1]], [[0.5, 0.5]]),
    ([[0, 1]], [[0.5]]),
    ([[0], [1]], [[0.5], [0.5]]),
])
def test_global_prune_refuses_survivors_it_cannot_place(kept, fused):
    """Out of range, listed twice, misaligned, or more views than counts."""
    with pytest.raises(ContractError):
        global_prune([np.array(f) for f in fused],
                     [np.array(k) for k in kept], 0.5, (4,), (0,))


def lexsort_global(fused, kept, drop):
    """Kept indices, fused scores and ranking of the global stage, ranked by
    (score, view, index) with two lexsorts."""
    score_all = np.concatenate([np.zeros(0), *fused])
    view_all = np.repeat(np.arange(len(kept)), [len(k) for k in kept])
    idx_all = np.concatenate([np.zeros(0, dtype=np.int64), *kept])
    kept_order = np.lexsort((idx_all, view_all, score_all))[drop:]
    by_pos = kept_order[np.lexsort((idx_all[kept_order],
                                    view_all[kept_order]))]
    views = view_all[by_pos]
    return (tuple(tuple(idx_all[by_pos][views == v].tolist())
                  for v in range(len(kept))),
            [score_all[by_pos][views == v] for v in range(len(kept))],
            tuple(zip(view_all[kept_order][::-1].tolist(),
                      idx_all[kept_order][::-1].tolist())))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_global_prune_on_shuffled_survivors_matches_lexsort(data):
    fused, kept, beta, counts = data.draw(global_stage_inputs())
    for v in range(len(kept)):
        perm = np.array(data.draw(st.permutations(range(len(kept[v])))),
                        dtype=np.int64)
        fused[v], kept[v] = fused[v][perm], kept[v][perm]
    total = sum(len(k) for k in kept)
    want_kept, want_fused, want_ranking = lexsort_global(
        fused, kept, _prune_count(beta, total))
    result = global_prune(fused, kept, beta, counts,
                          [n - len(k) for n, k in zip(counts, kept)])
    assert result.kept == want_kept
    assert result.ranking == want_ranking
    assert [f.tobytes() for f in result.fused_scores] == [
        f.tobytes() for f in want_fused]


@st.composite
def global_stage_inputs(draw):
    """Survivors of 1-3 views with heavily tied fused scores, and a global
    ratio, 1.0 dropping them all."""
    views = draw(st.integers(1, 3))
    counts, kept, fused = [], [], []
    for _ in range(views):
        n = draw(st.integers(0, 12))
        survivors = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))
                           if n else [])
        counts.append(n)
        kept.append(np.array(survivors, dtype=np.int64))
        fused.append(np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=len(survivors),
            max_size=len(survivors))), dtype=np.float64))
    beta = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    return fused, kept, beta, counts


@settings(max_examples=200, deadline=None)
@given(global_stage_inputs(), st.data())
def test_global_stage_results_pass_a_fresh_construction(inputs, data):
    fused, kept, beta, counts = inputs
    local = [n - len(k) for n, k in zip(counts, kept)]
    result = global_prune(fused, kept, beta, counts, local)
    assert PruneResult.from_obj(result.to_obj()) == result
    assert all(type(i) is int for idx in result.kept for i in idx)
    assert all(type(i) is int for pair in result.ranking for i in pair)
    if result.kept_total:
        # the first pair twice: in place of the last, and added
        for duplicated in (result.ranking[:-1] + result.ranking[:1],
                           result.ranking + result.ranking[:1]):
            if duplicated != result.ranking:
                refused_record(result, ranking=duplicated)
        v = data.draw(st.sampled_from(
            [v for v, idx in enumerate(result.kept) if idx]))
        as_floats = list(result.kept)
        as_floats[v] = tuple(float(i) for i in result.kept[v])
        refused_record(result, kept=as_floats)
        refused_record(result, ranking=[(v, float(i))
                                        for v, i in result.ranking])
    wide = [v for v, idx in enumerate(result.kept) if len(idx) > 1]
    if wide:
        v = data.draw(st.sampled_from(wide))
        i = data.draw(st.integers(0, len(result.kept[v]) - 2))
        swapped = list(result.kept)
        idx = list(result.kept[v])
        idx[i], idx[i + 1] = idx[i + 1], idx[i]
        swapped[v] = tuple(idx)
        refused_record(result, kept=swapped)


# ---------------------------------------------------------------------------
# full pipeline vs reference


def assert_matches_oracle(raw_per_view, inter, grid_shapes, config):
    result = hierarchical_prune(raw_per_view, inter, grid_shapes, config)
    kept, fused, ranking, local_counts, global_count = oracle_pipeline(
        [list(map(float, r)) for r in raw_per_view], list(map(float, inter)),
        grid_shapes, config.alphas, config.beta, config.epsilon)
    assert tuple(tuple(k) for k in result.kept) == tuple(
        tuple(k) for k in kept)
    assert result.ranking == tuple(ranking)
    assert result.local_pruned_counts == tuple(local_counts)
    assert result.global_pruned_count == global_count
    for got, want in zip(result.fused_scores, fused):
        assert got.tolist() == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_default_ratio_counts_on_three_256_token_views():
    rng = np.random.default_rng(7)
    raw = [rng.random(256) for _ in range(3)]
    result = hierarchical_prune(raw, [0.9, 0.8, 0.7], [(16, 16)] * 3,
                                PruneConfig())
    assert result.local_pruned_counts == (76, 51, 51)
    assert result.post_local_counts == (180, 205, 205)
    assert result.global_pruned_count == 295
    assert result.kept_total == 295


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_pipeline_matches_oracle_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    views = int(rng.integers(1, 4))
    shapes = [(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
              for _ in range(views)]
    raw = [rng.random(h * w) for h, w in shapes]
    inter = rng.random(views)
    config = PruneConfig(
        alphas=tuple(float(rng.integers(0, 20)) / 20 for _ in range(views)),
        beta=float(rng.integers(0, 20)) / 20,
        epsilon=float(rng.choice([0.01, 0.1, 1.0])))
    assert_matches_oracle(raw, inter, shapes, config)


def test_pipeline_rejects_mismatched_shapes():
    with pytest.raises(ContractError):
        hierarchical_prune([np.zeros(4)], [1.0], [(2, 2), (2, 2)],
                           PruneConfig(alphas=(0.1,)))
    with pytest.raises(ContractError):
        hierarchical_prune([np.zeros(4), np.zeros(4)], [1.0, 1.0],
                           [(2, 2), (2, 2)], PruneConfig(alphas=(0.1,)))


def test_pipeline_refuses_random_strategy():
    config = PruneConfig(strategy=Strategy.RANDOM_DROP, alphas=(0.1,))
    with pytest.raises(ContractError):
        hierarchical_prune([np.zeros(4)], [1.0], [(2, 2)], config)


def test_no_prune_keeps_everything():
    rng = np.random.default_rng(3)
    raw = [rng.random(16), rng.random(9)]
    config = PruneConfig(alphas=(0.3, 0.2),
                         strategy=Strategy.NO_PRUNE)
    result = hierarchical_prune(raw, [0.5, 0.5], [(4, 4), (3, 3)], config)
    assert result.kept == (tuple(range(16)), tuple(range(9)))
    assert result.global_pruned_count == 0
    assert result.local_pruned_counts == (0, 0)


def test_no_prune_config_keeps_ratios_but_switches_strategy():
    base = PruneConfig(alphas=(0.3, 0.2), beta=0.5)
    config = replace(base, strategy=Strategy.NO_PRUNE)
    assert config.strategy is Strategy.NO_PRUNE
    assert config.alphas == base.alphas
    raw = [np.arange(4.0), np.arange(4.0)]
    result = hierarchical_prune(raw, [1.0, 1.0], [(2, 2), (2, 2)], config)
    assert result.kept_total == 8


def test_adaptive_ratio_drop_counts():
    # each stage drops floor(0.8 * below-threshold) of its candidates
    raw = [np.array([0.0, 0.1, 0.2, 1.0]), np.array([0.3, 0.9])]
    shapes = [(1, 4), (1, 2)]
    config = PruneConfig(alphas=(0.0, 0.0),
                         strategy=Strategy.ADAPTIVE_RATIO_DROP)
    result = hierarchical_prune(raw, [1.0, 0.1], shapes, config)
    normalized = [normalize_scores(adaptive_weight(r, h, w, config.epsilon))
                  for r, (h, w) in zip(raw, shapes)]
    survivors = []
    for v in range(2):
        below = int((normalized[v] < config.adaptive_threshold).sum())
        assert result.local_pruned_counts[v] == _prune_count(0.8, below)
        order = np.lexsort((np.arange(len(normalized[v])), normalized[v]))
        keep = np.sort(order[result.local_pruned_counts[v]:])
        survivors.append(normalized[v][keep] * [1.0, 0.1][v])
    flat = np.concatenate(survivors)
    below = int((flat < config.adaptive_threshold).sum())
    assert result.global_pruned_count == _prune_count(0.8, below)


def test_adaptive_ratio_drop_second_stage_uses_threshold():
    # survivors fused with weight 0.1 all fall below 0.5, so stage 2 drops
    # floor(0.8 * M) of them
    raw = [np.linspace(0.0, 1.0, 10)]
    config = PruneConfig(alphas=(0.0,), strategy=Strategy.ADAPTIVE_RATIO_DROP,
                         epsilon=1000.0)
    result = hierarchical_prune(raw, [0.1], [(1, 10)], config)
    survivors = result.post_local_counts[0]
    assert result.global_pruned_count == _prune_count(0.8, survivors)


# ---------------------------------------------------------------------------
# random baseline


def test_random_drop_is_deterministic():
    config = PruneConfig(seed=11)
    a = random_drop([16, 16], PruneConfig(alphas=(0.3, 0.2), seed=11))
    b = random_drop([16, 16], PruneConfig(alphas=(0.3, 0.2), seed=11))
    assert a == b
    c = random_drop([16, 16], PruneConfig(alphas=(0.3, 0.2), seed=12))
    assert a != c
    assert config.seed == 11


def test_random_drop_counts_follow_ratios():
    result = random_drop([256, 256, 256], PruneConfig())
    assert result.local_pruned_counts == (76, 51, 51)
    assert result.post_local_counts == (180, 205, 205)
    assert result.global_pruned_count == 295
    assert result.kept_total == 295


def test_random_drop_replays_documented_draw_order():
    config = PruneConfig(alphas=(0.25, 0.5), beta=0.5, seed=21)
    result = random_drop([8, 4], config)
    rng = np.random.default_rng(21)
    kept_local = []
    for n, alpha in zip((8, 4), config.alphas):
        priorities = rng.random(n)
        count = oracle_prune_count(alpha, n)
        order = sorted(range(n), key=lambda i: (priorities[i], i))
        kept_local.append(sorted(order[count:]))
    fresh = rng.random(sum(len(k) for k in kept_local))
    pool, offset = [], 0
    for v, k in enumerate(kept_local):
        for j, i in enumerate(k):
            pool.append((fresh[offset + j], v, i))
        offset += len(k)
    drop = oracle_prune_count(config.beta, len(pool))
    survivors = sorted(pool)[drop:]
    want = [sorted(i for _, v2, i in survivors if v2 == v) for v in range(2)]
    assert [list(k) for k in result.kept] == want


# ---------------------------------------------------------------------------
# observation-level dispatch


@pytest.fixture(scope="module")
def tiny_predictors():
    obs = make_obs(view_count=3)
    intra = init_mlp((obs.embed_dim, 8, 1), seed=0)
    inter = init_mlp((3 * obs.embed_dim, 8, 3), seed=1)
    return intra, inter


def test_prune_observation_is_consistent(tiny_predictors):
    intra, inter = tiny_predictors
    obs = make_obs(view_count=3, seed=5)
    config = PruneConfig(alphas=(0.3, 0.2, 0.2), beta=0.5)
    scores, result = prune_observation(obs, intra, inter, config)
    assert [a.shape for a in scores.intra_raw] \
        == [(v.token_count,) for v in obs.views]
    again_scores, again_result = prune_observation(obs, intra, inter, config)
    assert again_result == result
    assert all(np.array_equal(a, b) for a, b in
               zip(scores.intra_raw, again_scores.intra_raw))
    n = obs.views[0].token_count
    assert result.view_token_counts == (n, n, n)
    expect_local = tuple(_prune_count(a, n) for a in config.alphas)
    assert result.local_pruned_counts == expect_local


def test_prune_observation_equals_explicit_pipeline(tiny_predictors):
    intra, inter = tiny_predictors
    obs = make_obs(view_count=3, seed=9)
    config = PruneConfig()
    scores, result = prune_observation(obs, intra, inter, config)
    shapes = [(v.height, v.width) for v in obs.views]
    direct = hierarchical_prune(scores.intra_raw, scores.inter, shapes, config)
    assert direct == result


@pytest.mark.parametrize("strategy", list(Strategy))
def test_prune_observation_is_score_then_prune(tiny_predictors, strategy):
    intra, inter = tiny_predictors
    obs = make_obs(view_count=3, seed=9)
    config = PruneConfig(strategy=strategy, epsilon=0.1)
    scores, result = prune_observation(obs, intra, inter, config)
    assert scores == score_observation(obs, intra, inter, 0.1)
    counts = [v.token_count for v in obs.views]
    assert prune_scores(scores, counts, config) == result
    if strategy is not Strategy.RANDOM_DROP:
        with pytest.raises(ContractError):
            prune_scores(scores, counts[:2] + [counts[2] + 1], config)


def test_prune_observation_random_strategy_ignores_scores(tiny_predictors):
    intra, inter = tiny_predictors
    config = PruneConfig(strategy=Strategy.RANDOM_DROP, seed=4)
    _, one = prune_observation(make_obs(seed=1), intra, inter, config)
    _, two = prune_observation(make_obs(seed=2), intra, inter, config)
    assert one.kept == two.kept


def zeroed(params):
    """``params`` with every weight and bias zero: a constant output."""
    return MlpParams(tuple((np.zeros_like(w), np.zeros_like(b))
                           for w, b in params.layers))


@pytest.mark.parametrize("shapes", [[(1, 2)] * 3, [(2, 1), (1, 1), (1, 2)]],
                         ids=str)
@pytest.mark.parametrize("zero_inter", [False, True])
def test_prune_observation_with_zeroed_intra_weights_matches_oracle(
        shapes, zero_inter):
    """A zeroed token predictor scores every token 0.5. With at most two
    patches a view, each weighted score sums the same two products, which
    commutes exactly, so all scores of a view tie (larger grids tie only up
    to rounding, which the library and the oracle sum in different orders);
    a zeroed view predictor ties the views as well. Every tie is then
    broken by position, as in ``oracle_pipeline``."""
    obs = grid_obs(shapes, seed=2)
    intra = zeroed(init_mlp((obs.embed_dim, 8, 1), seed=0))
    inter = init_mlp((len(shapes) * obs.embed_dim, 8, len(shapes)), seed=1)
    if zero_inter:
        inter = zeroed(inter)
    config = PruneConfig(alphas=(0.5, 0.0, 0.5), beta=0.5)
    scores, result = prune_observation(obs, intra, inter, config)
    assert {float(r) for raw in scores.intra_raw for r in raw} == {0.5}
    assert all(len(set(w.tolist())) == 1 for w in scores.intra_weighted)
    kept, fused, ranking, local, drop = oracle_pipeline(
        [raw.tolist() for raw in scores.intra_raw], scores.inter.tolist(),
        shapes, config.alphas, config.beta, config.epsilon)
    assert result.kept == tuple(map(tuple, kept))
    assert result.ranking == tuple(ranking)
    assert [a.tolist() for a in result.fused_scores] == fused
    assert (result.local_pruned_counts, result.global_pruned_count) \
        == (tuple(local), drop)


def test_prune_observation_no_prune(tiny_predictors):
    intra, inter = tiny_predictors
    obs = make_obs(view_count=3, seed=5)
    config = PruneConfig(strategy=Strategy.NO_PRUNE)
    _, result = prune_observation(obs, intra, inter, config)
    assert result.kept_total == obs.total_tokens


# ---------------------------------------------------------------------------
# batched dispatch


SCORE_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def frame_batches(draw):
    """Weighted scores and view weights of 1-4 frames whose 1-3 views keep
    their grid shapes from frame to frame, shapes differing across views;
    views are often constant and scores often repeat."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                           min_size=1, max_size=3))
    frames = draw(st.integers(1, 4))
    weighted = []
    for h, w in shapes:
        rows = []
        for _ in range(frames):
            if draw(st.booleans()):
                rows.append([draw(SCORE_VALUES)] * (h * w))
            else:
                rows.append(draw(st.lists(
                    st.one_of(SCORE_VALUES, st.floats(0.01, 3.0)),
                    min_size=h * w, max_size=h * w)))
        weighted.append(np.array(rows, dtype=np.float64))
    inter = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.1, 0.5, 0.9, 1.0]),
                 min_size=len(shapes), max_size=len(shapes)),
        min_size=frames, max_size=frames)))
    return weighted, inter, [h * w for h, w in shapes]


@settings(max_examples=300, deadline=None)
@given(frame_batches(), st.data())
def test_dispatch_over_frames_equals_one_frame_calls(batch, data):
    """The dispatch over F frames equals F ``prune_scores`` calls, fused
    scores bit for bit, for every strategy and for an adaptive config that
    empties every view; the adaptive results are the oracle's."""
    weighted, inter, counts = batch
    views = len(counts)
    alphas = tuple(data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
                   for _ in range(views))
    config = data.draw(st.sampled_from(
        [PruneConfig(alphas=alphas, beta=0.5, strategy=s, seed=3)
         for s in Strategy]
        + [PruneConfig(alphas=alphas, strategy=Strategy.ADAPTIVE_RATIO_DROP,
                       adaptive_threshold=2.0, adaptive_multiplier=1.0)]))
    results = list(_dispatch(weighted, inter, counts, config).results())
    singles = [prune_scores(ImportanceScores(
        intra_raw=(), intra_weighted=tuple(w[f] for w in weighted),
        inter=inter[f]), counts, config) for f in range(len(inter))]
    assert results == singles
    assert [[a.tobytes() for a in r.fused_scores] for r in results] \
        == [[a.tobytes() for a in r.fused_scores] for r in singles]
    if config.strategy is not Strategy.ADAPTIVE_RATIO_DROP:
        return
    for f, result in enumerate(results):
        kept, fused, ranking, local, drop = oracle_adaptive_ratio_drop(
            [w[f] for w in weighted], inter[f], config.adaptive_threshold,
            config.adaptive_multiplier)
        assert result.kept == tuple(map(tuple, kept))
        assert [a.tolist() for a in result.fused_scores] == fused
        assert result.ranking == tuple(ranking)
        assert result.local_pruned_counts == tuple(local)
        assert result.global_pruned_count == drop


def test_dispatch_pads_frames_with_fewer_adaptive_survivors():
    """Frames the adaptive baseline leaves with different survivor counts,
    none in the second, are ranked in one padded pass like alone."""
    weighted = [np.array([[0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0],
                          [1.0, 1.0, 1.0, 2.0]])]
    inter = np.array([[1.0], [0.4], [1.0]])
    config = PruneConfig(alphas=(0.0,), strategy=Strategy.ADAPTIVE_RATIO_DROP,
                         adaptive_threshold=0.9, adaptive_multiplier=1.0)
    batch = _dispatch(weighted, inter, [4], config)
    assert batch.kept.sum(axis=1).tolist() == [1, 0, 1]
    for f, result in enumerate(batch.results()):
        kept, fused, ranking, local, drop = oracle_adaptive_ratio_drop(
            [weighted[0][f]], inter[f], 0.9, 1.0)
        assert (result.kept, result.ranking) == ((tuple(kept[0]),),
                                                 tuple(ranking))
        assert (result.local_pruned_counts, result.global_pruned_count) \
            == (tuple(local), drop)


# ---------------------------------------------------------------------------
# byte digest of the pruning stages

# SHA-256 over every result of ``digest_results``, the sign bit of each
# zero score included. The stages call no BLAS routine and normalize the
# zero of a row's minimum to +0.0, so it holds on any numpy build and SIMD
# dispatch. Recorded when the zero signs were made independent of the
# dispatch; with zeros hashed as +0.0 it equals the digest recorded before
# the stages were last reworked.
PRUNE_DIGEST = ("66ddba9af7546b8a52ca4f52a73f0e8b"
                "a7b2a7023cd1f494fba4230631e198d2")


def digest_frames(counts, frames, rng):
    """Weighted scores and view weights of ``frames`` frames, drawn by
    ``rng``: a quarter of the rows continuous, a quarter of 0, 1 and 2 with
    half the zeros -0.0 (which ties +0.0), a quarter constant and a quarter
    rounded to one decimal; every other frame weights its views equally."""
    weighted = []
    for n in counts:
        rows = []
        for f in range(frames):
            kind = f % 4
            if kind == 0:
                row = rng.random(n)
            elif kind == 1:
                row = rng.integers(0, 3, n).astype(np.float64)
                row[(row == 0.0) & (rng.random(n) < 0.5)] = -0.0
            elif kind == 2:
                row = np.full(n, rng.choice([-0.0, 0.0, rng.random()]))
            else:
                row = np.round(rng.random(n), 1)
            rows.append(row)
        weighted.append(np.array(rows))
    inter = rng.random((frames, len(counts)))
    inter[1::2] = inter[1::2, :1]
    return weighted, inter


def digest_results():
    """Every result the digest covers: each strategy plus an adaptive
    config whose frames keep unequal survivor counts, on two layouts, for
    one frame at a time and for all 16 frames in one dispatch."""
    rng = np.random.default_rng(20261018)
    configs = [PruneConfig(strategy=s, seed=3) for s in Strategy] + [
        PruneConfig(alphas=(0.9, 0.5, 0.0), beta=0.75),
        PruneConfig(strategy=Strategy.ADAPTIVE_RATIO_DROP,
                    adaptive_threshold=0.6, adaptive_multiplier=0.5)]
    for counts in ([64, 64, 36], [16, 25, 25]):
        weighted, inter = digest_frames(counts, 16, rng)
        for config in configs:
            for f in range(16):
                yield prune_scores(ImportanceScores(
                    intra_raw=(), intra_weighted=tuple(w[f] for w in weighted),
                    inter=inter[f]), counts, config)
            yield from _dispatch(weighted, inter, counts, config).results()


def test_pruning_digest_is_unchanged():
    digest = hashlib.sha256()
    for r in digest_results():
        digest.update(repr((r.view_token_counts, r.kept,
                            r.local_pruned_counts, r.global_pruned_count,
                            r.ranking)).encode())
        for scores in r.fused_scores:
            digest.update(scores.tobytes())
    assert digest.hexdigest() == PRUNE_DIGEST


# ---------------------------------------------------------------------------
# cost model


def test_flop_estimate_matches_closed_form():
    model = FlopModel()
    assert model.layers == 18 and model.embed_dim == 2048
    for n in (1, 295, 768):
        assert flop_estimate(model, n) == oracle_flops(18, 2048, n)


def test_speedup_for_default_pruning():
    model = FlopModel()
    assert speedup_estimate(model, 768, 295) == pytest.approx(
        2.7012522949311486, rel=1e-12)


def test_speedup_requires_positive_counts():
    model = FlopModel()
    with pytest.raises(ContractError):
        speedup_estimate(model, 0, 1)
    with pytest.raises(ContractError):
        flop_estimate(model, -1)
