"""Importance predictors: forward passes, losses, gradients, and training."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mvprune import predictor
from mvprune.core import (
    ConfigError,
    ContractError,
    MultiViewObservation,
    ParseError,
    TokenGrid,
    TrainingError,
)
from mvprune.predictor import (
    MlpParams,
    TrainConfig,
    _sigmoid,
    build_inter_dataset,
    build_intra_dataset,
    init_mlp,
    inter_features,
    load_params,
    load_trace,
    predict_inter,
    predict_intra,
    save_params,
    save_trace,
    train,
)
from mvprune.bench import _train_config, resolve_config, train_predictors
from mvprune.synth import (
    ScenarioSpec,
    generate_corpus,
    load_corpus,
    write_corpus,
)
from test_core import make_annotation, make_obs


def step(params, x, y, reduction="mean", learning_rate=0.0):
    """One full-batch step of ``train``: its loss, and the parameters after
    it."""
    stepped, losses = train(params, x, y, TrainConfig(
        learning_rate=learning_rate, steps=1, batch_size=0,
        reduction=reduction))
    return losses[0], stepped


def step_gradient(params, x, y, reduction="mean"):
    """The loss of ``train``'s step and the gradient it applies, read back
    as the change of each weight and bias in one step at learning rate 1."""
    value, stepped = step(params, x, y, reduction, learning_rate=1.0)
    return value, [(w - sw, b - sb) for (w, b), (sw, sb)
                   in zip(params.layers, stepped.layers)]


def oracle_loss(params, x, y, reduction="mean"):
    """The reference loop's loss of ``params`` on the batch."""
    return oracles.oracle_train(params.layers, x, y, 0.0, 1, 0, reduction,
                                0)[1][0]


def token_obs(x):
    """An observation of one view whose tokens are the rows of ``x``."""
    grid = TokenGrid(view_id=0, height=1, width=x.shape[0],
                     embed_dim=x.shape[1], tokens=x, cls=np.zeros(x.shape[1]))
    return MultiViewObservation(episode_id="ep", frame_index=0, views=(grid,))


def summary_obs(row):
    """An observation of one 1x1 view per entry of ``row``, whose summary
    tokens concatenate to ``row``."""
    return MultiViewObservation(episode_id="ep", frame_index=0, views=tuple(
        TokenGrid(view_id=v, height=1, width=1, embed_dim=1,
                  tokens=np.zeros((1, 1)), cls=np.array([value]))
        for v, value in enumerate(row)))


def finite_difference_grads(params, x, y, reduction="mean", h=1e-5):
    """Central differences over every weight and bias entry."""
    grads = []
    for li, (w, b) in enumerate(params.layers):
        dw = np.zeros_like(w)
        db = np.zeros_like(b)
        for arr, out in ((w, dw), (b, db)):
            flat = out.reshape(-1)
            for k in range(arr.size):
                for sign in (+1.0, -1.0):
                    bumped = [(wi.copy(), bi.copy())
                              for wi, bi in params.layers]
                    target = bumped[li][0] if arr is w else bumped[li][1]
                    target.reshape(-1)[k] += sign * h
                    shifted = MlpParams(layers=tuple(bumped))
                    flat[k] += sign * step(shifted, x, y, reduction)[0]
                flat[k] /= 2.0 * h
        grads.append((dw, db))
    return grads


def relative_error(got, want):
    scale = max(abs(got), abs(want), 1e-6)
    return abs(got - want) / scale


# ---------------------------------------------------------------------------
# construction


def test_init_mlp_shapes_and_bounds():
    params = init_mlp((4, 8, 3), seed=0)
    shapes = [(w.shape, b.shape) for w, b in params.layers]
    assert shapes == [((8, 4), (8,)), ((3, 8), (3,))]
    assert params.input_width == 4
    assert params.output_width == 3
    for fan_in, (w, b) in zip((4, 8), params.layers):
        bound = 1.0 / math.sqrt(fan_in)
        assert np.abs(w).max() <= bound
        assert np.abs(b).max() <= bound


def test_init_mlp_is_deterministic():
    assert init_mlp((3, 5, 1), seed=7) == init_mlp((3, 5, 1), seed=7)
    assert init_mlp((3, 5, 1), seed=7) != init_mlp((3, 5, 1), seed=8)


def test_mlp_params_must_chain():
    obj = init_mlp((3, 4, 2), seed=0).to_obj()
    obj["layers"][1] = init_mlp((5, 2), seed=0).to_obj()["layers"][0]
    with pytest.raises(ParseError, match="layer 1 expects 5 inputs"):
        MlpParams.from_obj(obj)


@pytest.mark.parametrize("layers", [
    [], [{"weight": [1.0, 2.0], "bias": [0.0]}],
    [{"weight": [[1.0, 2.0]], "bias": [0.0, 0.0]}],
    [{"weight": [[1.0, 1e400]], "bias": [0.0]}],
    [{"weight": [[1.0, 2.0]], "bias": [float("nan")]}]],
    ids=["no_layer", "flat_weight", "bias_too_long", "inf_weight",
         "nan_bias"])
def test_mlp_params_from_obj_refuses_layers(layers):
    obj = {**init_mlp((2, 1), seed=0).to_obj(), "layers": layers}
    with pytest.raises(ParseError):
        MlpParams.from_obj(obj)


@pytest.mark.parametrize("layer, field", [
    ({"weight": [[1.0, 2.0]], "bias": [True]}, "layer 0 bias"),
    ({"weight": [[1.0, False]], "bias": [0.0]}, "layer 0 weight"),
    ({"weight": [True, [2.0]], "bias": [0.0]}, "layer 0 weight"),
    ({"weight": [[1.0, 2.0]], "bias": True}, "layer 0 bias")],
    ids=["bias", "weight", "weight_row", "bias_scalar"])
def test_mlp_params_from_obj_refuses_bools(layer, field):
    # numpy would read each bool as 0.0 or 1.0
    obj = {**init_mlp((2, 1), seed=0).to_obj(), "layers": [layer]}
    with pytest.raises(ParseError,
                       match=f"{field} must hold numbers, got bool") as err:
        MlpParams.from_obj(obj)
    assert err.value.field == field


def test_mlp_params_arrays_are_read_only(tmp_path):
    # as each maker of weights leaves them: init_mlp, train and a loaded
    # checkpoint
    params = init_mlp((3, 4, 1), seed=0)
    trained, _ = train(params, np.zeros((2, 3)), np.zeros((2, 1)),
                       TrainConfig(steps=1, batch_size=0))
    save_params(tmp_path / "p.mlp.json", trained)
    for built in (params, trained, load_params(tmp_path / "p.mlp.json")):
        assert not any(a.flags.writeable for pair in built.layers
                       for a in pair)
    # fresh arrays, not views of train's aligned buffer
    assert all(a.base is None for pair in trained.layers for a in pair)


def test_mlp_params_only_tanh():
    obj = init_mlp((2, 1), seed=0).to_obj()
    assert obj["activation"] == "tanh"
    obj["activation"] = "relu"
    with pytest.raises(ParseError) as err:
        MlpParams.from_obj(obj)
    assert err.value.field == "activation"


# ---------------------------------------------------------------------------
# forward


def test_forward_outputs_probabilities():
    obs = make_obs(view_count=2)
    tokens = predict_intra(init_mlp((obs.embed_dim, 6, 1), seed=1), obs)
    views = predict_inter(init_mlp((2 * obs.embed_dim, 6, 2), seed=1), obs)
    assert [p.shape for p in tokens] == [(6,), (6,)]
    assert views.shape == (2,)
    for p in (*tokens, views):
        assert np.all((p > 0.0) & (p < 1.0))


def test_forward_checks_width():
    obs = make_obs(view_count=2)
    with pytest.raises(ContractError):
        predict_intra(init_mlp((obs.embed_dim + 1, 1), seed=0), obs)
    with pytest.raises(ContractError):
        predict_inter(init_mlp((2 * obs.embed_dim + 1, 2), seed=0), obs)


def test_forward_extreme_logits_stay_clamped():
    w = np.full((1, 1), 1000.0)
    params = MlpParams(layers=((w, np.zeros(1)),))
    high, low = predict_intra(params, token_obs(np.array([[50.0], [-50.0]])))[0]
    assert 0.0 < low < high < 1.0
    assert math.isfinite(oracles.oracle_bce(high, 0.0))
    assert math.isfinite(oracles.oracle_bce(low, 1.0))


def test_predict_intra_per_view_scores():
    obs = make_obs(view_count=2)
    params = init_mlp((obs.embed_dim, 4, 1), seed=2)
    scores = predict_intra(params, obs)
    assert len(scores) == 2
    assert all(s.shape == (view.token_count,)
               for s, view in zip(scores, obs.views))
    with pytest.raises(ContractError):
        predict_intra(init_mlp((obs.embed_dim, 2), seed=0), obs)


def test_predict_inter_uses_concatenated_summaries():
    obs = make_obs(view_count=3)
    feats = inter_features(obs)
    assert feats.shape == (3 * obs.embed_dim,)
    assert np.array_equal(feats[:obs.embed_dim], obs.views[0].cls)
    params = init_mlp((feats.shape[0], 4, 3), seed=3)
    weights = predict_inter(params, obs)
    assert weights.shape == (3,)
    (w1, b1), (w2, b2) = params.layers
    want = oracles.oracle_sigmoid(np.tanh(w1 @ feats + b1) @ w2.T + b2)
    assert weights == pytest.approx(want, rel=1e-12)


def test_predict_inter_checks_output_count():
    obs = make_obs(view_count=3)
    params = init_mlp((3 * obs.embed_dim, 4, 2), seed=0)
    with pytest.raises(ContractError):
        predict_inter(params, obs)


# ---------------------------------------------------------------------------
# losses


def test_loss_is_mean_of_elementwise_bce():
    params = init_mlp((2, 3, 2), seed=4)
    x = np.random.default_rng(1).normal(size=(5, 2))
    y = np.array([[0, 1], [1, 1], [0, 0], [1, 0], [1, 1]], dtype=float)
    p = np.stack([predict_inter(params, summary_obs(row)) for row in x])
    manual = sum(oracles.oracle_bce(p[i, j], y[i, j])
                 for i in range(5) for j in range(2))
    assert step(params, x, y)[0] == pytest.approx(manual / 10.0, rel=1e-12)
    assert step(params, x, y, "sum")[0] == pytest.approx(manual, rel=1e-12)


def test_loss_rejects_empty_and_non_binary():
    params = init_mlp((2, 1), seed=0)
    with pytest.raises(ContractError):
        step(params, np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ContractError):
        step(params, np.zeros((1, 2)), np.array([[0.5]]))
    # a reduction is checked where the train section is read
    with pytest.raises(ConfigError):
        _train_config(resolve_config({"train": {"reduction": "median"}}))


def square_obs(frame_index=0, seed=0):
    """Observation whose 2x2 views line up with make_annotation's grids."""
    from test_core import make_grid
    views = tuple(make_grid(view_id=i, height=2, width=2, seed=seed + i)
                  for i in range(3))
    from mvprune.core import MultiViewObservation
    return MultiViewObservation(episode_id="ep", frame_index=frame_index,
                                views=views)


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("sizes, batch, reduction", [
    ((2, 1), 3, "mean"),
    ((3, 4, 1), 5, "mean"),
    ((2, 3, 2), 4, "sum"),
    ((4, 5, 3, 2), 6, "mean"),
])
def test_gradients_match_central_differences(sizes, batch, reduction):
    rng = np.random.default_rng(hash((sizes, batch)) % 2**32)
    params = init_mlp(sizes, seed=int(rng.integers(1000)))
    x = rng.normal(size=(batch, sizes[0]))
    y = rng.integers(0, 2, size=(batch, sizes[-1])).astype(float)
    value, grads = step_gradient(params, x, y, reduction)
    assert value == pytest.approx(oracle_loss(params, x, y, reduction),
                                  rel=1e-12)
    numeric = finite_difference_grads(params, x, y, reduction)
    for (dw, db), (nw, nb) in zip(grads, numeric):
        for got, want in ((dw, nw), (db, nb)):
            err = np.array([
                relative_error(g, w)
                for g, w in zip(got.reshape(-1), want.reshape(-1))])
            assert err.max() < 1e-4


def test_gradient_structure_mirrors_layers():
    params = init_mlp((3, 4, 2), seed=9)
    x = np.zeros((2, 3))
    y = np.zeros((2, 2))
    _, grads = step_gradient(params, x, y)
    assert len(grads) == len(params.layers)
    for (w, b), (dw, db) in zip(params.layers, grads):
        assert dw.shape == w.shape
        assert db.shape == b.shape


# ---------------------------------------------------------------------------
# training


def separable_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=(n, 1)).astype(float)
    x = y * np.array([[1.0, 0.0]]) + (1 - y) * np.array([[0.0, 1.0]])
    x = x + rng.normal(scale=0.05, size=x.shape)
    return x, y


def test_train_reduces_loss_on_separable_data():
    x, y = separable_data()
    params = init_mlp((2, 8, 1), seed=0)
    config = TrainConfig(learning_rate=0.5, steps=300, batch_size=16, seed=1)
    trained, losses = train(params, x, y, config)
    assert losses.shape == (300,)
    assert losses[-1] < 0.1 * losses[0]
    p = predict_intra(trained, token_obs(x))[0]
    assert ((p > 0.5) == (y[:, 0] > 0.5)).mean() > 0.95


def test_train_is_deterministic():
    x, y = separable_data()
    params = init_mlp((2, 4, 1), seed=0)
    config = TrainConfig(steps=50, batch_size=8, seed=3)
    one, trace_one = train(params, x, y, config)
    two, trace_two = train(params, x, y, config)
    assert one == two
    assert np.array_equal(trace_one, trace_two)


def test_train_zero_learning_rate_is_identity():
    x, y = separable_data(16)
    params = init_mlp((2, 4, 1), seed=0)
    trained, losses = train(params, x, y,
                            TrainConfig(learning_rate=0.0, steps=5,
                                        batch_size=0))
    assert trained == params
    assert np.all(losses == losses[0])


def test_train_full_batch_records_pre_update_loss():
    x, y = separable_data(32)
    params = init_mlp((2, 4, 1), seed=0)
    config = TrainConfig(learning_rate=0.3, steps=3, batch_size=0)
    _, losses = train(params, x, y, config)
    assert losses[0] == pytest.approx(oracle_loss(params, x, y), rel=1e-12)
    assert losses[2] < losses[0]


@pytest.mark.parametrize("batch_size", [0, 8])
def test_train_leaves_inputs_unmodified_and_writeable(batch_size):
    x, y = separable_data(32)
    before = x.tobytes(), y.tobytes()
    train(init_mlp((2, 4, 1), seed=0), x, y,
          TrainConfig(steps=5, batch_size=batch_size))
    assert (x.tobytes(), y.tobytes()) == before
    assert x.flags.writeable and y.flags.writeable


def _outcome(run):
    """What a training run ends in, as bytes, plus the warnings it gave.

    ``run`` returns trained layers (an ``MlpParams`` from ``train``, a list
    of pairs from the reference) and the loss trace."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            layers, losses = run()
        except (TrainingError, oracles.Diverged) as exc:
            return ("raised", exc.step, str(exc)), caught
    layers = getattr(layers, "layers", layers)
    return ("done", [(w.tobytes(), b.tobytes()) for w, b in layers],
            losses.tobytes()), caught


def train_against_reference(params, x, y, config):
    """Run ``train`` and ``oracles.oracle_train``; require the same weights
    and loss trace to the bit, or the same error at the same step, and no
    warning that the reference does not give."""
    got, got_warnings = _outcome(lambda: train(params, x, y, config))
    want, want_warnings = _outcome(lambda: oracles.oracle_train(
        params.layers, x, y, config.learning_rate, config.steps,
        config.batch_size, config.reduction, config.seed))
    assert got == want
    assert {str(w.message) for w in got_warnings} <= {
        str(w.message) for w in want_warnings}
    return got


def network_case(widths, rows, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, widths[0])) * scale
    y = rng.integers(0, 2, size=(rows, widths[-1])).astype(float)
    return init_mlp(widths, seed=seed), x, y


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4),
       st.integers(1, 24), st.sampled_from([0, 1, 7, 32]),
       st.sampled_from(["mean", "sum"]), st.sampled_from([0.0, 0.05, 0.5]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 30))
def test_train_matches_reference_loop_bit_for_bit(
        widths, rows, batch_size, reduction, learning_rate, seed, steps):
    params, x, y = network_case(widths, rows, seed)
    config = TrainConfig(learning_rate=learning_rate, steps=steps,
                         batch_size=batch_size, reduction=reduction,
                         seed=seed)
    assert train_against_reference(params, x, y, config)[0] == "done"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
       st.integers(1, 12), st.sampled_from([0, 4]),
       st.sampled_from(["mean", "sum"]),
       st.sampled_from([0.0, 1.0, 1e300, 1e308]),
       st.sampled_from([1.0, 1e150, 1e300, 1.7e308]),
       st.integers(0, 2 ** 32 - 1))
# a layer-0 gradient that OpenBLAS's generic kernel rounds differently when
# a weight starts 8 bytes off a 16-byte boundary
@example(widths=[2, 1, 3], rows=1, batch_size=0, reduction="mean",
         learning_rate=1.0, scale=1.0, seed=1)
def test_train_diverges_like_reference_loop(
        widths, rows, batch_size, reduction, learning_rate, scale, seed):
    params, x, y = network_case(widths, rows, seed, scale)
    config = TrainConfig(learning_rate=learning_rate, steps=8,
                         batch_size=batch_size, reduction=reduction,
                         seed=seed)
    train_against_reference(params, x, y, config)


@pytest.mark.parametrize("batch_size", [1, 7, 128])
def test_chunked_draws_equal_per_step_draws(batch_size, monkeypatch):
    # train draws the batch indices of many steps in one rng.integers call,
    # which must give the indices of one call per step
    chunked, per_step = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):
        for row in chunked.integers(0, 1000, size=(4, batch_size)):
            assert np.array_equal(
                row, per_step.integers(0, 1000, size=batch_size))
    # so train still matches the reference loop across chunk boundaries
    monkeypatch.setattr(predictor, "_DRAW_CHUNK", 4 * batch_size)
    params, x, y = network_case([3, 4, 1], 20, seed=batch_size)
    config = TrainConfig(learning_rate=0.5, steps=10, batch_size=batch_size,
                         seed=5)
    assert train_against_reference(params, x, y, config)[0] == "done"


def logistic(weights):
    return MlpParams(layers=((np.array([weights], dtype=float),
                              np.zeros(1)),))


@pytest.mark.parametrize("learning_rate", [0.0, 0.1])
def test_train_reports_a_gradient_that_is_not_finite(learning_rate):
    # z is -inf, so p is clamped near 0 against targets of 1 and every row
    # adds about -1e308 to the weight gradient
    x = np.full((16, 2), 1e308)
    config = TrainConfig(learning_rate=learning_rate, steps=3, batch_size=0,
                         reduction="sum")
    got = train_against_reference(logistic([-1.0, -1.0]), x,
                                  np.ones((16, 1)), config)
    assert got == ("raised", 0, "step 0: gradient is not finite")


def test_train_raises_on_divergence():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=(16, 1)).astype(float)
    x = rng.normal(scale=100.0, size=(16, 2))
    config = TrainConfig(learning_rate=1e308, steps=50, batch_size=0)
    got = train_against_reference(init_mlp((2, 4, 1), seed=0), x, y, config)
    assert got[0] == "raised" and got[2].endswith("parameters are not finite")


def test_train_reports_a_loss_that_is_not_finite():
    # each product overflows to +-inf, so every logit is inf - inf = nan
    x = np.array([[1e308, 1e308, -1e308, -1e308]] * 4)
    config = TrainConfig(steps=2, batch_size=0)
    got = train_against_reference(logistic([10.0] * 4), x, np.ones((4, 1)),
                                  config)
    assert got == ("raised", 0, "step 0: loss is not finite: nan")


def test_sigmoid_is_bit_identical_to_two_branch_form():
    # 0 and -0, where exp over- and underflows, subnormals, the largest
    # finite value; np.negative gives each its negative, -0.0 included
    edges = [0.0, 36.8, 37.0, 709.0, 709.78, 710.0, 745.0, 745.2, 746.0,
             np.nextafter(0.0, 1.0), 1e-310, 2.2250738585072014e-308,
             1e-300, 1e300, np.finfo(float).max, np.inf]
    rng = np.random.default_rng(0)
    z = np.concatenate([edges, np.negative(edges), rng.normal(size=1000),
                        rng.normal(scale=300.0, size=1000),
                        rng.uniform(-800.0, 800.0, size=1000)])
    assert _sigmoid(z).tobytes() == oracles.oracle_sigmoid(z).tobytes()


def test_train_config_validation():
    def read(**train):
        return _train_config(resolve_config({"train": train}))

    assert read(reduction="sum")[1] == TrainConfig(
        learning_rate=0.5, steps=600, batch_size=128, reduction="sum", seed=3)
    with pytest.raises(ConfigError):
        read(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        read(reduction="max")
    with pytest.raises(ConfigError) as err:
        read(steps=-1)
    assert isinstance(err.value.__cause__, ContractError)


# ---------------------------------------------------------------------------
# datasets


def test_build_intra_dataset_stacks_tokens_and_mask_bits():
    ann = make_annotation()
    observations = [square_obs(frame_index=t, seed=t) for t in range(2)]
    x, y = build_intra_dataset(observations, {ann.episode_id: ann})
    total = sum(o.total_tokens for o in observations)
    assert x.shape == (total, observations[0].embed_dim)
    assert y.shape == (total, 1)
    first = observations[0]
    assert np.array_equal(x[:first.views[0].token_count],
                          first.views[0].tokens)
    assert y[1, 0] == 1.0  # the one set mask bit of the head view


@pytest.fixture(scope="module")
def generated_corpus(tmp_path_factory):
    """A small generated corpus, and the same corpus written and loaded."""
    episodes = generate_corpus(ScenarioSpec(embed_dim=8, patch_size=32), 2,
                               seed=4)
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(episodes, 4, out)
    return episodes, load_corpus(out)


def training_set(episodes):
    observations = [obs for ep in episodes for obs in ep.observations]
    return observations, {ep.episode_id: ep.annotation for ep in episodes}


def stacked_tokens(observations):
    return np.concatenate([view.tokens for obs in observations
                           for view in obs.views])


def test_build_intra_dataset_shares_a_generated_corpus(generated_corpus):
    observations, annotations = training_set(generated_corpus[0])
    x, y = build_intra_dataset(observations, annotations)
    first, last = observations[0].views[0], observations[-1].views[-1]
    assert np.shares_memory(x, first.tokens)
    assert np.shares_memory(x, last.tokens)
    assert not x.flags.writeable
    assert x.tobytes() == stacked_tokens(observations).tobytes()
    assert y.shape == (x.shape[0], 1)


@pytest.mark.parametrize("pick", ["loaded", "subset", "reordered"])
def test_build_intra_dataset_copies_other_corpora(generated_corpus, pick):
    episodes, loaded = generated_corpus
    observations, annotations = training_set(episodes)
    buffer = observations[0].views[0].tokens.base
    observations = {
        "loaded": training_set(loaded)[0],
        "subset": observations[::2],
        "reordered": observations[::-1]}[pick]
    x, y = build_intra_dataset(observations, annotations)
    assert x.tobytes() == stacked_tokens(observations).tobytes()
    assert not np.may_share_memory(x, buffer)
    assert not any(np.may_share_memory(x, view.tokens)
                   for obs in observations for view in obs.views)
    masks = [annotations[obs.episode_id].frames[obs.frame_index].masks
             for obs in observations]
    assert np.array_equal(y[:, 0], np.concatenate(sum(map(list, masks), [])))


def test_train_predictors_same_weights_shared_or_copied(generated_corpus):
    """Training on a view of the generated buffer and on the loaded
    corpus's copy gives the same weights to the bit."""
    episodes, loaded = generated_corpus
    config = resolve_config({"train": {"hidden": 8, "steps": 40,
                                       "batch_size": 16}})
    shared = train_predictors(*training_set(episodes), config)
    copied = train_predictors(*training_set(loaded), config)
    for a, b in zip(shared[:2], copied[:2]):
        for (w, bias), (w2, bias2) in zip(a.layers, b.layers):
            assert w.tobytes() == w2.tobytes()
            assert bias.tobytes() == bias2.tobytes()
    for a, b in zip(shared[2:], copied[2:]):
        assert a.tobytes() == b.tobytes()


def test_build_inter_dataset_one_row_per_frame():
    ann = make_annotation()
    observations = [square_obs(frame_index=t, seed=t) for t in range(3)]
    x, y = build_inter_dataset(observations, {ann.episode_id: ann})
    assert x.shape == (3, 3 * observations[0].embed_dim)
    assert y.shape == (3, 3)
    assert y[:, 0].tolist() == [1.0, 1.0, 1.0]
    assert y[:, 1].tolist() == [0.0, 1.0, 0.0]


def test_dataset_requires_matching_annotation():
    observations = [square_obs()]
    other = make_annotation()
    wrong = {"different": other}
    with pytest.raises(ContractError):
        build_intra_dataset(observations, wrong)
    with pytest.raises(ContractError):
        build_inter_dataset(observations, wrong)


# ---------------------------------------------------------------------------
# persistence


def test_params_round_trip_is_exact(tmp_path):
    params = init_mlp((3, 5, 2), seed=11)
    path = tmp_path / "net.mlp.json"
    save_params(path, params)
    again = load_params(path)
    assert again == params
    for (w, b), (w2, b2) in zip(params.layers, again.layers):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)


def test_trace_round_trip_is_exact(tmp_path):
    losses = np.array([0.7, 0.35, 1e-9, 0.1234567890123456789])
    path = tmp_path / "trace.csv"
    save_trace(path, losses)
    again = load_trace(path)
    assert np.array_equal(again, losses)


def test_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("loss\n0.5\n")
    with pytest.raises(ParseError):
        load_trace(path)
