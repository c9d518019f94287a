"""Benchmark harness: metrics, experiment driver, artifacts, and the CLI."""

import builtins
import json
import shutil
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from mvprune import bench
from mvprune.bench import (
    DEFAULT_CONFIG,
    MetricsReport,
    _flop_model,
    _parse,
    _prepare,
    _prune_config,
    _section,
    _train_config,
    accuracy,
    auc_score,
    compare_strategies,
    derive_annotations,
    evaluate_strategy,
    load_experiment_config,
    precision_recall,
    resolve_config,
    run_experiment,
    scenario_template,
    score_corpus,
    sweep_beta,
    train_predictors,
    validate_artifacts,
)
from mvprune.cli import main
from mvprune.core import (
    AnnotationError,
    ConfigError,
    ContractError,
    ParseError,
    PruneConfig,
    PruneResult,
    Strategy,
    load_annotation,
)
from mvprune.pruner import (
    FlopModel,
    flop_estimate,
    prune_observation,
    prune_scores,
    score_observation,
)
from mvprune.synth import ArmScript, generate_corpus, load_corpus

SMALL = {
    "corpus": {"count": 2, "seed": 11, "episode_length": 12, "embed_dim": 8,
               "distractors": 1},
    "train": {"hidden": 16, "steps": 120, "batch_size": 64},
}


# ---------------------------------------------------------------------------
# classifier metrics


def test_auc_golden():
    assert auc_score([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert auc_score([0.1, 0.2, 0.9], [0, 0, 1]) == 1.0
    assert auc_score([0.9, 0.2, 0.1], [0, 0, 1]) == 0.0
    assert auc_score([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                          st.integers(0, 1)), min_size=2, max_size=40))
def test_auc_matches_pairwise_oracle(pairs):
    labels = [label for _, label in pairs]
    assume(0 < sum(labels) < len(labels))
    scores = [score for score, _ in pairs]
    assert auc_score(scores, labels) == oracles.oracle_auc(scores, labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 400), st.integers(1, 400),
       st.floats(0.0, 1.0))
def test_auc_is_exact_on_tied_and_untied_scores(seed, size, distinct,
                                                 positive_share):
    # ``distinct`` of 1 ties everything; a large one leaves few ties
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, distinct, size) / distinct
    labels = (rng.random(size) < positive_share).astype(int)
    labels[:2] = (0, 1)
    rng.shuffle(labels)
    assert auc_score(scores, labels) == oracles.oracle_auc(scores.tolist(),
                                                           labels.tolist())


@pytest.mark.parametrize("distinct", [196_608, 1000, 1], ids=str)
def test_auc_peaks_at_most_four_times_its_scores(distinct):
    """No per-token rank array: the sorted copies go once used."""
    rng = np.random.default_rng(0)
    scores = rng.integers(0, distinct, 196_608) / distinct
    labels = (rng.random(scores.size) < 0.3).astype(np.uint8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        auc = auc_score(scores, labels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * scores.nbytes
    assert 0.0 <= auc <= 1.0


def test_auc_rejects_degenerate_inputs():
    with pytest.raises(ContractError):
        auc_score([0.1, 0.2], [1, 1])
    with pytest.raises(ContractError):
        auc_score([0.1, 0.2], [0, 0])
    with pytest.raises(ContractError):
        auc_score([0.1, 0.2, 0.3], [0, 1])
    with pytest.raises(ContractError):
        auc_score([0.1, 0.2], [0, 2])


def test_precision_recall_golden():
    precision, recall = precision_recall([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    assert precision == 0.5
    assert recall == 0.5
    precision, recall = precision_recall([0.9, 0.6, 0.4], [1, 1, 0],
                                         threshold=0.7)
    assert precision == 1.0
    assert recall == 0.5


def test_precision_recall_edges():
    precision, recall = precision_recall([0.1, 0.1], [1, 0], threshold=0.9)
    assert precision == 0.0
    assert recall == 0.0
    with pytest.raises(ContractError):
        precision_recall([0.9, 0.1], [0, 0])
    with pytest.raises(ContractError):
        precision_recall([0.9], [0, 1])


def test_accuracy():
    assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
    with pytest.raises(ContractError):
        accuracy([], [])
    with pytest.raises(ContractError):
        accuracy([1, 0], [1])


# ---------------------------------------------------------------------------
# metrics report


def report_kwargs(**overrides):
    kwargs = dict(
        strategy="hierarchical", episodes=1, frames=2,
        tokens_before=(512, 512), tokens_post_local=(360, 410),
        tokens_kept=(200, 95), reduction_ratio=1.0 - 295 / 1024,
        flop_speedup=2.5, retention_relevant=0.9, intra_auc=0.97,
        intra_precision=0.8, intra_recall=0.7, inter_accuracy=0.95,
        inter_precision=0.9, inter_recall=0.85)
    kwargs.update(overrides)
    return kwargs


def test_report_totals_and_shares():
    report = MetricsReport(**report_kwargs())
    assert report.before_total == 1024
    assert report.kept_total == 295
    assert report.kept_share_per_view == (200 / 295, 95 / 295)
    zero = MetricsReport(**report_kwargs(
        tokens_kept=(0, 0), reduction_ratio=1.0))
    assert zero.kept_share_per_view == (0.0, 0.0)


def test_report_rows_fixed_order():
    report = MetricsReport(**report_kwargs())
    names = [name for name, _ in report.rows()]
    assert names == [
        "episodes", "frames", "tokens_before_total",
        "tokens_post_local_total", "tokens_kept_total",
        "tokens_before_view0", "tokens_post_local_view0",
        "tokens_kept_view0", "kept_share_view0",
        "tokens_before_view1", "tokens_post_local_view1",
        "tokens_kept_view1", "kept_share_view1",
        "reduction_ratio", "flop_speedup", "retention_relevant",
        "intra_auc", "intra_precision", "intra_recall",
        "inter_accuracy", "inter_precision", "inter_recall",
    ]
    as_dict = dict(report.rows())
    assert as_dict["tokens_kept_view0"] == "200"
    assert as_dict["flop_speedup"] == "2.5"


# ---------------------------------------------------------------------------
# configuration


def test_resolve_config_defaults_are_copied():
    resolved = resolve_config(None)
    assert resolved["corpus"] == DEFAULT_CONFIG["corpus"]
    resolved["corpus"]["count"] = 999
    assert DEFAULT_CONFIG["corpus"]["count"] == 4


def test_resolve_config_merges_overrides():
    resolved = resolve_config({"corpus": {"count": 2},
                               "prune": {"beta": 0.25}})
    assert resolved["corpus"]["count"] == 2
    assert resolved["corpus"]["seed"] == DEFAULT_CONFIG["corpus"]["seed"]
    assert resolved["prune"]["beta"] == 0.25
    assert resolved["train"] == DEFAULT_CONFIG["train"]


def test_resolve_config_rejects_unknowns():
    with pytest.raises(ConfigError):
        resolve_config({"corpsu": {}})
    with pytest.raises(ConfigError):
        resolve_config({"corpus": {"episodes": 3}})
    with pytest.raises(ConfigError,
                       match="unknown config key train.lambda_inter"):
        resolve_config({"train": {"lambda_inter": 0.1}})
    with pytest.raises(ConfigError):
        resolve_config({"corpus": 3})
    with pytest.raises(ConfigError):
        resolve_config({"fmt": 99})
    with pytest.raises(ConfigError):
        resolve_config({"kind": "something_else"})
    with pytest.raises(ConfigError):
        resolve_config([1, 2])


@pytest.mark.parametrize("exc", [
    KeyError("hidden"), TypeError("bad"), ValueError("bad"),
    ContractError("bad", field="steps"), ParseError("bad", field="beta"),
    AttributeError("bad"), OverflowError("bad")],
    ids=lambda exc: type(exc).__name__)
def test_section_maps_to_config_error(exc):
    with pytest.raises(ConfigError) as err:
        with _section("train"):
            raise exc
    assert str(err.value) == f"invalid train section: {exc}"
    assert err.value.__cause__ is exc


# a value no config key accepts, or one at the far end of a key's range
_EXTREME = st.sampled_from([2**2000, 10**400, 2**64, -(2**64), -1, 0, 1e308,
                            float("inf"), float("nan"), None, True, "", "x",
                            [0.5] * 100_000])
_CONFIG_VALUES = st.one_of(_EXTREME, st.recursive(
    st.one_of(_EXTREME, st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8))
# every key of the default config, plus unknown ones
_CONFIG_PATHS = [(name,) for name in DEFAULT_CONFIG] + [("nope",)] + [
    (name, key) for name, section in DEFAULT_CONFIG.items()
    if isinstance(section, dict) for key in [*section, "nope"]]


@st.composite
def _mutated_config(draw):
    """Overrides that set a few keys or sections of the default config to
    extreme values, or that are one extreme value themselves."""
    if draw(st.integers(0, 19)) == 0:
        return draw(_CONFIG_VALUES)
    overrides = {}
    for path in draw(st.lists(st.sampled_from(_CONFIG_PATHS), min_size=1,
                              max_size=3)):
        if len(path) == 1 or not isinstance(overrides.get(path[0], {}), dict):
            overrides[path[0]] = draw(_CONFIG_VALUES)
        else:
            overrides.setdefault(path[0], {})[path[1]] = draw(_CONFIG_VALUES)
    return overrides


@settings(max_examples=300, deadline=None)
@given(_mutated_config())
def test_config_parsers_raise_only_config_error(overrides):
    # parse only: generating or training would let a fuzzed value size an
    # allocation
    try:
        config = resolve_config(overrides)
    except ConfigError:
        return
    for parse in (scenario_template, _prune_config, _train_config, _parse,
                  lambda config: _flop_model(config, (16, 768))):
        try:
            parse(config)
        except ConfigError:
            pass


# the keys that size the corpus token buffer or a training array
SIZE_KEYS = [("corpus", "count"), ("corpus", "episode_length"),
             ("corpus", "embed_dim"), ("train", "hidden"), ("train", "steps"),
             ("train", "batch_size")]


@pytest.mark.parametrize("section, key", SIZE_KEYS,
                         ids=[f"{s}.{k}" for s, k in SIZE_KEYS])
def test_parse_refuses_a_size_numpy_cannot_allocate(section, key):
    with pytest.raises(ConfigError, match=(
            f"^invalid {section} section: .*{section}\\.{key}.* more than "
            f"numpy can allocate")):
        _parse(resolve_config({section: {key: 10 ** 30}}))


def test_parse_bounds_the_token_buffer_at_sys_maxsize_bytes():
    # 12 frames of 768 tokens, 8 bytes a float
    fits = sys.maxsize // (8 * 12 * 768)
    corpus = {"count": 1, "episode_length": 12}
    _parse(resolve_config({"corpus": {**corpus, "embed_dim": fits}}))
    with pytest.raises(ConfigError, match="a token buffer of corpus.count"):
        _parse(resolve_config({"corpus": {**corpus, "embed_dim": fits + 1}}))
    # sizes that each fit, and together do not
    _parse(resolve_config({"corpus": {"count": 10 ** 9}}))
    _parse(resolve_config({"corpus": {"embed_dim": 10 ** 9}}))
    with pytest.raises(ConfigError, match="a token buffer of corpus.count"):
        _parse(resolve_config({"corpus": {"count": 10 ** 9,
                                          "embed_dim": 10 ** 9}}))


def test_parse_bounds_full_batch_activations_by_the_corpus_tokens():
    # 10**14 hidden units fit as weights, and as activations of a batch of
    # 128, but not as activations of the default corpus's 49152 tokens
    _parse(resolve_config({"train": {"hidden": 10 ** 14}}))
    with pytest.raises(ConfigError,
                       match="train.hidden x corpus tokens activations"):
        _parse(resolve_config({"train": {"hidden": 10 ** 14,
                                         "batch_size": 0}}))


@pytest.mark.parametrize("section, key", SIZE_KEYS,
                         ids=[f"{s}.{k}" for s, k in SIZE_KEYS])
def test_cli_commands_agree_on_a_size_numpy_cannot_allocate(
        section, key, experiment_dir, tmp_path, capsys):
    run = experiment_dir[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: 10 ** 30}}))
    staged = ["--corpus", str(run / "corpus"),
              "--intra", str(run / "intra.mlp.json"),
              "--inter", str(run / "inter.mlp.json")]
    for argv in (["prune"], ["gen"], ["train", *staged[:2]],
                 ["prune", *staged]):
        code = main([*argv, "--config", str(config),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith(f"error: invalid {section} section: ")
        assert f"{section}.{key}" in err
        assert not (tmp_path / "out").exists()


def test_load_experiment_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"count": 2}}), encoding="utf-8")
    config = load_experiment_config(path)
    assert config["corpus"]["count"] == 2
    assert config["kind"] == "experiment_config"


def test_scenario_template_scales_scripts():
    default = scenario_template(resolve_config(None))
    assert default.episode_length == 16
    assert default.arms == (ArmScript(3, 5, 9), ArmScript(5, 8, 12))
    assert default.distractors == 2
    assert default.noise_sigma == 0.05
    short = scenario_template(resolve_config(SMALL))
    assert short.arms == (ArmScript(2, 4, 7), ArmScript(4, 6, 9))
    with pytest.raises(ConfigError):
        scenario_template(resolve_config({"corpus": {"episode_length": 8}}))


# ---------------------------------------------------------------------------
# experiment stages


@pytest.fixture(scope="module")
def small_run():
    config = resolve_config(SMALL)
    template = scenario_template(config)
    episodes = generate_corpus(template, config["corpus"]["count"],
                               config["corpus"]["seed"])
    derived = derive_annotations(episodes)
    observations = [obs for ep in episodes for obs in ep.observations]
    by_id = {ann.episode_id: ann for ann in derived}
    intra, inter, intra_losses, inter_losses = train_predictors(
        observations, by_id, config)
    assert intra_losses[-1] < intra_losses[0]
    assert inter_losses[-1] < inter_losses[0]
    return config, episodes, derived, intra, inter


def small_eval(small_run, prune_config=None):
    config, episodes, derived, intra, inter = small_run
    prune_config = prune_config or PruneConfig()
    corpus = score_corpus(episodes, intra, inter, prune_config.epsilon)
    return evaluate_strategy(corpus, prune_config, FlopModel(18, 2048))


def test_derive_annotations_match_ground_truth(small_run):
    _, episodes, derived, _, _ = small_run
    assert [a == e.annotation for a, e in zip(derived, episodes)] == [True] * 2


def test_derive_annotations_detect_divergence(small_run):
    _, episodes, _, _, _ = small_run
    episode = episodes[0]
    frames = list(episode.annotation.frames)
    masks = [mask.copy() for mask in frames[2].masks]
    masks[1][0] = 1 - masks[1][0]
    frames[2] = replace(frames[2], masks=tuple(masks))
    tampered = replace(episode.annotation, frames=tuple(frames))
    with pytest.raises(AnnotationError) as err:
        derive_annotations([replace(episode, annotation=tampered)])
    assert err.value.frame == 2


def test_evaluate_strategy_totals(small_run):
    report, results = small_eval(small_run)
    assert report.strategy == "hierarchical"
    assert report.episodes == 2
    assert report.frames == 24
    assert report.tokens_before == (6144, 6144, 6144)
    assert report.tokens_post_local == (180 * 24, 205 * 24, 205 * 24)
    assert report.kept_total == 295 * 24
    assert report.reduction_ratio == pytest.approx(1 - 295 / 768)
    assert report.flop_speedup > 2.0
    # one batch per episode
    assert [len(batch.kept) for batch in results] == [12, 12]


def test_evaluate_strategy_no_prune_is_identity(small_run):
    report, _ = small_eval(
        small_run, prune_config=PruneConfig(strategy=Strategy.NO_PRUNE))
    assert report.kept_total == report.before_total
    assert report.reduction_ratio == 0.0
    assert report.flop_speedup == 1.0
    assert report.retention_relevant == 1.0


def frame_results(batches):
    """Each episode's per-frame results, read off its batch."""
    return [list(batch.results()) for batch in batches]


def per_frame_results(small_run, prune_config):
    """Reference results: prune_observation, one frame at a time."""
    _, episodes, _, intra, inter = small_run
    return [[prune_observation(obs, intra, inter, prune_config)[1]
             for obs in ep.observations] for ep in episodes]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(list(Strategy)),
       st.lists(st.integers(0, 19), min_size=3, max_size=3),
       st.integers(0, 19), st.sampled_from([0.01, 0.5]),
       st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 99))
def test_evaluate_strategy_with_shared_scores_matches_per_frame(
        small_run, strategy, alphas, beta, epsilon, threshold, seed):
    _, episodes, _, intra, inter = small_run
    config = PruneConfig(alphas=tuple(a / 20 for a in alphas), beta=beta / 20,
                         epsilon=epsilon, strategy=strategy,
                         adaptive_threshold=threshold, seed=seed)
    corpus = score_corpus(episodes, intra, inter, epsilon)
    assert corpus.scores == tuple(
        tuple(score_observation(obs, intra, inter, epsilon)
              for obs in ep.observations) for ep in episodes)
    _, results = evaluate_strategy(corpus, config, FlopModel(18, 2048))
    assert frame_results(results) == per_frame_results(small_run, config)


def test_evaluate_strategy_rejects_other_epsilon(small_run):
    """Scores weighted with one epsilon would misreport the retention of a
    config with another."""
    _, episodes, _, intra, inter = small_run
    corpus = score_corpus(episodes, intra, inter, 0.01)
    with pytest.raises(ContractError, match="epsilon"):
        evaluate_strategy(corpus, PruneConfig(epsilon=5.0),
                          FlopModel(18, 2048))


def test_compare_strategies_equals_per_frame_evaluations(small_run,
                                                         tmp_path):
    config = small_run[0]
    reports = compare_strategies(config, tmp_path)
    assert list(reports) == [s.value for s in (
        Strategy.HIERARCHICAL, Strategy.RANDOM_DROP,
        Strategy.ADAPTIVE_RATIO_DROP, Strategy.NO_PRUNE)]
    for name, report in reports.items():
        prune_config = replace(PruneConfig(), strategy=Strategy(name))
        alone, results = small_eval(small_run, prune_config=prune_config)
        assert [(m, str(v)) for m, v in report.rows()] \
            == [(m, str(v)) for m, v in alone.rows()]
        assert frame_results(results) \
            == per_frame_results(small_run, prune_config)


def per_frame_report(corpus, config, flop_model):
    """The report of a per-frame ``prune_scores`` loop over a scored corpus,
    folded frame by frame, and the loop's results per episode."""
    expected = [[prune_scores(scores, [v.token_count for v in obs.views],
                              config)
                 for obs, scores in zip(ep.observations, ep_scores)]
                for ep, ep_scores in zip(corpus.episodes, corpus.scores)]
    frames = [(obs, ep.annotation.frames[obs.frame_index].masks, result)
              for ep, ep_results in zip(corpus.episodes, expected)
              for obs, result in zip(ep.observations, ep_results)]
    before = [sum(col) for col in zip(*(r.view_token_counts
                                        for _, _, r in frames))]
    kept = [sum(col) for col in zip(*(r.kept_per_view for _, _, r in frames))]
    flops_before = flops_after = 0.0
    relevant_kept = relevant_total = 0
    for obs, masks, result in frames:
        flops_before += flop_estimate(flop_model, obs.total_tokens)
        flops_after += flop_estimate(flop_model, max(result.kept_total, 1))
        for mask, kept_view in zip(masks, result.kept):
            relevant_total += int(mask.sum())
            relevant_kept += int(mask[list(kept_view)].sum())
    report = MetricsReport(
        strategy=config.strategy.value, episodes=len(corpus.episodes),
        frames=len(frames), tokens_before=tuple(before),
        tokens_post_local=tuple(
            sum(col) for col in zip(*(r.post_local_counts
                                      for _, _, r in frames))),
        tokens_kept=tuple(kept), reduction_ratio=1.0 - sum(kept) / sum(before),
        flop_speedup=flops_before / flops_after,
        retention_relevant=(relevant_kept / relevant_total
                            if relevant_total else 1.0),
        **corpus.classifier)
    return report, expected


def test_evaluate_strategy_draws_random_drop_once_per_token_counts(
        small_run, monkeypatch):
    """The random baseline reads only the view token counts, so one draw
    serves every frame of a batch, which shares its counts; results and
    report are those of a per-frame ``prune_scores`` loop."""
    _, episodes, _, intra, inter = small_run
    config = PruneConfig(strategy=Strategy.RANDOM_DROP, seed=5)
    flop_model = FlopModel(18, 2048)
    corpus = score_corpus(episodes, intra, inter, config.epsilon)
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: draws.append(args) or default_rng(*args))
    report, results = evaluate_strategy(corpus, config, flop_model)
    monkeypatch.undo()
    # one batch per episode, every frame three 16x16 views
    assert draws == [(5,), (5,)]
    want, expected = per_frame_report(corpus, config, flop_model)
    assert frame_results(results) == expected
    assert report == want
    assert report.frames == 24


@pytest.fixture(scope="module")
def default_corpus():
    """The default config's corpus, scored by predictors trained on it."""
    return bench._scored_corpus(resolve_config(None), PruneConfig().epsilon)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_evaluate_strategy_folds_like_per_frame_results(default_corpus,
                                                        strategy):
    """On the default corpus each strategy's batched report equals the fold
    of per-frame ``prune_scores`` results, and so do the results."""
    config = PruneConfig(strategy=strategy)
    flop_model = FlopModel(18, 2048)
    report, results = evaluate_strategy(default_corpus, config, flop_model)
    want, expected = per_frame_report(default_corpus, config, flop_model)
    assert report == want
    assert [(m, str(v)) for m, v in report.rows()] \
        == [(m, str(v)) for m, v in want.rows()]
    assert frame_results(results) == expected


@pytest.mark.parametrize("run", [
    lambda out: compare_strategies(None, out),
    lambda out: sweep_beta(None, [0.0, 0.25, 0.5, 0.75], out)],
    ids=["compare_strategies", "sweep_beta"])
def test_compare_and_sweep_build_no_per_frame_results(run, tmp_path,
                                                      monkeypatch):
    """They keep only reports, so they build no ``PruneResult`` per frame:
    at most the random baseline's one per distinct token-count tuple, of
    which the default corpus has one."""
    built = []
    init = PruneResult.__init__
    monkeypatch.setattr(PruneResult, "__init__", lambda self, *args, **kw:
                        built.append(self) or init(self, *args, **kw))
    run(tmp_path)
    assert len(built) <= 1


def test_trained_predictors_beat_random_drop(small_run):
    hier, _ = small_eval(small_run)
    rand, _ = small_eval(
        small_run, prune_config=PruneConfig(strategy=Strategy.RANDOM_DROP))
    assert hier.kept_total == rand.kept_total
    assert hier.retention_relevant > rand.retention_relevant


# ---------------------------------------------------------------------------
# experiment driver and artifacts


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    report = run_experiment(resolve_config(SMALL), out)
    return out, report


def test_a_local_ratio_short_is_refused_before_any_work(experiment_dir,
                                                        tmp_path, capsys):
    out, run = tmp_path / "out", experiment_dir[0]
    with pytest.raises(ConfigError, match="one local ratio per view"):
        run_experiment({"prune": {"alphas": [0.3, 0.2]}}, out)
    assert not out.exists()
    staged = ["--corpus", str(run / "corpus"),
              "--intra", str(run / "intra.mlp.json"),
              "--inter", str(run / "inter.mlp.json")]
    for argv in ([], staged):
        assert main(["prune", *argv, "--out", str(out),
                     "--alphas", "0.3,0.2"]) == 2
        assert "one local ratio per view" in capsys.readouterr().err
        assert not out.exists()


BAD_TRAIN = {"train": {"learning_rate": -1.0}}


def counted_generate(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "generate_corpus",
                        lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize("run", [
    lambda out: run_experiment(BAD_TRAIN, out),
    lambda out: compare_strategies(BAD_TRAIN, out),
    lambda out: sweep_beta(BAD_TRAIN, [0.5], out)],
    ids=["run_experiment", "compare_strategies", "sweep_beta"])
def test_bad_train_section_is_refused_before_generating(run, tmp_path,
                                                        monkeypatch):
    calls = counted_generate(monkeypatch)
    with pytest.raises(ConfigError, match="learning_rate"):
        run(tmp_path)
    assert calls == []


def test_cli_prune_refuses_bad_train_section_before_generating(
        tmp_path, monkeypatch, capsys):
    calls = counted_generate(monkeypatch)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BAD_TRAIN), encoding="utf-8")
    code = main(["prune", "--config", str(config), "--out",
                 str(tmp_path / "run")])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("checkpoints", [("--intra", "--inter"),
                                         ("--intra",)])
def test_cli_prune_refuses_checkpoints_without_a_corpus(
        checkpoints, experiment_dir, tmp_path, monkeypatch, capsys):
    calls = counted_generate(monkeypatch)
    argv = ["prune", "--out", str(tmp_path / "run")]
    for flag in checkpoints:
        argv += [flag, str(experiment_dir[0] / f"{flag[2:]}.mlp.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--corpus" in err
    assert calls == []
    assert not (tmp_path / "run").exists()


def test_cli_train_parses_train_section_before_loading(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "ckpt"), "--learning-rate", "-1"])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err


def test_prepare_holds_the_corpus_tokens_once():
    """Training reads the generated corpus's one token buffer in place: the
    tokens are never held twice."""
    config = resolve_config({"corpus": {"patch_size": 8, "count": 4}})
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        episodes = _prepare(config)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    token_bytes = sum(view.tokens.nbytes for ep in episodes
                      for obs in ep.observations for view in obs.views)
    assert token_bytes == 4 * 16 * 3 * 32 ** 2 * 32 * 8
    assert peak < 1.4 * token_bytes


def test_run_experiment_layout(experiment_dir):
    out, report = experiment_dir
    assert report.frames == 24
    names = {p.name for p in out.iterdir()}
    assert names == {"corpus", "intra.mlp.json", "inter.mlp.json",
                     "intra_trace.csv", "inter_trace.csv", "report.csv",
                     "timings.csv", "config.resolved.json"}
    corpus_names = {p.name for p in (out / "corpus").iterdir()}
    assert corpus_names == {"manifest.json"} | {
        f"{eid}.{suffix}" for eid in ("ep0000", "ep0001")
        for suffix in ("obs.jsonl", "obs.npy", "ann.jsonl", "geom.jsonl",
                       "prune.jsonl")}
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "strategy,metric,value"


def test_run_experiment_is_reproducible(experiment_dir, tmp_path):
    """Every artifact but timings.csv, token sidecars included, is rewritten
    byte for byte by a second run into another directory."""
    out, report = experiment_dir
    again = run_experiment(resolve_config(SMALL), tmp_path)
    assert again == report

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and p.name != "timings.csv")

    assert files(tmp_path) == files(out)
    assert sum(rel.suffix == ".npy" for rel in files(out)) == 2
    for rel in files(out):
        assert (tmp_path / rel).read_bytes() == (out / rel).read_bytes(), \
            str(rel)


def test_validate_artifacts_clean(experiment_dir):
    out, _ = experiment_dir
    assert validate_artifacts(out) == []
    assert validate_artifacts(out / "missing") == [
        f"{out / 'missing'}: not a directory"]


def test_validate_artifacts_opens_each_corpus_file_once(tmp_path,
                                                        monkeypatch):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--episodes", "1",
                 *CLI_GEN[2:]]) == 0
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert validate_artifacts(tmp_path) == []
    files = sorted(path.name for path in corpus.glob("ep0000.*"))
    assert len(files) == 4
    assert {name: opened[name] for name in files} == dict.fromkeys(files, 1)


def test_validate_artifacts_flag_corruption(experiment_dir, tmp_path):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    (broken / "intra.mlp.json").write_text("{", encoding="utf-8")
    prune_file = broken / "corpus" / "ep0000.prune.jsonl"
    prune_file.write_text(prune_file.read_text() + "{\"kind\": \"nope\"}\n",
                          encoding="utf-8")
    problems = validate_artifacts(broken)
    assert len(problems) == 2
    assert any("intra.mlp.json" in p for p in problems)
    assert any("ep0000.prune.jsonl" in p for p in problems)


# edits of a prune file's lines that leave every record valid on its own
PRUNE_EDITS = {
    "duplicate_a_line": lambda lines: lines[:3] + lines[2:],
    "swap_two_lines": lambda lines: lines[:2] + [lines[3], lines[2]] + lines[4:],
    "name_another_episode": lambda lines: lines[:2] + [lines[2].replace(
        '"episode_id":"ep0000"', '"episode_id":"ep0001"')] + lines[3:],
}


@pytest.mark.parametrize("edit", PRUNE_EDITS)
def test_validate_artifacts_checks_prune_record_order(experiment_dir,
                                                      tmp_path, edit):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    prune_file = broken / "corpus" / "ep0000.prune.jsonl"
    lines = prune_file.read_text(encoding="utf-8").splitlines()
    edited = PRUNE_EDITS[edit](lines)
    assert edited != lines
    prune_file.write_text("\n".join(edited) + "\n", encoding="utf-8")
    problems = validate_artifacts(broken)
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.prune.jsonl: ")


def test_validate_parses_the_prune_records_of_a_staged_prune(
        experiment_dir, tmp_path, capsys):
    """``prune --corpus`` writes its prune records beside its report.csv,
    as in the README's staged quick start; validate on that directory
    parses each of them."""
    out, _ = experiment_dir
    pruned = tmp_path / "pruned"
    assert main(["prune", "--config", str(out / "config.resolved.json"),
                 "--corpus", str(out / "corpus"),
                 "--intra", str(out / "intra.mlp.json"),
                 "--inter", str(out / "inter.mlp.json"),
                 "--out", str(pruned)]) == 0
    assert sorted(pruned.glob("*.prune.jsonl"))
    assert validate_artifacts(pruned) == []
    with open(pruned / "ep0000.prune.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"kind": "garbage"}\n')
    capsys.readouterr()
    assert main(["validate", "--dir", str(pruned)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.prune.jsonl: ")


@pytest.mark.parametrize("records", [5, 0])
def test_validate_artifacts_reports_a_truncated_prune_file(
        experiment_dir, tmp_path, records):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    prune_file = broken / "corpus" / "ep0000.prune.jsonl"
    lines = prune_file.read_text(encoding="utf-8").splitlines(keepends=True)
    prune_file.write_text("".join(lines[:records]), encoding="utf-8")
    assert validate_artifacts(broken) == [
        f"ep0000.prune.jsonl: {records} records, but episode 'ep0000' has "
        f"{len(lines)} observation frames"]


# damage to the second line of an annotation file, and the problem line
# validate gives for it, which names the file once
UNREADABLE_LINE = {
    "byte_ff": (lambda line: line[:3] + b"\xff" + line[3:],
                "not UTF-8 text (byte offset {offset})"),
    "json_syntax": (lambda line: b"{" + line,
                    "line 2: invalid JSON: Expecting property name enclosed "
                    "in double quotes (byte offset 1)"),
}


@pytest.mark.parametrize("damage", UNREADABLE_LINE)
def test_validate_names_an_unreadable_file_once(experiment_dir, tmp_path,
                                                damage):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    path = broken / "corpus" / "ep0000.ann.jsonl"
    first, second, *rest = path.read_bytes().splitlines(keepends=True)
    edit, message = UNREADABLE_LINE[damage]
    path.write_bytes(b"".join([first, edit(second), *rest]))
    assert validate_artifacts(broken) == [
        f"ep0000.ann.jsonl: {message.format(offset=len(first) + 3)}"]


def test_compare_strategies(tmp_path):
    reports = compare_strategies(
        resolve_config(SMALL), tmp_path,
        strategies=(Strategy.HIERARCHICAL, Strategy.RANDOM_DROP,
                    Strategy.NO_PRUNE))
    assert set(reports) == {"hierarchical", "random_drop", "no_prune"}
    no_prune = reports["no_prune"]
    assert no_prune.kept_total == no_prune.before_total
    assert no_prune.flop_speedup == 1.0
    assert (reports["hierarchical"].retention_relevant
            > reports["random_drop"].retention_relevant)
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    strategies_seen = {line.split(",")[0] for line in lines[1:]}
    assert strategies_seen == set(reports)


def test_sweep_beta_counts_and_monotonicity(tmp_path):
    rows = sweep_beta(resolve_config(SMALL), [0.75, 0.0, 0.5, 0.25], tmp_path)
    assert [row["beta"] for row in rows] == [0.0, 0.25, 0.5, 0.75]
    assert [row["kept_total"] for row in rows] == [
        590 * 24, 443 * 24, 295 * 24, 148 * 24]
    speedups = [row["flop_speedup"] for row in rows]
    assert speedups == sorted(speedups)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "beta,kept_total,reduction_ratio,flop_speedup,retention_relevant"


def test_sweep_beta_rejects_bad_ratios(tmp_path):
    with pytest.raises(ConfigError):
        sweep_beta(None, [], tmp_path / "out")
    with pytest.raises(ConfigError, match="global prune ratio"):
        sweep_beta(None, [0.5, 1.0], tmp_path / "out")
    # refused before the output directory is made
    assert not (tmp_path / "out").exists()


def test_replace_beta():
    # sweep_beta reads each ratio's config through the prune section's
    # reader, with the ratio in place of the section's beta, so the reader
    # checks every ratio
    base = PruneConfig()
    bumped = _prune_config(resolve_config(None), beta=0.75)
    assert bumped == replace(base, beta=0.75)
    assert bumped.beta == 0.75
    assert base.beta == 0.5
    assert bumped.alphas == base.alphas
    with pytest.raises(ConfigError):
        _prune_config(resolve_config(None), beta=1.0)


# ---------------------------------------------------------------------------
# command line


CLI_GEN = ["--episodes", "2", "--seed", "11", "--episode-length", "12",
           "--embed-dim", "8", "--distractors", "1"]


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--out", str(out)] + CLI_GEN) == 0
    return out


def write_small_config(tmp_path):
    path = tmp_path / "config.json"
    small = dict(SMALL)
    small["train"] = dict(SMALL["train"], steps=40, hidden=8)
    path.write_text(json.dumps(small), encoding="utf-8")
    return path


def test_cli_gen_writes_corpus(cli_corpus):
    episodes = load_corpus(cli_corpus)
    assert [ep.episode_id for ep in episodes] == ["ep0000", "ep0001"]
    assert episodes[0].observations[0].embed_dim == 8


def test_cli_annotate_round_trip(cli_corpus, tmp_path, capsys):
    out = tmp_path / "derived.ann.jsonl"
    code = main(["annotate", "--geometry",
                 str(cli_corpus / "ep0000.geom.jsonl"),
                 "--annotation-out", str(out)])
    assert code == 0
    assert "annotated 12 frames" in capsys.readouterr().out
    derived = load_annotation(out)
    assert derived == load_corpus(cli_corpus)[0].annotation


def test_cli_train_then_prune_existing(cli_corpus, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(cli_corpus), "--out", str(ckpt),
                 "--hidden", "8", "--steps", "40", "--batch-size", "32"])
    assert code == 0
    assert (ckpt / "intra.mlp.json").exists()
    assert (ckpt / "inter_trace.csv").exists()

    pruned = tmp_path / "pruned"
    code = main(["prune", "--corpus", str(cli_corpus),
                 "--intra", str(ckpt / "intra.mlp.json"),
                 "--inter", str(ckpt / "inter.mlp.json"),
                 "--out", str(pruned), "--beta", "0.25"])
    assert code == 0
    assert "kept 10632 of 18432" in capsys.readouterr().out  # 443 * 24
    assert (pruned / "report.csv").exists()
    assert (pruned / "ep0001.prune.jsonl").exists()

    code = main(["prune", "--corpus", str(cli_corpus),
                 "--out", str(tmp_path / "nope")])
    assert code == 2


def test_cli_train_zero_steps(cli_corpus, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--corpus", str(cli_corpus), "--out", str(ckpt),
                 "--hidden", "8", "--steps", "0"])
    assert code == 0
    assert capsys.readouterr().out == "trained on 24 frames\n"
    assert main(["validate", "--dir", str(ckpt)]) == 0


def test_cli_train_rejects_empty_corpus(cli_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    manifest = json.loads((corpus / "manifest.json").read_text())
    (corpus / "manifest.json").write_text(
        json.dumps(dict(manifest, count=0, episodes=[])))
    code = main(["train", "--corpus", str(corpus), "--out",
                 str(tmp_path / "ckpt")])
    assert code == 2
    assert "no observations" in capsys.readouterr().err


def test_cli_prune_rejects_short_annotation(cli_corpus, experiment_dir,
                                            tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    annotation = corpus / "ep0001.ann.jsonl"
    lines = annotation.read_text().splitlines(keepends=True)
    annotation.write_text("".join(lines[:5]))
    out = experiment_dir[0]
    code = main(["prune", "--corpus", str(corpus),
                 "--intra", str(out / "intra.mlp.json"),
                 "--inter", str(out / "inter.mlp.json"),
                 "--out", str(tmp_path / "pruned")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: episode 'ep0001': 12 observations, but 5 annotation and 12 "
        "geometry frames (field 'frames')\n")


def test_cli_prune_runs_full_experiment(tmp_path, capsys):
    config = write_small_config(tmp_path)
    out = tmp_path / "experiment"
    assert main(["prune", "--config", str(config), "--out", str(out)]) == 0
    assert "strategy hierarchical" in capsys.readouterr().out
    assert (out / "report.csv").exists()

    assert main(["validate", "--dir", str(out)]) == 0
    assert "all artifacts valid" in capsys.readouterr().out
    (out / "inter.mlp.json").write_text("[", encoding="utf-8")
    assert main(["validate", "--dir", str(out)]) == 1
    assert "inter.mlp.json" in capsys.readouterr().err


def test_cli_staged_run_writes_the_bytes_of_a_full_run(tmp_path):
    """gen, train --corpus and prune --corpus on one config write the files
    that prune --config writes, byte for byte: the two share one path to
    train and one to prune and write the records and report."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": {"count": 2, "episode_length": 12},
                                  "train": {"steps": 50, "hidden": 8}}),
                      encoding="utf-8")
    full, staged = tmp_path / "full", tmp_path / "staged"
    corpus = staged / "corpus"
    for argv in (["prune", "--out", str(full)],
                 ["gen", "--out", str(corpus)],
                 ["train", "--corpus", str(corpus), "--out", str(staged)],
                 ["prune", "--corpus", str(corpus),
                  "--intra", str(staged / "intra.mlp.json"),
                  "--inter", str(staged / "inter.mlp.json"),
                  "--out", str(corpus)]):
        assert main([*argv, "--config", str(config)]) == 0
    # the staged prune writes report.csv beside the prune records
    names = sorted(path.name for path in (full / "corpus").iterdir())
    assert sorted(path.name for path in corpus.iterdir()) \
        == sorted(names + ["report.csv"])
    pairs = [(full / "corpus" / name, corpus / name) for name in names]
    pairs += [(full / name, staged / name) for name in (
        "intra.mlp.json", "inter.mlp.json", "intra_trace.csv",
        "inter_trace.csv")]
    pairs.append((full / "report.csv", corpus / "report.csv"))
    assert sum(name.endswith(".prune.jsonl") for name in names) == 2
    for ours, theirs in pairs:
        assert theirs.read_bytes() == ours.read_bytes(), theirs.name


def _save_npy(path, values, allow_pickle=False):
    with open(path, "wb") as fh:
        np.save(fh, values, allow_pickle=allow_pickle)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _overclaim(path):
    # a header promising 2**61 bytes, far more than any address space
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (2 ** 58,)})
        fh.write(b"\0" * 64)


def _non_finite(path):
    values = np.load(path)
    values[7] = np.inf
    _save_npy(path, values)


def _edit_records(path, edit):
    """Apply ``edit`` to the header records next to the sidecar ``path``."""
    records = path.with_suffix(".jsonl")
    lines = records.read_text(encoding="utf-8").splitlines()
    records.write_text("".join(f"{line}\n" for line in edit(lines)),
                       encoding="utf-8")


def _reshape_view(lines):
    record = json.loads(lines[0])
    record["views"][1]["height"] -= 1
    return [json.dumps(record, separators=(",", ":"))] + lines[1:]


SIDECAR_DAMAGE = {
    "missing": lambda path: path.unlink(),
    "truncated": _truncate,
    "too_long": lambda path: _save_npy(path, np.append(np.load(path), 0.5)),
    "wrong_dtype": lambda path: _save_npy(path,
                                          np.load(path).astype("<f4")),
    "object_dtype": lambda path: _save_npy(
        path, np.load(path).astype(object), allow_pickle=True),
    "non_finite": _non_finite,
    "header_overclaims": _overclaim,
    "frame_dropped": lambda path: _edit_records(path,
                                                lambda lines: lines[:-1]),
    "view_reshaped": lambda path: _edit_records(path, _reshape_view),
}


@pytest.mark.parametrize("damage", sorted(SIDECAR_DAMAGE))
def test_cli_validate_reports_bad_token_sidecar(damage, experiment_dir,
                                                 tmp_path, capsys):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    SIDECAR_DAMAGE[damage](broken / "corpus" / "ep0001.obs.npy")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("ep0001.obs.jsonl: ")


def _set_kept(record, view, position, value):
    record["result"]["kept"][view][position] = value


def _set_rank(record, position, pair):
    record["result"]["ranking"][position] = pair


@pytest.mark.parametrize("damage", [
    lambda record: record["result"].update(kept=5),
    lambda record: record.pop("result"),
    lambda record: record["result"].update(
        kept=[[i + 0.5 for i in idx] for idx in record["result"]["kept"]]),
    lambda record: _set_kept(record, 0, 0,
                             str(record["result"]["kept"][0][0])),
    lambda record: _set_kept(record, 0, 0, True),
    lambda record: _set_kept(record, 0, 0, None),
    lambda record: _set_kept(record, 0, 0, 2**64),
    lambda record: _set_rank(record, 0, record["result"]["ranking"][0][:1]),
    lambda record: _set_rank(record, 0, [0, 2**64]),
    lambda record: _set_rank(record, 0,
                             [float(i) for i in record["result"]["ranking"][0]]),
], ids=["kept_is_int", "result_missing", "kept_floats", "kept_string",
        "kept_bool", "kept_null", "kept_overflow", "ranking_ragged",
        "ranking_overflow", "ranking_floats"])
def test_cli_validate_reports_malformed_prune_record(damage, experiment_dir,
                                                     tmp_path, capsys):
    out, _ = experiment_dir
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    path = broken / "corpus" / "ep0000.prune.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    damage(record)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.prune.jsonl: ")


def _set_first_layer(record, key, value):
    record["layers"][0][key] = value(record["layers"][0][key])


MALFORMED_CHECKPOINTS = pytest.mark.parametrize("damage", [
    lambda record: record.update(layers=5),
    lambda record: record.update(layers="ab"),
    lambda record: record["layers"].__setitem__(
        0, [record["layers"][0]["weight"], record["layers"][0]["bias"]]),
    lambda record: _set_first_layer(record, "weight", lambda w: "ab"),
    lambda record: _set_first_layer(record, "weight",
                                    lambda w: [w[0][:-1]] + w[1:]),
    lambda record: _set_first_layer(record, "weight",
                                    lambda w: [[10 ** 400] + w[0][1:]] + w[1:]),
    lambda record: _set_first_layer(record, "bias", lambda b: {"0": b}),
], ids=["layers_is_int", "layers_is_string", "layer_is_list",
        "weight_is_string", "weight_ragged", "weight_overflow",
        "bias_is_object"])


def _broken_checkpoint(damage, out, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    path = broken / "intra.mlp.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    damage(record)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return broken


@pytest.mark.parametrize("config", [
    {"nope": 1}, {"kind": "x"}, {"prune": {"beta": 1.5}},
    # a float key takes a JSON number, an integer key a JSON integer
    {"train": {"learning_rate": True}}, {"corpus": {"noise_sigma": "0.5"}},
    {"flop": {"linear_coeff": True}}, {"flop": {"quadratic_coeff": "0.5"}},
    {"corpus": {"seed": "2"}}])
def test_cli_validate_reports_malformed_resolved_config(config, experiment_dir,
                                                        tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(experiment_dir[0], broken)
    (broken / "config.resolved.json").write_text(json.dumps(config))
    # checked after the config, so still reported
    (broken / "inter_trace.csv").write_text("bad\n")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert [p.split(":")[0] for p in problems] == ["config.resolved.json",
                                                   "inter_trace.csv"]


def test_cli_validate_refuses_geometry_without_a_view_per_camera(
        experiment_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "ep0000.geom.jsonl"
    records = [json.loads(line) for line in (
        experiment_dir[0] / "corpus" / path.name).read_text(
            encoding="utf-8").splitlines()]
    for record in records:
        record["views"] = record["views"][:1]
    path.write_text("".join(json.dumps(record) + "\n" for record in records),
                    encoding="utf-8")
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.geom.jsonl: ")
    assert "(field 'views')" in problems[0]
    assert main(["annotate", "--geometry", str(path), "--annotation-out",
                 str(tmp_path / "ep0000.ann.jsonl")]) == 2
    assert "(field 'views')" in capsys.readouterr().err


@MALFORMED_CHECKPOINTS
def test_cli_validate_reports_malformed_checkpoint(damage, experiment_dir,
                                                   tmp_path, capsys):
    broken = _broken_checkpoint(damage, experiment_dir[0], tmp_path)
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("intra.mlp.json: invalid mlp: ")


@MALFORMED_CHECKPOINTS
def test_cli_prune_rejects_malformed_checkpoint(damage, experiment_dir,
                                                tmp_path, capsys):
    broken = _broken_checkpoint(damage, experiment_dir[0], tmp_path)
    code = main(["prune", "--corpus", str(broken / "corpus"),
                 "--intra", str(broken / "intra.mlp.json"),
                 "--inter", str(broken / "inter.mlp.json"),
                 "--out", str(tmp_path / "pruned")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid mlp: ")


# the fields of each JSONL record kind that validate reads, by file suffix
RECORD_FIELDS = {
    "obs": ("fmt", "kind", "episode_id", "frame_index", "views"),
    "ann": ("fmt", "kind", "episode_id", "frame_index", "roles", "grids",
            "masks", "inter_labels", "arm_phases"),
    "geom": ("fmt", "kind", "episode_id", "frame_index", "views",
             "gripper_closed", "task_objects"),
    "prune": ("fmt", "kind", "episode_id", "frame_index", "result"),
}

# below them, to depth 4: every key of every object and the first element of
# every list, as dotted paths
NESTED_FIELDS = {
    "obs": ("views.0", "views.0.view_id", "views.0.height", "views.0.width",
            "views.0.embed_dim"),
    "ann": ("roles.head", "roles.left_wrist", "roles.right_wrist",
            "grids.0", "grids.0.0", "masks.0", "masks.0.0",
            "inter_labels.0", "arm_phases.0"),
    "geom": ("views.0", "views.0.image_width", "views.0.image_height",
             "views.0.patch_size", "views.0.boxes", "views.0.boxes.0",
             "gripper_closed.0", "task_objects.0"),
    "prune": tuple(f"result.{path}" for path in (
        "fmt", "kind", "view_token_counts", "view_token_counts.0", "kept",
        "kept.0", "kept.0.0", "fused_scores", "fused_scores.0",
        "fused_scores.0.0", "local_pruned_counts", "local_pruned_counts.0",
        "global_pruned_count", "ranking", "ranking.0", "ranking.0.0")),
}


def _field_paths(obj, prefix="", depth=4):
    if depth == 0:
        return
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = [(0, obj[0])] if isinstance(obj, list) and obj else []
    for key, value in items:
        yield f"{prefix}{key}"
        yield from _field_paths(value, f"{prefix}{key}.", depth - 1)


def _must_refuse(suffix, field, value):
    """Values that a decoder once coerced into a valid field, and every
    value of the camera roles, whose one valid value no swap gives."""
    if suffix == "ann" and field.split(".")[0] == "roles":
        return True
    if (suffix, field) == ("geom", "gripper_closed.0"):
        return not isinstance(value, bool)
    integers = {("ann", "grids.0.0"), ("ann", "inter_labels.0"),
                ("geom", "task_objects.0")}
    return (suffix, field) in integers and isinstance(value, (bool, float))


def _swap_fields(out, tmp_path, suffix, swaps, line=0):
    """Copy the first episode's ``suffix`` records into a fresh corpus under
    ``tmp_path`` with each field of record ``line`` that ``swaps`` names set
    to its value, the deepest first."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    name = f"ep0000.{suffix}.jsonl"
    if suffix == "obs":
        shutil.copy(out / "corpus" / "ep0000.obs.npy", corpus)
    lines = (out / "corpus" / name).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[line])
    assert sorted(_field_paths(record)) == sorted(RECORD_FIELDS[suffix]
                                                  + NESTED_FIELDS[suffix])
    for field in sorted(swaps, key=lambda f: -f.count(".")):
        *parents, last = [int(k) if k.isdigit() else k
                          for k in field.split(".")]
        target = record
        for key in parents:
            target = target[key]
        target[last] = swaps[field]
    lines[line] = json.dumps(record)
    (corpus / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# the fields of the first box of a geometry view, one level below
# NESTED_FIELDS
BOX_FIELDS = tuple(f"views.0.boxes.0.{key}"
                   for key in ("x0", "y0", "x1", "y1", "kind", "ident"))


# type swaps, then values of the right type but out of range
SWAPPED_VALUES = [None, True, 5, 1.5, "a", [], [5], ["a", "b", "c"], [[16]],
                  {}, -1, 2**64, 10**400]


@pytest.mark.parametrize("value", SWAPPED_VALUES,
                         ids=lambda v: "10**400" if v == 10**400 else repr(v))
@pytest.mark.parametrize("suffix, field", [
    (suffix, field) for fields in (RECORD_FIELDS, NESTED_FIELDS)
    for suffix, names in fields.items() for field in names]
    + [("geom", field) for field in BOX_FIELDS])
def test_cli_validate_survives_type_swapped_field(suffix, field, value,
                                                  experiment_dir, tmp_path):
    _swap_fields(experiment_dir[0], tmp_path, suffix, {field: value})
    allowed = (1,) if _must_refuse(suffix, field, value) else (0, 1)
    assert main(["validate", "--dir", str(tmp_path)]) in allowed


# 100 000 elements inside one record: no fuzzed value may size an allocation
_LONG_LISTS = [[0] * 100_000, list(range(100_000)), [0.5] * 100_000,
               ["a"] * 100_000, [[0, 1]] * 100_000, [[16, 16]] * 100_000]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(RECORD_FIELDS)).flatmap(lambda suffix: st.tuples(
    st.just(suffix),
    st.dictionaries(st.sampled_from(RECORD_FIELDS[suffix]
                                    + NESTED_FIELDS[suffix]
                                    + (BOX_FIELDS if suffix == "geom"
                                       else ())),
                    st.sampled_from(SWAPPED_VALUES + _LONG_LISTS),
                    min_size=2, max_size=2))))
def test_cli_validate_survives_two_swapped_fields(experiment_dir, case):
    suffix, swaps = case
    with tempfile.TemporaryDirectory() as directory:
        _swap_fields(experiment_dir[0], Path(directory), suffix, swaps)
        assert main(["validate", "--dir", directory]) in (0, 1)


@pytest.mark.parametrize("suffix, field, value", [
    ("ann", "grids.0.0", 16.7), ("ann", "inter_labels.0", 1.5),
    ("ann", "inter_labels.1", 5), ("ann", "masks.0.0", 2),
    ("ann", "grids", 5), ("ann", "grids.0", [2]), ("ann", "masks", 5),
    ("ann", "inter_labels", 5), ("ann", "arm_phases", 5),
    ("ann", "arm_phases", []), ("ann", "arm_phases", ["approaching"] * 3),
    ("geom", "gripper_closed", [False]),
    ("geom", "gripper_closed", [False] * 3),
    ("geom", "task_objects.0", -1), ("geom", "gripper_closed.0", "a"),
    ("geom", "gripper_closed", 5), ("geom", "task_objects", 5),
    ("geom", "task_objects", ""), ("geom", "task_objects", {}),
    ("geom", "views.0.patch_size", 0), ("geom", "views.0.boxes", 5),
    ("geom", "views.0.boxes", ""), ("geom", "views.0.boxes", {}),
    ("ann", "masks.0.0", True), ("ann", "masks.0.0", 1.0),
    ("ann", "masks.0.0", -0.0),
    ("geom", "views.0.boxes.0", 5), ("geom", "views.0.boxes.0.x0", -1),
    ("ann", "frame_index", 0.0), ("ann", "frame_index", False),
    ("geom", "frame_index", 0.0), ("geom", "frame_index", False),
    ("prune", "frame_index", 0.0), ("prune", "frame_index", False)],
    ids=str)
def test_cli_validate_refuses_coerced_value(suffix, field, value,
                                            experiment_dir, tmp_path, capsys):
    _swap_fields(experiment_dir[0], tmp_path, suffix, {field: value})
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith(f"ep0000.{suffix}.jsonl: ")
    # the innermost named key of the path, e.g. x0 of views.0.boxes.0.x0
    named = [key for key in field.split(".") if not key.isdigit()][-1]
    assert f"(field {named!r})" in problems[0]


# a string or an object is iterable, but no JSON list
@pytest.mark.parametrize("field", ["views.0.boxes", "task_objects"])
@pytest.mark.parametrize("value", ["", {}], ids=repr)
def test_cli_annotate_refuses_geometry_list_that_is_no_list(
        field, value, experiment_dir, tmp_path, capsys):
    _swap_fields(experiment_dir[0], tmp_path, "geom", {field: value})
    out = tmp_path / "ep0000.ann.jsonl"
    assert main(["annotate", "--geometry",
                 str(tmp_path / "corpus" / "ep0000.geom.jsonl"),
                 "--annotation-out", str(out)]) == 2
    named = field.split(".")[-1]
    assert f"{named} must be a list" in capsys.readouterr().err
    assert not out.exists()


# in the first record, or in the fourth, whose grids no reader once read
@pytest.mark.parametrize("line, swaps", [
    (0, {"roles.left_wrist": 2, "roles.right_wrist": 1}),
    (0, {"roles.left_wrist": True}),
    (3, {"grids": "anything"}),
    (3, {"grids.0.0": 16.0}),
    (3, {"grids.2": [8, 32]})],
    ids=["wrists_swapped", "left_wrist_true", "grids_anything",
         "grids_float", "grids_other"])
def test_cli_refuses_other_camera_roles(line, swaps, experiment_dir, tmp_path,
                                        capsys):
    out = experiment_dir[0]
    _swap_fields(out, tmp_path, "ann", swaps, line)
    field = next(iter(swaps)).split(".")[0]
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.ann.jsonl: ")
    assert f"(field {field!r})" in problems[0]
    # nor is the annotation trained or pruned on
    corpus = tmp_path / "full"
    shutil.copytree(out / "corpus", corpus)
    shutil.copy(tmp_path / "corpus" / "ep0000.ann.jsonl", corpus)
    assert main(["prune", "--corpus", str(corpus),
                 "--intra", str(out / "intra.mlp.json"),
                 "--inter", str(out / "inter.mlp.json"),
                 "--out", str(tmp_path / "pruned")]) == 2
    assert f"(field {field!r})" in capsys.readouterr().err


@pytest.mark.parametrize("line, damaged", [
    (1, "0,nan"), (1, "0,1e400"), (1, "\u0660,0.5"), (1, "+0,0.5"),
    (2, "01,0.5"), (1, "0, 1_0.5"), (1, "0,+0.5"), (1, "0,0.50")],
    ids=["nan", "1e400", "arabic_indic_0", "plus_0", "01", "underscore",
         "plus_loss", "trailing_zero"])
def test_cli_validate_refuses_corrupt_loss_trace(line, damaged,
                                                 experiment_dir, tmp_path,
                                                 capsys):
    broken = tmp_path / "broken"
    shutil.copytree(experiment_dir[0], broken)
    path = broken / "inter_trace.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line] = damaged
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith(f"inter_trace.csv: line {line + 1}: ")


@pytest.mark.parametrize("damage", [
    lambda manifest: manifest.update(episodes=5),
    lambda manifest: manifest.update(episodes=[5]),
    lambda manifest: manifest["episodes"][0].update(observations=5),
], ids=["episodes_is_int", "episode_is_int", "observations_is_int"])
def test_cli_train_rejects_malformed_manifest(damage, cli_corpus, tmp_path,
                                              capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(cli_corpus, corpus)
    manifest = json.loads((corpus / "manifest.json").read_text())
    damage(manifest)
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    code = main(["train", "--corpus", str(corpus), "--out",
                 str(tmp_path / "ckpt")])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def _point_outside(manifest):
    manifest["episodes"][0]["episode_id"] = "../x"
    return json.dumps(manifest)


@pytest.mark.parametrize("manifest", [
    lambda manifest: "not json",
    lambda manifest: json.dumps(dict(manifest, episodes=5)),
    _point_outside], ids=["not_json", "episodes_is_int", "traversal_id"])
def test_cli_validate_reports_bad_manifest(manifest, experiment_dir, tmp_path,
                                           capsys):
    shutil.copytree(experiment_dir[0], tmp_path / "broken")
    path = tmp_path / "broken" / "corpus" / "manifest.json"
    path.write_text(manifest(json.loads(path.read_text())))
    assert main(["validate", "--dir", str(tmp_path / "broken")]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("manifest.json: ")


# a count other than the number of entries, and seeds that are no integer
# >= 0, at the top level or in the first entry
@pytest.mark.parametrize("where, key, value", [
    ("top", "count", 99), ("top", "count", True),
    *((where, "seed", value) for where in ("top", "entry")
      for value in ("x", -1, None, 1.0))], ids=str)
def test_manifest_count_and_seeds_are_checked_where_read(
        where, key, value, experiment_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(experiment_dir[0], broken)
    path = broken / "corpus" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    (manifest if where == "top" else manifest["episodes"][0])[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith("manifest.json: ")
    assert main(["train", "--corpus", str(broken / "corpus"), "--out",
                 str(tmp_path / "ckpt")]) == 2


def _cut_to_five_frames(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:5]), encoding="utf-8")


def _edit_views(path, frames, edit):
    """Apply ``edit`` to the views of each record of the geometry file
    ``path`` numbered in ``frames``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for t in frames:
        record = json.loads(lines[t])
        edit(record["views"])
        lines[t] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# frames and files that disagree with their episode's other frames and
# files: the damage, the field that load_corpus names, and the file of
# validate's problem line
CROSS_FILE_DAMAGE = {
    "short_annotation": (lambda corpus: _cut_to_five_frames(
        corpus / "ep0000.ann.jsonl"), "frames", "manifest.json"),
    "short_geometry": (lambda corpus: _cut_to_five_frames(
        corpus / "ep0001.geom.jsonl"), "frames", "manifest.json"),
    "foreign_annotation": (lambda corpus: shutil.copyfile(
        corpus / "ep0001.ann.jsonl", corpus / "ep0000.ann.jsonl"),
        "episode_id", "manifest.json"),
    "geometry_drops_a_view": (lambda corpus: _edit_views(
        corpus / "ep0000.geom.jsonl", [3], lambda views: views.pop()),
        "views", "ep0000.geom.jsonl"),
    "geometry_grid_change": (lambda corpus: _edit_views(
        corpus / "ep0000.geom.jsonl", [3],
        lambda views: views[1].update(patch_size=32)),
        "views", "ep0000.geom.jsonl"),
    "geometry_grids_not_annotated": (lambda corpus: _edit_views(
        corpus / "ep0000.geom.jsonl", range(12),
        lambda views: views[1].update(patch_size=32)),
        "grids", "manifest.json"),
}


@pytest.mark.parametrize("damage", sorted(CROSS_FILE_DAMAGE))
def test_cli_validate_reports_disagreeing_episode_files(
        damage, experiment_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(experiment_dir[0], broken)
    edit, field, name = CROSS_FILE_DAMAGE[damage]
    edit(broken / "corpus")
    with pytest.raises(ParseError) as refusal:
        load_corpus(broken / "corpus")
    assert refusal.value.field == field
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert problems == [f"{name}: {refusal.value}"]


def _rename_in_manifest(corpus, key, name):
    """Point the first manifest entry's ``key`` at the file ``name``."""
    path = corpus / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["episodes"][0][key] = name
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_cli_validate_reports_a_file_the_manifest_names_but_lacks(
        experiment_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(experiment_dir[0], broken)
    _rename_in_manifest(broken / "corpus", "geometry", "gone.geom.jsonl")
    with pytest.raises(FileNotFoundError):
        load_corpus(broken / "corpus")
    assert main(["validate", "--dir", str(broken)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert problems == [
        "manifest.json: episode 'ep0000': no file 'gone.geom.jsonl'"]


def test_cli_validate_reads_the_tokens_sidecar_the_manifest_names(
        experiment_dir, tmp_path, capsys):
    moved = tmp_path / "moved"
    shutil.copytree(experiment_dir[0], moved)
    corpus = moved / "corpus"
    (corpus / "ep0000.obs.npy").rename(corpus / "other.npy")
    _rename_in_manifest(corpus, "tokens", "other.npy")
    assert len(load_corpus(corpus)) == 2
    assert main(["validate", "--dir", str(moved)]) == 0, \
        capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("prune", "alphas", 5),
    ("corpus", "noise_sigma", "x"),
    ("flop", "linear_coeff", "x"),
    ("train", "learning_rate", [1]),
    # numpy refuses arrays this large before allocating anything
    ("train", "hidden", 2**62),
    ("train", "steps", 2**62),
    ("train", "batch_size", 2**62),
    # the cost per token overflows a float: an OverflowError, or an
    # infinite cost and a NaN speedup
    pytest.param("flop", "embed_dim", 2**2000, id="flop-embed_dim-2**2000"),
    pytest.param("flop", "embed_dim", 10**160, id="flop-embed_dim-10**160"),
    # the cost per token fits a float, the cost summed over the run does not
    pytest.param("flop", "embed_dim", 10**152, id="flop-embed_dim-10**152"),
    # a float key takes a JSON number, not a bool or a numeric string
    *((section, key, value) for section, key in (
        ("corpus", "noise_sigma"), ("train", "learning_rate"),
        ("flop", "linear_coeff"), ("flop", "quadratic_coeff"))
      for value in (True, "0.5")),
    ("corpus", "seed", "2"),
    ("corpus", "seed", -1),
])
def test_cli_prune_rejects_malformed_config_value(section, key, value,
                                                  tmp_path, capsys):
    config = write_small_config(tmp_path)
    overrides = json.loads(config.read_text())
    overrides.setdefault(section, {})[key] = value
    config.write_text(json.dumps(overrides))
    code = main(["prune", "--config", str(config), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert f"invalid {section}" in capsys.readouterr().err
    # an array size numpy cannot allocate is found when training, before
    # the first file is written
    assert not (tmp_path / "out").exists()


def test_cli_prune_corpus_bounds_flop_cost_by_the_corpus(experiment_dir,
                                                       tmp_path, capsys):
    out = experiment_dir[0]
    config = tmp_path / "config.json"
    # the cost fits the 12 frames of 192 tokens the config describes, not
    # the 24 frames of 768 tokens of the corpus pruned
    config.write_text(json.dumps({
        "corpus": {"count": 1, "episode_length": 12, "patch_size": 32},
        "flop": {"embed_dim": 10**151}}))
    code = main(["prune", "--config", str(config),
                 "--corpus", str(out / "corpus"),
                 "--intra", str(out / "intra.mlp.json"),
                 "--inter", str(out / "inter.mlp.json"),
                 "--out", str(tmp_path / "pruned")])
    assert code == 2
    assert "invalid flop section: the cost of 24 frames of 768 tokens" in \
        capsys.readouterr().err
    assert not (tmp_path / "pruned").exists()


# a bad value in a section the command does not read itself
@pytest.mark.parametrize("command, section, key, value", [
    ("gen", "prune", "beta", 5),
    ("train", "flop", "embed_dim", 10**153),
    ("prune", "train", "steps", -1),
    ("prune", "corpus", "distractors", 99)],
    ids=["gen-prune.beta", "train-flop.embed_dim", "prune-train.steps",
         "prune-corpus.distractors"])
def test_cli_config_refusal_leaves_no_out(command, section, key, value,
                                          experiment_dir, tmp_path, capsys):
    run = experiment_dir[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}}))
    inputs = {"gen": [],
              "train": ["--corpus", str(run / "corpus")],
              "prune": ["--corpus", str(run / "corpus"),
                        "--intra", str(run / "intra.mlp.json"),
                        "--inter", str(run / "inter.mlp.json")]}[command]
    code = main([command, "--config", str(config), *inputs,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: invalid {section} section: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a corpus or checkpoint that is not there
@pytest.mark.parametrize("command, missing", [
    ("train", "corpus"), ("prune", "corpus"), ("prune", "intra.mlp.json"),
    ("prune", "inter.mlp.json")], ids=str)
def test_cli_input_refusal_leaves_no_out(command, missing, experiment_dir,
                                         tmp_path):
    paths = {name: str(experiment_dir[0] / name)
             for name in ("corpus", "intra.mlp.json", "inter.mlp.json")}
    paths[missing] = str(tmp_path / "missing")
    argv = [command, "--corpus", paths["corpus"]]
    if command == "prune":
        argv += ["--intra", paths["intra.mlp.json"],
                 "--inter", paths["inter.mlp.json"]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--betas", "0.5,1.0"], ["prune", "--beta", "1.0"]], ids=str)
def test_cli_prune_refusal_has_one_prefix(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid prune section: global prune ratio must lie in "
        "[0, 1), got 1.0 (field 'beta')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["prune", "--alphas", "0.3,x"],
    ["sweep", "--betas", "x"],
    ["compare", "--strategies", "hierarchical,nope"],
])
def test_cli_rejects_malformed_list_option(argv, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path)])
    assert err.value.code == 2


def test_cli_sweep_and_compare(tmp_path, capsys):
    config = write_small_config(tmp_path)
    sweep_dir = tmp_path / "sweep"
    code = main(["sweep", "--config", str(config), "--betas", "0.5,0.0",
                 "--out", str(sweep_dir)])
    assert code == 0
    assert "beta 0.5" in capsys.readouterr().out
    assert (sweep_dir / "sweep.csv").exists()

    compare_dir = tmp_path / "compare"
    code = main(["compare", "--config", str(config),
                 "--strategies", "hierarchical,no_prune",
                 "--out", str(compare_dir)])
    assert code == 0
    assert "no_prune" in capsys.readouterr().out
    assert (compare_dir / "compare.csv").exists()


def test_cli_out_dir_env_fallback(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv("MVPRUNE_OUT_DIR", str(target))
    assert main(["gen"] + CLI_GEN[:2] + ["--episode-length", "12",
                                          "--embed-dim", "8"]) == 0
    assert (target / "manifest.json").exists()

    monkeypatch.delenv("MVPRUNE_OUT_DIR")
    assert main(["gen"] + CLI_GEN) == 2
    assert "no output directory" in capsys.readouterr().err
