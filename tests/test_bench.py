"""Benchmark harness: metrics, experiment driver, artifacts, and the CLI."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from mvprune.bench import (
    DEFAULT_CONFIG,
    MetricsReport,
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
    PruneConfig,
    Strategy,
    load_annotation,
)
from mvprune.pruner import FlopModel, prune_observation, score_observation
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


def test_report_validates_count_ordering():
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(tokens_kept=(400, 95)))
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(tokens_post_local=(600, 410)))
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(tokens_kept=(200,)))


def test_report_validates_metric_ranges():
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(intra_auc=1.5))
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(reduction_ratio=-0.1))
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(flop_speedup=0.99))
    with pytest.raises(ContractError):
        MetricsReport(**report_kwargs(episodes=0))
    assert MetricsReport(**report_kwargs(flop_speedup=1.0)).flop_speedup == 1.0


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


def test_load_experiment_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"corpus": {"count": 2}}), encoding="utf-8")
    config = load_experiment_config(path)
    assert config["corpus"]["count"] == 2
    assert config["kind"] == "experiment_config"


def test_scenario_template_scales_scripts():
    default = scenario_template(resolve_config(None))
    assert default.episode_length == 16
    assert default.arms == (ArmScript(3, 5, 9, 0), ArmScript(5, 8, 12, 1))
    assert default.distractors == 2
    assert default.noise_sigma == 0.05
    short = scenario_template(resolve_config(SMALL))
    assert short.arms == (ArmScript(2, 4, 7, 0), ArmScript(4, 6, 9, 1))
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


def small_eval(small_run, annotations=None, prune_config=None):
    config, episodes, derived, intra, inter = small_run
    prune_config = prune_config or PruneConfig()
    corpus = score_corpus([ep.observations for ep in episodes],
                          derived if annotations is None else annotations,
                          intra, inter, prune_config.epsilon)
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
    assert len(results) == 2 and all(len(r) == 12 for r in results)


def test_evaluate_strategy_rejects_misaligned_annotations(small_run):
    _, _, derived, _, _ = small_run
    with pytest.raises(ContractError):
        small_eval(small_run, annotations=list(reversed(derived)))
    # one annotation short once evaluated the first episode and reported two
    with pytest.raises(ContractError):
        small_eval(small_run, annotations=derived[:1])


def test_evaluate_strategy_no_prune_is_identity(small_run):
    report, _ = small_eval(
        small_run, prune_config=PruneConfig(strategy=Strategy.NO_PRUNE))
    assert report.kept_total == report.before_total
    assert report.reduction_ratio == 0.0
    assert report.flop_speedup == 1.0
    assert report.retention_relevant == 1.0


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
    _, episodes, derived, intra, inter = small_run
    config = PruneConfig(alphas=tuple(a / 20 for a in alphas), beta=beta / 20,
                         epsilon=epsilon, strategy=strategy,
                         adaptive_threshold=threshold, seed=seed)
    corpus = score_corpus([ep.observations for ep in episodes], derived,
                          intra, inter, epsilon)
    assert corpus.scores == tuple(
        tuple(score_observation(obs, intra, inter, epsilon)
              for obs in ep.observations) for ep in episodes)
    _, results = evaluate_strategy(corpus, config, FlopModel(18, 2048))
    assert results == per_frame_results(small_run, config)


def test_evaluate_strategy_rejects_other_epsilon(small_run):
    """Scores weighted with one epsilon would misreport the retention of a
    config with another."""
    _, episodes, derived, intra, inter = small_run
    corpus = score_corpus([ep.observations for ep in episodes], derived,
                          intra, inter, 0.01)
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
        assert results == per_frame_results(small_run, prune_config)


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


def test_run_experiment_layout(experiment_dir):
    out, report = experiment_dir
    assert report.frames == 24
    names = {p.name for p in out.iterdir()}
    assert names == {"corpus", "intra.mlp.json", "inter.mlp.json",
                     "intra_trace.csv", "inter_trace.csv", "report.csv",
                     "timings.csv", "config.resolved.json"}
    corpus_names = {p.name for p in (out / "corpus").iterdir()}
    for eid in ("ep0000", "ep0001"):
        for suffix in ("obs", "ann", "geom", "derived", "prune"):
            assert f"{eid}.{suffix}.jsonl" in corpus_names
        assert f"{eid}.obs.npy" in corpus_names
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
        sweep_beta(None, [], tmp_path)
    with pytest.raises(ConfigError):
        sweep_beta(None, [0.5, 1.0], tmp_path)


def test_replace_beta():
    # sweep_beta derives each ratio's config with dataclasses.replace, which
    # re-runs PruneConfig's checks
    base = PruneConfig()
    bumped = replace(base, beta=0.75)
    assert bumped.beta == 0.75
    assert base.beta == 0.5
    assert bumped.alphas == base.alphas
    with pytest.raises(ConfigError):
        replace(base, beta=1.0)


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
    entries = load_corpus(cli_corpus)
    assert [e["episode_id"] for e in entries] == ["ep0000", "ep0001"]
    assert entries[0]["observations"][0].embed_dim == 8


def test_cli_annotate_round_trip(cli_corpus, tmp_path, capsys):
    out = tmp_path / "derived.ann.jsonl"
    code = main(["annotate", "--geometry",
                 str(cli_corpus / "ep0000.geom.jsonl"),
                 "--annotation-out", str(out)])
    assert code == 0
    assert "annotated 12 frames" in capsys.readouterr().out
    derived = load_annotation(out)
    assert derived == load_corpus(cli_corpus)[0]["annotation"]


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
        json.dumps(dict(manifest, episodes=[])))
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
        "error: episode 'ep0001' annotation has 5 frames, observation is "
        "frame 5\n")


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
    """Values that a decoder once coerced into a valid field."""
    if (suffix, field) == ("geom", "gripper_closed.0"):
        return not isinstance(value, bool)
    integers = {("ann", "grids.0.0"), ("ann", "inter_labels.0"),
                ("geom", "task_objects.0")}
    return (suffix, field) in integers and isinstance(value, (bool, float))


def _swap_field(out, tmp_path, suffix, field, value):
    """Copy the first episode's ``suffix`` records into a fresh corpus under
    ``tmp_path`` with ``field`` of the first record set to ``value``."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    name = f"ep0000.{suffix}.jsonl"
    if suffix == "obs":
        shutil.copy(out / "corpus" / "ep0000.obs.npy", corpus)
    lines = (out / "corpus" / name).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    assert sorted(_field_paths(record)) == sorted(RECORD_FIELDS[suffix]
                                                  + NESTED_FIELDS[suffix])
    *parents, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    lines[0] = json.dumps(record)
    (corpus / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("value", [None, True, 5, 1.5, "a", [], [5],
                                   ["a", "b", "c"], [[16]], {}], ids=repr)
@pytest.mark.parametrize("suffix, field", [
    (suffix, field) for fields in (RECORD_FIELDS, NESTED_FIELDS)
    for suffix, names in fields.items() for field in names])
def test_cli_validate_survives_type_swapped_field(suffix, field, value,
                                                  experiment_dir, tmp_path):
    _swap_field(experiment_dir[0], tmp_path, suffix, field, value)
    allowed = (1,) if _must_refuse(suffix, field, value) else (0, 1)
    assert main(["validate", "--dir", str(tmp_path)]) in allowed


@pytest.mark.parametrize("suffix, field, value", [
    ("ann", "grids.0.0", 16.7), ("ann", "inter_labels.0", 1.5),
    ("ann", "inter_labels.1", 5), ("ann", "masks.0.0", 2),
    ("ann", "grids", 5), ("ann", "grids.0", [2]), ("ann", "masks", 5),
    ("ann", "inter_labels", 5), ("ann", "arm_phases", 5),
    ("geom", "task_objects.0", -1), ("geom", "gripper_closed.0", "a"),
    ("geom", "gripper_closed", 5), ("geom", "task_objects", 5),
    ("geom", "views.0.patch_size", 0), ("geom", "views.0.boxes", 5),
    ("geom", "views.0.boxes.0", 5), ("geom", "views.0.boxes.0.x0", -1)],
    ids=str)
def test_cli_validate_refuses_coerced_value(suffix, field, value,
                                            experiment_dir, tmp_path, capsys):
    _swap_field(experiment_dir[0], tmp_path, suffix, field, value)
    assert main(["validate", "--dir", str(tmp_path)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert len(problems) == 1
    assert problems[0].startswith(f"ep0000.{suffix}.jsonl: ")
    # the innermost named key of the path, e.g. x0 of views.0.boxes.0.x0
    named = [key for key in field.split(".") if not key.isdigit()][-1]
    assert f"(field {named!r})" in problems[0]


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


@pytest.mark.parametrize("section, key, value", [
    ("prune", "alphas", 5),
    ("corpus", "noise_sigma", "x"),
    ("flop", "linear_coeff", "x"),
    ("train", "learning_rate", [1]),
    # numpy refuses arrays this large before allocating anything
    ("train", "hidden", 2**62),
    ("train", "steps", 2**62),
    ("train", "batch_size", 2**62),
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
