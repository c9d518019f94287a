"""Acceptance gate: the pipeline's headline properties, one test per claim.

Every test prints a bracketed ``[PASS]``/``[FAIL]`` line carrying the
measured numbers (shown with ``pytest -s``; always shown on failure) and
asserts the same condition, including the runtime budget where one applies.
Reference values are produced by the independent implementations in
``oracles.py``, never by the library under test.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from test_predictor import finite_difference_grads
from test_pruner import assert_matches_oracle

from mvprune.annotate import (
    Box,
    BoxKind,
    ViewGeometry,
    annotate_episode,
    boxes_to_patch_mask,
    frame_patch_mask,
)
from mvprune.bench import (
    auc_score,
    evaluate_strategy,
    resolve_config,
    scenario_template,
    score_corpus,
    train_predictors,
)
from mvprune.core import PruneConfig, Strategy
from mvprune.predictor import (
    init_mlp,
    loss_and_grad,
    predict_inter,
    predict_intra,
)
from mvprune.pruner import (
    FlopModel,
    adaptive_weight,
    hierarchical_prune,
    speedup_estimate,
)
from mvprune.synth import generate_corpus


def report(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. count exactness at default ratios


def test_01_count_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    raw = [rng.random(256) for _ in range(3)]
    result = hierarchical_prune(raw, [0.9, 0.8, 0.7], [(16, 16)] * 3,
                                PruneConfig())
    elapsed = time.perf_counter() - start
    ok = (result.post_local_counts == (180, 205, 205)
          and result.global_pruned_count == 295
          and result.kept_total == 295
          and elapsed < 1.0)
    report("count exactness", ok,
           f"3 views x 256 tokens at ratios (0.3, 0.2, 0.2) / 0.5: "
           f"post-local {result.post_local_counts}, globally pruned "
           f"{result.global_pruned_count}, kept {result.kept_total} "
           f"in {elapsed:.3f}s (budget 1s)")


# ---------------------------------------------------------------------------
# 2. equivalence with the brute-force reference


def test_02_oracle_equivalence():
    start = time.perf_counter()
    instances = 1000
    failures = 0
    first_error = ""
    for seed in range(instances):
        rng = np.random.default_rng(60_000 + seed)
        views = int(rng.integers(1, 5))
        shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                  for _ in range(views)]
        raw = [rng.random(h * w) for h, w in shapes]
        inter = rng.random(views)
        config = PruneConfig(
            alphas=tuple(float(rng.integers(0, 20)) / 20
                         for _ in range(views)),
            beta=float(rng.integers(0, 20)) / 20,
            epsilon=float(rng.choice([0.01, 0.1, 1.0])))
        try:
            assert_matches_oracle(raw, inter, shapes, config)
        except AssertionError as exc:
            failures += 1
            if not first_error:
                first_error = f" (first at seed {seed}: {exc})"
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report("oracle equivalence", ok,
           f"{instances} random instances (views <= 4, grids <= 8x8): "
           f"{instances - failures} exact kept/ranking matches with fused "
           f"scores within 1e-10, in {elapsed:.1f}s (budget 60s)"
           + first_error)


# ---------------------------------------------------------------------------
# 3. adaptive weighting impulse response


# reciprocal-distance response to an impulse on a 2x2 grid, epsilon 0.01:
# 1/0.01, 1/1.01 twice, 1/(sqrt(2) + 0.01)
GOLDEN_IMPULSE = (100.0, 0.9900990099009901, 0.9900990099009901,
                  0.7021418882809615)


def test_03_adaptive_weighting_goldens():
    derived = oracles.oracle_adaptive_weight([1.0, 0.0, 0.0, 0.0], 2, 2, 0.01)
    assert derived == pytest.approx(GOLDEN_IMPULSE, abs=1e-12)
    got = adaptive_weight([1.0, 0.0, 0.0, 0.0], 2, 2, epsilon=0.01)
    err = float(np.max(np.abs(got - np.array(GOLDEN_IMPULSE))))
    report("adaptive weighting goldens", err < 1e-6,
           f"2x2 impulse at epsilon 0.01 -> {np.round(got, 6).tolist()}, "
           f"max error {err:.2e} vs independent reference (tolerance 1e-6)")


# ---------------------------------------------------------------------------
# 4. analytic gradients against central differences


def test_04_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(40_000 + case)
        hidden = [int(rng.integers(1, 7)) for _ in range(rng.integers(0, 3))]
        sizes = [int(rng.integers(1, 7))] + hidden + [int(rng.integers(1, 4))]
        params = init_mlp(sizes, seed=case)
        batch = int(rng.integers(1, 9))
        x = rng.normal(0.0, 2.0, (batch, sizes[0]))
        y = rng.integers(0, 2, (batch, sizes[-1])).astype(float)
        reduction = "mean" if case % 2 == 0 else "sum"
        _, grads = loss_and_grad(params, x, y, reduction=reduction)
        numeric = finite_difference_grads(params, x, y, reduction=reduction)
        for (dw, db), (nw, nb) in zip(grads, numeric):
            for analytic, estimate in ((dw, nw), (db, nb)):
                scale = np.maximum(np.maximum(np.abs(analytic),
                                              np.abs(estimate)), 1e-6)
                worst = max(worst, float(
                    np.max(np.abs(analytic - estimate) / scale)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("gradient check", ok,
           f"100 random networks (token- and view-head shapes, mean and sum "
           f"reductions): max relative error {worst:.2e} vs central "
           f"differences at h=1e-5 (tolerance 1e-4), in {elapsed:.1f}s "
           f"(budget 30s)")


# ---------------------------------------------------------------------------
# 5. predictor convergence on the separable corpus


@pytest.fixture(scope="module")
def default_training():
    start = time.perf_counter()
    config = resolve_config(None)
    template = scenario_template(config)
    episodes = generate_corpus(template, config["corpus"]["count"],
                               config["corpus"]["seed"])
    annotations = {ep.episode_id: ep.annotation for ep in episodes}
    observations = [obs for ep in episodes for obs in ep.observations]
    intra, inter, _, _ = train_predictors(observations, annotations, config)
    return config, episodes, intra, inter, time.perf_counter() - start


def test_05_predictor_convergence(default_training):
    config, episodes, intra, inter, train_seconds = default_training
    start = time.perf_counter()
    score_parts, label_parts = [], []
    inter_hits = np.zeros(3)
    frames = 0
    for ep in episodes:
        for obs, frame in zip(ep.observations, ep.annotation.frames):
            raw = predict_intra(intra, obs)
            for v in range(obs.view_count):
                score_parts.append(raw[v])
                label_parts.append(np.asarray(frame.masks[v]))
            predicted = (predict_inter(inter, obs) >= 0.5).astype(int)
            inter_hits += predicted == np.array(frame.inter_labels)
            frames += 1
    scores = np.concatenate(score_parts)
    labels = np.concatenate(label_parts)
    auc_full = auc_score(scores, labels)
    sample = np.random.default_rng(0).choice(scores.size, 2000, replace=False)
    auc_independent = oracles.oracle_auc(scores[sample].tolist(),
                                         labels[sample].tolist())
    agreement = abs(auc_score(scores[sample], labels[sample])
                    - auc_independent)
    per_view_accuracy = inter_hits / frames
    elapsed = train_seconds + time.perf_counter() - start
    steps = config["train"]["steps"]
    sigma = config["corpus"]["noise_sigma"]
    ok = (auc_full >= 0.95 and auc_independent >= 0.95 and agreement < 1e-9
          and float(per_view_accuracy.min()) >= 0.95
          and steps <= 2000 and sigma <= 0.1 and elapsed < 300.0)
    report("predictor convergence", ok,
           f"corpus at noise {sigma}: token AUC {auc_full:.4f} (independent "
           f"pairwise AUC {auc_independent:.4f} on 2000 samples, agreement "
           f"{agreement:.1e}), per-view accuracy "
           f"{np.round(per_view_accuracy, 4).tolist()}, {steps} SGD steps "
           f"(cap 2000), {elapsed:.1f}s (budget 300s)")


# ---------------------------------------------------------------------------
# 6. annotation fidelity and rasterization brute force


def test_06_annotation_fidelity():
    start = time.perf_counter()
    config = resolve_config({"corpus": {"count": 50, "seed": 31,
                                        "embed_dim": 4, "noise_sigma": 0.0}})
    episodes = generate_corpus(scenario_template(config), 50, 31)
    mismatched = sum(
        annotate_episode(ep.geometry, ep.spec.roles, ep.episode_id)
        != ep.annotation
        for ep in episodes)

    raster_bad = 0
    rng = np.random.default_rng(5)
    for _ in range(25):  # scene views sampled from the generated episodes
        ep = episodes[int(rng.integers(len(episodes)))]
        geom = ep.geometry[int(rng.integers(len(ep.geometry)))]
        v = int(rng.integers(len(geom.views)))
        view = geom.views[v]
        want = oracles.oracle_patch_mask(
            geom.relevant_boxes(v), view.image_width, view.image_height,
            view.patch_size)
        raster_bad += frame_patch_mask(geom, v).tolist() != want
    for case in range(25):  # free-form boxes, truncated edge patches included
        case_rng = np.random.default_rng(9_000 + case)
        patch = int(case_rng.choice([4, 8, 16]))
        width = int(case_rng.integers(8, 80))
        height = int(case_rng.integers(8, 80))
        boxes = []
        for _ in range(int(case_rng.integers(0, 4))):
            x0 = int(case_rng.integers(0, width))
            y0 = int(case_rng.integers(0, height))
            boxes.append(Box(x0, y0, int(case_rng.integers(x0 + 1, width + 1)),
                             int(case_rng.integers(y0 + 1, height + 1)),
                             BoxKind.OBJECT, ident=0))
        view = ViewGeometry(width, height, patch, tuple(boxes))
        want = oracles.oracle_patch_mask(boxes, width, height, patch)
        raster_bad += boxes_to_patch_mask(view.boxes, view).tolist() != want
    elapsed = time.perf_counter() - start
    ok = mismatched == 0 and raster_bad == 0 and elapsed < 60.0
    report("annotation fidelity", ok,
           f"50 random scripted episodes: {50 - mismatched} derived "
           f"annotations exactly equal ground truth (masks, labels, phases); "
           f"50 rasterized masks match per-pixel brute force "
           f"({raster_bad} mismatches), in {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 7. transformer cost model speedup


def test_07_flop_speedup():
    model = FlopModel(layers=18, embed_dim=2048)
    got = speedup_estimate(model, 768, 295)
    want = (oracles.oracle_flops(18, 2048, 768)
            / oracles.oracle_flops(18, 2048, 295))
    ok = got >= 2.0 and got == pytest.approx(want, rel=1e-12)
    report("flop speedup", ok,
           f"768 -> 295 tokens at depth 18, width 2048: estimated prefill "
           f"speedup {got:.4f}x (threshold 2.0; closed form agrees). This is "
           f"a compute model, not a wall-clock measurement.")


# ---------------------------------------------------------------------------
# 8. idle view starved by fused scoring


def test_08_idle_view_starved():
    idle_kept = []
    for seed in (0, 7, 21):
        rng = np.random.default_rng(seed)
        raw = [rng.random(256) for _ in range(3)]
        result = hierarchical_prune(raw, [0.95, 0.9, 0.05], [(16, 16)] * 3,
                                    PruneConfig())
        assert result.kept_total == 295
        idle_kept.append(result.kept_per_view[2])
        if seed == 7:
            kept, _, _, _, _ = oracles.oracle_pipeline(
                [r.tolist() for r in raw], [0.95, 0.9, 0.05], [(16, 16)] * 3,
                (0.3, 0.2, 0.2), 0.5, 0.01)
            assert kept[2] == []
    ok = idle_kept == [0, 0, 0]
    report("idle view starvation", ok,
           f"view weights (0.95, 0.9, 0.05) at global ratio 0.5: the 0.05 "
           f"view keeps {idle_kept} tokens over 3 random frames while 295 "
           f"survive overall (brute-force reference agrees)")


# ---------------------------------------------------------------------------
# 9. retention gap over the random baseline


@pytest.fixture(scope="module")
def noiseless_run():
    start = time.perf_counter()
    config = resolve_config({"corpus": {"count": 100, "seed": 19,
                                        "noise_sigma": 0.0, "embed_dim": 16}})
    episodes = generate_corpus(scenario_template(config), 100, 19)
    subset = episodes[:8]
    observations = [obs for ep in subset for obs in ep.observations]
    annotations = {ep.episode_id: ep.annotation for ep in subset}
    intra, inter, _, _ = train_predictors(observations, annotations, config)
    return episodes, intra, inter, time.perf_counter() - start


def test_09_retention_gap(noiseless_run):
    episodes, intra, inter, setup_seconds = noiseless_run
    flop = FlopModel(layers=18, embed_dim=2048)
    corpus = score_corpus([ep.observations for ep in episodes],
                          [ep.annotation for ep in episodes], intra, inter,
                          PruneConfig().epsilon)
    hier, _ = evaluate_strategy(corpus, PruneConfig(), flop)
    rand, _ = evaluate_strategy(
        corpus, PruneConfig(strategy=Strategy.RANDOM_DROP), flop)
    gap = hier.retention_relevant - rand.retention_relevant
    ok = gap >= 0.3
    report("retention gap", ok,
           f"100 noiseless episodes, predictors trained on 8: hierarchical "
           f"pruning retains {hier.retention_relevant:.4f} of relevant "
           f"tokens vs {rand.retention_relevant:.4f} for random drop at "
           f"equal budget ({rand.kept_total} tokens each); gap {gap:.4f} "
           f">= 0.3 (setup {setup_seconds:.1f}s)")


# ---------------------------------------------------------------------------
# 10. global ratio sweep


def test_10_ratio_sweep():
    rng = np.random.default_rng(7)
    raw = [rng.random(256) for _ in range(3)]
    model = FlopModel(layers=18, embed_dim=2048)
    kept, speedups = [], []
    for beta in (0.0, 0.25, 0.5, 0.75):
        result = hierarchical_prune(raw, [0.9, 0.8, 0.7], [(16, 16)] * 3,
                                    replace(PruneConfig(), beta=beta))
        kept.append(result.kept_total)
        speedups.append(speedup_estimate(model, 768, result.kept_total))
    ok = (kept == [590, 443, 295, 148]
          and all(b >= a for a, b in zip(speedups, speedups[1:])))
    report("ratio sweep", ok,
           f"global ratios 0/0.25/0.5/0.75 on 590 local survivors -> kept "
           f"{kept}; speedups {[f'{s:.2f}x' for s in speedups]} "
           f"non-decreasing")
