"""Smoke tests of the benchmark on a tiny config.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from mvprune import bench, predictor, pruner
from perfbench import tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"corpus": {"count": 1, "episode_length": 12, "patch_size": 32,
                   "embed_dim": 8},
        "train": {"steps": 5, "batch_size": 16, "hidden": 8}}


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    ops = workloads.Ops()
    metrics, samples = workloads.end_to_end(
        workloads.WORKLOADS[name](0, TINY), 0.1, tmp_path, ops, {})
    assert {m: unit for m, (_, unit) in metrics.items()} \
        == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert samples["setups"] == workloads.SETUP_REPEATS
    assert samples["passes per frame"] >= workloads.MIN_PASSES
    assert ops.attempted > 0 and ops.failed == 0, ops.problems


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    ops = workloads.Ops()
    metrics, spans = tracing.traced(
        workloads.WORKLOADS[name](0, TINY), 0.1, tmp_path, ops, {})
    assert {m: unit for m, (_, unit) in metrics.items()} \
        == units("per_layer")
    assert ops.failed == 0, ops.problems
    assert {s["name"] for s in spans} >= tracing.STAGES
    assert all(s["end"] >= s["start"] for s in spans)


def test_flipped_kept_index_in_prune_records_fails_the_run(tmp_path,
                                                           monkeypatch):
    workload = workloads.Experiment(0, TINY)
    expected = {}
    clean = workloads.Ops()
    assert workload.run(tmp_path / "clean", workloads.NULL_TRACER, clean,
                        expected, True)
    assert clean.failed == 0, clean.problems

    original = bench.run_experiment

    def tampered(config, out):
        report = original(config, out)
        path = sorted((Path(out) / "corpus").glob("*.prune.jsonl"))[0]
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["result"]["kept"][0][0] += 1
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return report

    monkeypatch.setattr(bench, "run_experiment", tampered)
    ops = workloads.Ops()
    assert workload.run(tmp_path / "tampered", workloads.NULL_TRACER, ops,
                        expected, False) is None
    assert (ops.attempted, ops.failed) == (1, 1)


def test_flipped_kept_index_in_online_result_fails_the_pass(monkeypatch):
    prep, _, _ = workloads.prepare(workloads.Compare32(0, TINY).config)
    expected = {}
    workloads.checked_online_pass(prep, workloads.Ops(), expected)

    original = pruner.prune_observation
    calls = []

    def tampered(*args):
        scores, result = original(*args)
        if not calls:
            kept = list(result.kept)
            kept[0] = (kept[0][0] + 1,) + kept[0][1:]
            object.__setattr__(result, "kept", tuple(kept))
        calls.append(1)
        return scores, result

    monkeypatch.setattr(pruner, "prune_observation", tampered)
    ops = workloads.Ops()
    workloads.checked_online_pass(prep, ops, expected)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_composed_stages_must_match_prune_observation(monkeypatch):
    prep, _, _ = workloads.prepare(workloads.Experiment(0, TINY).config)
    original = predictor.predict_inter
    # prune_observation holds its own reference, so only the composed
    # pass sees the halved view weights
    monkeypatch.setattr(predictor, "predict_inter",
                        lambda params, obs: original(params, obs) * 0.5)
    ops = workloads.Ops()
    tracing.composed_pass(prep, ops)
    assert ops.failed == ops.attempted == len(prep.observations)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    for path in (ROOT / "perfbench").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / path.relative_to(ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
