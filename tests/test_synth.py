"""Synthetic episode generator: determinism, ground truth, and corpora."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mvprune import synth
from mvprune.annotate import BoxKind, annotate_episode, detect_interaction
from mvprune.cli import main
from mvprune.core import ConfigError, ParseError, Phase
from mvprune.synth import (
    GRIPPER_SIZE,
    IMAGE_SIZE,
    OBJECT_BAND_TOP,
    OBJECT_SIZE,
    ArmScript,
    Box,
    ScenarioSpec,
    derive_episode_spec,
    generate,
    generate_corpus,
    load_corpus,
    write_corpus,
)


def small_spec(**overrides):
    kwargs = dict(
        episode_id="ep-small",
        episode_length=12,
        arms=(ArmScript(2, 4, 7, target_object=0),
              ArmScript(3, 5, 8, target_object=1)),
        distractors=1,
        embed_dim=8,
        noise_sigma=0.01,
        seed=5,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


# ---------------------------------------------------------------------------
# scenario validation


def test_arm_script_order_enforced():
    with pytest.raises(ConfigError):
        ArmScript(grasp=5, close=5, release=9)
    with pytest.raises(ConfigError):
        ArmScript(grasp=5, close=8, release=7)


def test_spec_requires_debounceable_interactions():
    with pytest.raises(ConfigError):
        small_spec(arms=(ArmScript(2, 3, 4), None))  # only 2 frames long
    with pytest.raises(ConfigError):
        small_spec(arms=(ArmScript(2, 4, 10), None))  # only 2 frames after


def test_spec_validates_objects():
    good = small_spec()
    assert good.grid_side == 16
    bad_slot = (Box(10, OBJECT_BAND_TOP, 10 + OBJECT_SIZE,
                    OBJECT_BAND_TOP + OBJECT_SIZE, BoxKind.OBJECT, ident=0),
                good.objects[1])
    with pytest.raises(ConfigError):
        small_spec(objects=bad_slot)
    off_band = (Box(64, 100, 64 + OBJECT_SIZE, 100 + OBJECT_SIZE,
                    BoxKind.OBJECT, ident=0), good.objects[1])
    with pytest.raises(ConfigError):
        small_spec(objects=off_band)
    same_id = (good.objects[0], Box(160, OBJECT_BAND_TOP, 160 + OBJECT_SIZE,
                                    OBJECT_BAND_TOP + OBJECT_SIZE,
                                    BoxKind.OBJECT, ident=0))
    with pytest.raises(ConfigError):
        small_spec(objects=same_id)


def test_spec_validates_direction_and_patch():
    with pytest.raises(ConfigError):
        small_spec(relevance_direction=np.ones(8))  # not unit length
    with pytest.raises(ConfigError):
        small_spec(relevance_direction=np.ones(4) / 2.0)  # wrong width
    with pytest.raises(ConfigError):
        small_spec(patch_size=33)
    with pytest.raises(ConfigError):
        small_spec(distractors=7)
    direction = np.zeros(8)
    direction[3] = -1.0
    assert small_spec(relevance_direction=direction).direction()[3] == -1.0


def test_spec_target_must_exist():
    with pytest.raises(ConfigError):
        small_spec(arms=(ArmScript(2, 4, 7, target_object=42), None))


# ---------------------------------------------------------------------------
# single-episode generation


def test_generate_is_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    assert a.annotation == b.annotation
    assert a.geometry == b.geometry
    assert list(a.observations) == list(b.observations)
    c = generate(small_spec(seed=6))
    assert list(a.observations) != list(c.observations)


def test_generate_structure():
    episode = generate(small_spec())
    assert len(episode.observations) == 12
    obs = episode.observations[0]
    assert obs.view_count == 3
    assert obs.total_tokens == 3 * 256
    assert obs.embed_dim == 8
    assert episode.annotation.grids == ((16, 16),) * 3
    assert episode.episode_id == "ep-small"


# a unit direction with negative and -0.0 entries: 0.0 times one of them is
# -0.0, which the old outer product held wherever the mask is 0
SIGNED_DIRECTION = np.array([0.6, -0.8, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0])


def assert_oracle_tokens(episode):
    spec = episode.spec
    expected = oracles.oracle_episode_tokens(
        spec.seed, spec.distractors,
        [(frame.masks, frame.inter_labels)
         for frame in episode.annotation.frames],
        spec.direction(), spec.noise_sigma)
    assert len(expected) == len(episode.observations)
    for obs, views in zip(episode.observations, expected):
        assert len(views) == obs.view_count
        for grid, (tokens, cls) in zip(obs.views, views):
            # bytes, not ==: 0.0 == -0.0 would hide a changed sign bit
            assert grid.tokens.tobytes() == tokens.tobytes()
            assert grid.cls.tobytes() == cls.tobytes()


@pytest.mark.parametrize("direction, sigma", [
    (None, 0.01), (SIGNED_DIRECTION, 0.01), (SIGNED_DIRECTION, 0.0),
    (None, 0.0)])
def test_generated_tokens_equal_outer_plus_noise_oracle(direction, sigma):
    spec = small_spec(relevance_direction=direction, noise_sigma=sigma)
    assert_oracle_tokens(generate(spec))
    corpus = generate_corpus(spec, 2, seed=3)
    for episode in corpus:
        assert_oracle_tokens(episode)
    # one read-only buffer holds every token of the corpus
    grids = [view.tokens for ep in corpus for obs in ep.observations
             for view in obs.views]
    buffer = grids[0].base
    assert not buffer.flags.writeable
    assert all(grid.base is buffer and not grid.flags.writeable
               for grid in grids)
    assert sum(grid.size for grid in grids) == buffer.size


def test_head_view_contains_scene_boxes():
    episode = generate(small_spec())
    head = episode.geometry[0].views[0]
    kinds = [b.kind for b in head.boxes]
    assert kinds.count(BoxKind.GRIPPER) == 2
    assert kinds.count(BoxKind.OBJECT) == 3  # two objects plus one distractor
    assert all(b.x1 <= IMAGE_SIZE and b.y1 <= IMAGE_SIZE for b in head.boxes)
    assert episode.geometry[0].task_objects == frozenset([0, 1])


def test_wrist_views_only_populated_near_interaction():
    spec = small_spec()
    episode = generate(spec)
    for arm, script in enumerate(spec.arms):
        wrist = spec.roles.wrist_for_arm(arm)
        lo = script.grasp - spec.wrist_margin
        hi = script.release + spec.wrist_margin
        for t in range(spec.episode_length):
            boxes = episode.geometry[t].views[wrist].boxes
            if lo <= t < hi:
                assert len(boxes) == 2
            else:
                assert boxes == ()


def test_head_overlap_window_matches_script_exactly():
    spec = small_spec()
    episode = generate(spec)
    for arm, script in enumerate(spec.arms):
        for t in range(spec.episode_length):
            touching = detect_interaction(episode.geometry[t], arm,
                                          spec.roles.head)
            assert touching == (script.grasp <= t < script.release), \
                f"arm {arm} frame {t}"


def test_ground_truth_labels_and_phases():
    spec = small_spec()
    ann = generate(spec).annotation
    for arm, script in enumerate(spec.arms):
        wrist = spec.roles.wrist_for_arm(arm)
        for t in range(spec.episode_length):
            frame = ann.frames[t]
            assert frame.inter_labels[0] == 1
            assert frame.inter_labels[wrist] == int(
                script.grasp <= t < script.release)
            if t < script.grasp:
                want = Phase.APPROACHING
            elif t < script.close:
                want = Phase.STARTING_OPERATION
            elif t < script.release:
                want = Phase.MOVING_WITH_OBJECT
            else:
                want = Phase.RETRACTING
            assert frame.arm_phases[arm] is want


def test_annotation_pipeline_reproduces_ground_truth():
    for seed in (0, 3, 11):
        spec = small_spec(seed=seed)
        episode = generate(spec)
        derived = annotate_episode(episode.geometry, spec.roles,
                                   spec.episode_id)
        assert derived == episode.annotation


def test_idle_episode_is_all_approaching():
    spec = small_spec(arms=(None, None), distractors=0)
    episode = generate(spec)
    ann = episode.annotation
    assert all(f.inter_labels == (1, 0, 0) for f in ann.frames)
    assert all(f.arm_phases == (Phase.APPROACHING, Phase.APPROACHING)
               for f in ann.frames)
    assert annotate_episode(episode.geometry, spec.roles,
                            spec.episode_id) == ann


def test_noiseless_tokens_are_exact_mask_projections():
    spec = small_spec(noise_sigma=0.0)
    episode = generate(spec)
    direction = spec.direction()
    for obs, frame in zip(episode.observations, episode.annotation.frames):
        for view, mask in zip(obs.views, frame.masks):
            want = np.outer(np.asarray(mask, float), direction)
            assert np.array_equal(view.tokens, want)
            label = frame.inter_labels[view.view_id]
            assert np.array_equal(view.cls, direction * label)


def test_gripper_boxes_use_constant_size():
    episode = generate(small_spec())
    for geom in episode.geometry:
        for box in geom.views[0].boxes:
            if box.kind is BoxKind.GRIPPER:
                assert box.x1 - box.x0 == GRIPPER_SIZE
                assert box.y1 - box.y0 == GRIPPER_SIZE


# ---------------------------------------------------------------------------
# corpora


def test_derive_episode_spec_is_deterministic_and_bounded():
    template = small_spec()
    one = derive_episode_spec(template, 3, 999)
    two = derive_episode_spec(template, 3, 999)
    assert one == two
    assert one.episode_id == "ep0003"
    assert one.seed == 999
    for script, base in zip(one.arms, template.arms):
        shift = script.grasp - base.grasp
        assert -2 <= shift <= 2
        assert script.close - base.close == shift
        assert script.release - base.release == shift
    for box, base in zip(one.objects, template.objects):
        assert abs(box.x0 - base.x0) <= 4
        assert box.x1 - box.x0 == OBJECT_SIZE


def test_generate_corpus_varies_and_reproduces():
    template = small_spec()
    corpus = generate_corpus(template, 4, seed=17)
    again = generate_corpus(template, 4, seed=17)
    assert [e.episode_id for e in corpus] == ["ep0000", "ep0001", "ep0002",
                                              "ep0003"]
    for a, b in zip(corpus, again):
        assert a.annotation == b.annotation
        assert list(a.observations) == list(b.observations)
    seeds = {e.spec.seed for e in corpus}
    assert len(seeds) == 4


def corpus_digest(episodes):
    """SHA-256 over the bytes of every token grid and summary token."""
    digest = hashlib.sha256()
    for episode in episodes:
        for obs in episode.observations:
            for view in obs.views:
                digest.update(view.tokens.tobytes())
                digest.update(view.cls.tobytes())
    return digest.hexdigest()


# the corpus of test_generate_corpus_varies_and_reproduces, drawn by a
# process that first pins itself to one CPU, so it draws on one thread
PINNED_CORPUS = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from mvprune import synth
import test_synth
assert synth._usable_cpus() == 1
print(test_synth.corpus_digest(
    synth.generate_corpus(test_synth.small_spec(), 4, seed=17)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_generate_corpus_bytes_do_not_depend_on_the_worker_count():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", PINNED_CORPUS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == corpus_digest(
        generate_corpus(small_spec(), 4, seed=17))


def test_each_corpus_episode_equals_its_spec_generated_alone(monkeypatch):
    # eight threads, more than the cores, switching threads often
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        corpus = generate_corpus(small_spec(), 8, seed=17)
    finally:
        sys.setswitchinterval(interval)
    for episode in corpus:
        alone = generate(episode.spec)
        assert corpus_digest([alone]) == corpus_digest([episode])
        assert alone.annotation == episode.annotation
        assert alone.geometry == episode.geometry


def test_an_episode_error_reaches_the_caller_unchanged(monkeypatch):
    error = ConfigError("no geometry for ep0002")
    build_geometry = synth.build_geometry

    def failing(spec, rng):
        if spec.episode_id == "ep0002":
            raise error
        return build_geometry(spec, rng)

    monkeypatch.setattr(synth, "build_geometry", failing)
    with pytest.raises(ConfigError) as info:
        generate_corpus(small_spec(), 4, seed=17)
    assert info.value is error


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_no_episode_starts_once_one_has_raised(threads, monkeypatch):
    monkeypatch.setattr(synth, "_usable_cpus", lambda: threads)
    events = []
    build_geometry = synth.build_geometry

    def failing(spec, rng):
        if spec.episode_id == "ep0002":
            events.append("raise")
            raise ConfigError("no geometry for ep0002")
        events.append("start")
        return build_geometry(spec, rng)

    monkeypatch.setattr(synth, "build_geometry", failing)
    with pytest.raises(ConfigError, match="ep0002"):
        generate_corpus(small_spec(), 16, seed=17)
    # a thread may already hold its next job when another raises, but
    # takes none after that
    late = events[events.index("raise") + 1:]
    assert len(late) <= threads - 1


def record_derivations(monkeypatch):
    """Record every ``derive_episode_spec`` call in the returned list."""
    derived = []
    monkeypatch.setattr(synth, "derive_episode_spec",
                        lambda *args: derived.append(args))
    return derived


# token buffers of an exbibyte (2**60 bytes) or more, which no host can map:
# the first two are refused by the allocator, the last two before it, as
# larger than numpy's largest array
@pytest.mark.parametrize("count, overrides", [
    (2 ** 42, {}), (1, {"embed_dim": 2 ** 44}),
    (1, {"episode_length": 10 ** 15}), (10 ** 12, {"embed_dim": 2 ** 40})])
def test_generate_corpus_refuses_a_corpus_too_large_before_deriving(
        count, overrides, monkeypatch):
    derived = record_derivations(monkeypatch)
    with pytest.raises(ConfigError, match="corpus too large") as info:
        generate_corpus(small_spec(**overrides), count, seed=0)
    assert info.value.field == "corpus"
    assert derived == []


def test_generate_refuses_an_episode_too_large():
    with pytest.raises(ConfigError, match="corpus too large"):
        generate(small_spec(embed_dim=2 ** 44))


@pytest.mark.parametrize("flag, value", [
    ("--episodes", 2 ** 39), ("--episodes", 10 ** 12),
    ("--embed-dim", 2 ** 44), ("--episode-length", 10 ** 15)])
def test_cli_gen_refuses_a_corpus_too_large(flag, value, tmp_path, capsys,
                                            monkeypatch):
    derived = record_derivations(monkeypatch)
    assert main(["gen", "--out", str(tmp_path), flag, str(value)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: corpus too large") and err.count("\n") == 1
    assert derived == []


def test_write_corpus_is_byte_stable(tmp_path):
    episodes = generate_corpus(small_spec(), 2, seed=1)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    manifest_a = write_corpus(episodes, 1, dir_a)
    manifest_b = write_corpus(episodes, 1, dir_b)
    assert manifest_a == manifest_b
    for name in sorted(p.name for p in dir_a.iterdir()):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_corpus_round_trip_and_regeneration(tmp_path):
    template = small_spec()
    episodes = generate_corpus(template, 3, seed=9)
    write_corpus(generate_corpus(template, 3, seed=9), 9, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "corpus_manifest"
    assert manifest["count"] == 3
    assert manifest["episodes"][0]["tokens"] == "ep0000.obs.npy"
    loaded = load_corpus(tmp_path)
    for entry, episode, manifest_entry in zip(loaded, episodes,
                                              manifest["episodes"]):
        assert entry["episode_id"] == episode.episode_id
        assert entry["annotation"] == episode.annotation
        assert entry["observations"] == list(episode.observations)
        assert entry["geometry"] == list(episode.geometry)
        # every episode is recoverable from the manifest alone
        respawned = generate(derive_episode_spec(
            template, int(entry["episode_id"][2:]), manifest_entry["seed"]))
        assert list(respawned.observations) == entry["observations"]


# ---------------------------------------------------------------------------
# refusals of a loaded corpus


@pytest.fixture(scope="module")
def written_corpus(tmp_path_factory):
    """A two-episode corpus on 4x4 grids with checkpoints trained on it, and
    its first episode again on 8x8 grids."""
    root = tmp_path_factory.mktemp("written")
    write_corpus(generate_corpus(small_spec(patch_size=64), 2, seed=9), 9,
                 root / "corpus")
    write_corpus(generate_corpus(small_spec(patch_size=32), 1, seed=9), 9,
                 root / "finer")
    assert main(["train", "--corpus", str(root / "corpus"), "--out",
                 str(root / "ckpt"), "--hidden", "4", "--steps", "0"]) == 0
    return root


def _edit_manifest(corpus, edit):
    manifest = json.loads((corpus / "manifest.json").read_text())
    edit(manifest["episodes"])
    (corpus / "manifest.json").write_text(json.dumps(manifest))


def _edit_records(path, edit):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in edit(records)))


def _renumber(records):
    for record in records:
        record["frame_index"] += 3
    return records


# each damage: the field the refusal names, and an edit of the corpus
# directory given the directory of the 8x8 copy of its first episode
CORPUS_DAMAGE = {
    "renumbered_frames": ("frame_index", lambda corpus, finer: _edit_records(
        corpus / "ep0000.obs.jsonl", _renumber)),
    "duplicate_id": ("episode_id", lambda corpus, finer: _edit_manifest(
        corpus, lambda episodes: episodes.__setitem__(1, episodes[0]))),
    "foreign_observations": ("episode_id", lambda corpus, finer: _edit_manifest(
        corpus, lambda episodes: episodes[0].update(
            observations="ep0001.obs.jsonl", tokens="ep0001.obs.npy"))),
    "foreign_annotation": ("episode_id", lambda corpus, finer: shutil.copyfile(
        corpus / "ep0001.ann.jsonl", corpus / "ep0000.ann.jsonl")),
    "foreign_geometry": ("episode_id", lambda corpus, finer: shutil.copyfile(
        corpus / "ep0001.geom.jsonl", corpus / "ep0000.geom.jsonl")),
    "short_annotation": ("frames", lambda corpus, finer: _edit_records(
        corpus / "ep0001.ann.jsonl", lambda records: records[:5])),
    "short_geometry": ("frames", lambda corpus, finer: _edit_records(
        corpus / "ep0001.geom.jsonl", lambda records: records[:5])),
    "view_grids": ("grids", lambda corpus, finer: [
        shutil.copyfile(finer / name, corpus / name)
        for name in ("ep0000.obs.jsonl", "ep0000.obs.npy")]),
    "traversal_id": ("episode_id", lambda corpus, finer: _edit_manifest(
        corpus, lambda episodes: episodes[0].update(episode_id="../x"))),
    "nested_file": ("geometry", lambda corpus, finer: _edit_manifest(
        corpus, lambda episodes: episodes[0].update(
            geometry="sub/ep0000.geom.jsonl"))),
    "parent_file": ("tokens", lambda corpus, finer: _edit_manifest(
        corpus, lambda episodes: episodes[0].update(tokens=".."))),
}


def damaged_corpus(written_corpus, tmp_path, damage):
    corpus = tmp_path / "corpus"
    shutil.copytree(written_corpus / "corpus", corpus)
    CORPUS_DAMAGE[damage][1](corpus, written_corpus / "finer")
    return corpus


def test_written_corpus_loads(written_corpus):
    loaded = load_corpus(written_corpus / "corpus")
    assert [entry["episode_id"] for entry in loaded] == ["ep0000", "ep0001"]
    assert loaded[0]["annotation"].grids == ((4, 4),) * 3


@pytest.mark.parametrize("damage", sorted(CORPUS_DAMAGE))
def test_load_corpus_refuses_disagreeing_files(damage, written_corpus,
                                               tmp_path):
    corpus = damaged_corpus(written_corpus, tmp_path, damage)
    with pytest.raises(ParseError) as err:
        load_corpus(corpus)
    assert err.value.field == CORPUS_DAMAGE[damage][0]


@pytest.mark.parametrize("damage", ["renumbered_frames", "duplicate_id",
                                    "traversal_id"])
def test_cli_refuses_a_disagreeing_corpus(damage, written_corpus, tmp_path,
                                          capsys):
    corpus = damaged_corpus(written_corpus, tmp_path, damage)
    out, ckpt = tmp_path / "out", written_corpus / "ckpt"
    for argv in (["train", "--corpus", str(corpus), "--out",
                  str(out / "trained")],
                 ["prune", "--corpus", str(corpus), "--intra",
                  str(ckpt / "intra.mlp.json"), "--inter",
                  str(ckpt / "inter.mlp.json"), "--out", str(out / "pruned")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # an id of ../x would have put its records next to the output directory
    assert not [path for path in out.rglob("*") if path.is_file()]
