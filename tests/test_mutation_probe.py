"""Malformed artifacts end in the error taxonomy, never in a traceback.

One small experiment (one episode, 20 training steps) is run once. Each
case then mutates one of its files in place, checks, and restores the
file. Whatever the mutation, ``validate_artifacts`` returns its problem
lines and raises nothing, and ``mvprune prune --corpus`` and ``mvprune
train --corpus`` on the run exit 0 or 2, each case within 2 s. Where a
mutation lands is drawn from a generator seeded with the case's name.
"""

import random
import re
import time

import numpy as np
import pytest

from mvprune.bench import run_experiment, validate_artifacts
from mvprune.cli import main

CONFIG = {
    "corpus": {"count": 1, "seed": 11, "episode_length": 12, "embed_dim": 8,
               "distractors": 1},
    "train": {"hidden": 16, "steps": 20, "batch_size": 64},
}

TEXT_FILES = ("config.resolved.json", "corpus/manifest.json",
              "corpus/ep0000.obs.jsonl", "corpus/ep0000.ann.jsonl",
              "corpus/ep0000.geom.jsonl", "corpus/ep0000.prune.jsonl",
              "intra.mlp.json", "inter.mlp.json", "intra_trace.csv",
              "inter_trace.csv")
FILES = TEXT_FILES + ("corpus/ep0000.obs.npy",)

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# a quoted object key, as in JSON and the .npy header, or a CSV header's
# first column name
KEY = re.compile(rb"(?<=[\"'])\w+(?=[\"']:)|^\w+(?=,)")


def truncate(data, rng):
    return data[:rng.randrange(len(data))]


def flip_bit(data, rng):
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def insert_ff(data, rng):
    i = rng.randrange(len(data) + 1)
    return data[:i] + b"\xff" + data[i:]


def replace_match(pattern, value):
    def mutate(data, rng):
        start, end = rng.choice([m.span() for m in pattern.finditer(data)])
        return data[:start] + value + data[end:]
    return mutate


def duplicate_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i + 1] + lines[i:])


def delete_line(data, rng):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    return b"".join(lines[:i] + lines[i + 1:])


MUTATIONS = {
    "truncate": truncate, "flip_bit": flip_bit, "insert_ff": insert_ff,
    **{f"number_to_{value.decode()}": replace_match(NUMBER, value)
       for value in (b"1e400", b"-0", b"-0.0", b"1" * 23, b"[]", b"{}", b"null",
                     b"true", b'"x"')},
    "rename_key": replace_match(KEY, b"renamed"),
    "duplicate_line": duplicate_line, "delete_line": delete_line,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    run_experiment(CONFIG, out)
    return out


def cli_runs(run_dir, out):
    """Exit codes of ``train`` and ``prune`` on the run's corpus."""
    config = ["--config", str(run_dir / "config.resolved.json")]
    corpus = ["--corpus", str(run_dir / "corpus")]
    return [main(["train", *config, *corpus, "--out", str(out / "train")]),
            main(["prune", *config, *corpus,
                  "--intra", str(run_dir / "intra.mlp.json"),
                  "--inter", str(run_dir / "inter.mlp.json"),
                  "--out", str(out / "prune")])]


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", FILES)
def test_mutated_artifact_ends_in_the_error_taxonomy(run_dir, tmp_path, name,
                                                     mutation):
    path = run_dir / name
    original = path.read_bytes()
    path.write_bytes(MUTATIONS[mutation](
        original, random.Random(f"{name} {mutation}")))
    start = time.perf_counter()
    try:
        problems = validate_artifacts(run_dir)
        codes = cli_runs(run_dir, tmp_path)
    finally:
        path.write_bytes(original)
    assert isinstance(problems, list)
    assert set(codes) <= {0, 2}
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("name", TEXT_FILES)
def test_byte_that_is_not_utf8_names_file_and_offset(run_dir, tmp_path,
                                                     capsys, name):
    path = run_dir / name
    original = path.read_bytes()
    path.write_bytes(original[:40] + b"\xff" + original[40:])
    try:
        problems = validate_artifacts(run_dir)
        codes = cli_runs(run_dir, tmp_path)
        if name == "config.resolved.json":
            codes.append(main(["gen", "--config", str(path),
                               "--out", str(tmp_path / "gen")]))
    finally:
        path.write_bytes(original)
    assert len(problems) == 1
    assert problems[0].startswith(f"{path.name}: ")
    assert "byte offset 40" in problems[0]
    # train reads the config and the corpus, prune the checkpoints too, and
    # neither reads the traces or the prune records
    read_by_train = not name.endswith((".mlp.json", "_trace.csv",
                                       ".prune.jsonl"))
    read_by_prune = not name.endswith(("_trace.csv", ".prune.jsonl"))
    assert codes[:2] == [2 if read_by_train else 0, 2 if read_by_prune else 0]
    assert set(codes[2:]) <= {2}
    assert capsys.readouterr().err.count("byte offset 40") == codes.count(2)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_token_that_is_not_finite_names_the_sidecar(run_dir, tmp_path, capsys,
                                                    value):
    path = run_dir / "corpus" / "ep0000.obs.npy"
    original = path.read_bytes()
    # the middle float of the array, which ends the file
    at = len(original) - 8 * (np.load(path).size // 2)
    path.write_bytes(original[:at] + np.array(value, "<f8").tobytes()
                     + original[at + 8:])
    try:
        problems = validate_artifacts(run_dir)
        codes = cli_runs(run_dir, tmp_path)
    finally:
        path.write_bytes(original)
    assert len(problems) == 1
    assert problems[0].startswith("ep0000.obs.jsonl: token sidecar "
                                  "ep0000.obs.npy holds a value that is not "
                                  "finite")
    assert codes == [2, 2]
    assert capsys.readouterr().err.count("ep0000.obs.npy") == 2
