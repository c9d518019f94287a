"""Every value of every config key ends in exit 0 or 2, never a traceback.

Each case sets one key of the four sections of a small experiment config
(one episode of 12 frames, 5 training steps, hidden width 4) to one of
``VALUES``. The tier-1 test takes every case through what ``mvprune prune
--config`` runs before training: ``_parse`` and the corpus draw. Each must
succeed or raise one of ``INPUT_ERRORS``, which the CLI reports with exit
code 2.

Run as a script, this module takes every case through four commands,
training, pruning and writing included: ``mvprune prune --config``,
``gen``, ``train --corpus`` and ``prune --corpus``. The last two read one
corpus and its checkpoints, staged once from the base config. The script
prints each run that ends otherwise than in exit 0 or 2, and each of
``SIZE_KEYS`` at ``10 ** 30`` whose four exit codes differ, and exits 1
if there is one::

    PYTHONPATH=src python tests/test_config_probe.py

With ``--list`` it also prints one line per case and command: the command,
the key, the value, the exit code and the last line the run wrote to
stderr, with the temporary directory written as ``<tmp>``. Two trees'
listings can be diffed::

    PYTHONPATH=src python tests/test_config_probe.py --list > cases.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

import pytest

from mvprune.bench import (
    DEFAULT_CONFIG,
    _parse,
    resolve_config,
    scenario_template,
)
from mvprune.cli import main
from mvprune.core import INPUT_ERRORS
from mvprune.synth import generate_corpus

BASE = {
    "corpus": {"count": 1, "episode_length": 12, "embed_dim": 8},
    "train": {"steps": 5, "hidden": 4},
}
SECTIONS = ("corpus", "train", "prune", "flop")
VALUES = (None, True, False, "x", [], {}, -1, 0, 1, 0.5, -0.0, 1.5, 2, 3,
          10 ** 30, 1e300, -1e300, [0.5], [0.3, 0.2, 0.2],
          [0.1, 0.2, 0.3, 0.4], [-1.0, 2.0, 0.5])
# keys that size the corpus or a training array; at 10 ** 30 every command
# must refuse them alike, since numpy allocates no such array anywhere
SIZE_KEYS = (("corpus", "count"), ("corpus", "episode_length"),
             ("corpus", "embed_dim"), ("train", "hidden"), ("train", "steps"),
             ("train", "batch_size"))
# a 1x1 patch makes 256x256 grids, whose spatial weighting alone caches
# 268 MB
LEFT_OUT = ("corpus", "patch_size", 1)


def cases(section: str, key: str) -> list[dict]:
    """The probe configs that set ``section.key``, one per probed value."""
    configs = []
    for value in VALUES:
        if (section, key, value) == LEFT_OUT and value is not True:
            continue
        config = json.loads(json.dumps(BASE))
        config.setdefault(section, {})[key] = value
        configs.append(config)
    return configs


KEYS = [(section, key) for section in SECTIONS
        for key in DEFAULT_CONFIG[section]]


@pytest.mark.parametrize("section, key", KEYS,
                         ids=[f"{s}.{k}" for s, k in KEYS])
def test_config_value_is_drawn_or_refused(section, key):
    for config in cases(section, key):
        try:
            resolved = resolve_config(config)
            _parse(resolved)
            generate_corpus(scenario_template(resolved),
                            resolved["corpus"]["count"],
                            resolved["corpus"]["seed"])
        except INPUT_ERRORS:
            pass
        except Exception as exc:
            raise AssertionError(
                f"{section}.{key} = {config[section][key]!r} raised "
                f"{exc!r}") from exc


def commands(tmp: str) -> dict[str, list[str]]:
    """Each command a case is taken through, by name: its arguments, all but
    ``--config``. The staged commands read the corpus and checkpoints under
    ``tmp/staged``, which ``run_grid`` makes once from ``BASE``."""
    staged = f"{tmp}/staged"
    return {
        "prune --config": ["prune", "--out", f"{tmp}/out"],
        "gen": ["gen", "--out", f"{tmp}/gen"],
        "train --corpus": ["train", "--corpus", f"{staged}/corpus",
                           "--out", f"{tmp}/train"],
        "prune --corpus": ["prune", "--corpus", f"{staged}/corpus",
                           "--intra", f"{staged}/intra.mlp.json",
                           "--inter", f"{staged}/inter.mlp.json",
                           "--out", f"{tmp}/pruned"],
    }


def run_grid(listing: bool = False) -> int:
    """Every case through each of ``commands``; 1 if one escaped or the
    commands disagree on a case of ``SIZE_KEYS`` at ``10 ** 30``. With
    ``listing``, each run's exit code and last stderr line too."""
    codes, escaped, disagree = {}, [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(BASE), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["gen", "--out", f"{tmp}/staged/corpus"],
                         ["train", "--corpus", f"{tmp}/staged/corpus",
                          "--out", f"{tmp}/staged"]):
                if main([*argv, "--config", str(path)]) != 0:
                    raise SystemExit(f"could not stage: mvprune {argv[0]}")
        for section, key in KEYS:
            for config in cases(section, key):
                path.write_text(json.dumps(config), encoding="utf-8")
                case = f"{section}.{key} = {json.dumps(config[section][key])}"
                case_codes = {}
                for name, argv in commands(tmp).items():
                    err = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(err):
                            code = main([*argv, "--config", str(path)])
                    except BaseException:
                        escaped.append(
                            f"{name}: {case}: {traceback.format_exc()}")
                        continue
                    codes[code] = codes.get(code, 0) + 1
                    case_codes[name] = code
                    if code not in (0, 2):
                        escaped.append(f"{name}: {case}: exit {code}")
                    if listing:
                        last = (err.getvalue().splitlines() or [""])[-1]
                        print(f"{name}: {case}: exit {code}: "
                              f"{last.replace(tmp, '<tmp>')}")
                value = config[section][key]
                sized = (section, key) in SIZE_KEYS and \
                    type(value) is int and value == 10 ** 30
                if sized and len(set(case_codes.values())) > 1:
                    disagree.append(
                        f"{case}: the commands disagree: " + ", ".join(
                            f"{name} exit {code}"
                            for name, code in case_codes.items()))
    for line in escaped + disagree:
        print(line)
    print(f"{sum(codes.values()) + len(escaped)} runs: " + ", ".join(
        f"{count} exit {code}" for code, count in sorted(codes.items()))
        + f", {len(escaped)} escaped, {len(disagree)} size cases disagree")
    return 1 if escaped or disagree else 0


if __name__ == "__main__":
    sys.exit(run_grid("--list" in sys.argv[1:]))
