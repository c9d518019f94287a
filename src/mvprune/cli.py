"""Command line entry point.

Subcommands mirror the pipeline stages: ``gen`` writes a synthetic corpus,
``annotate`` derives an annotation from geometry records, ``train`` fits
the predictors on a corpus, ``prune`` runs a full experiment from a config
(or prunes an existing corpus with existing checkpoints), ``sweep`` and
``compare`` evaluate ratio schedules and strategy baselines, and
``validate`` re-parses the record artifacts of an output directory.

The output directory falls back to the ``MVPRUNE_OUT_DIR`` environment
variable when ``--out`` is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import (
    INPUT_ERRORS,
    ConfigError,
    Strategy,
    save_annotation,
)
from .annotate import annotate_episode, load_geometry
from .bench import (
    _flop_model,
    _parse,
    compare_strategies,
    load_experiment_config,
    prune_and_write,
    resolve_config,
    run_experiment,
    scenario_template,
    score_corpus,
    sweep_beta,
    train_episodes,
    validate_artifacts,
    write_checkpoints,
)
from .predictor import load_params
from .synth import generate_corpus, load_corpus, write_corpus


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("MVPRUNE_OUT_DIR")
    if env:
        return Path(env)
    raise ConfigError("no output directory: pass --out or set MVPRUNE_OUT_DIR")


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        return load_experiment_config(args.config)
    return resolve_config(None)


def _overridden(args, section: str, names: tuple[str, ...]) -> dict:
    """The config with each of ``names`` that the command line gives set in
    its ``section``; ``--episodes`` sets the corpus ``count``."""
    config = _load_config(args)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            config[section]["count" if name == "episodes" else name] = value
    return config


def _cmd_gen(args) -> int:
    config = _overridden(args, "corpus", (
        "episodes", "seed", "episode_length", "noise_sigma", "distractors",
        "embed_dim", "patch_size"))
    _parse(config)
    out = _out_dir(args)
    corpus = config["corpus"]
    episodes = generate_corpus(scenario_template(config), corpus["count"],
                               corpus["seed"])
    manifest = write_corpus(episodes, corpus["seed"], out)
    print(f"wrote {manifest['count']} episodes to {out}")
    return 0


def _cmd_annotate(args) -> int:
    episode_id, geometry = load_geometry(args.geometry)
    annotation = annotate_episode(geometry, episode_id,
                                  debounce_width=args.debounce)
    save_annotation(args.annotation_out, annotation)
    print(f"annotated {annotation.length} frames of {episode_id} "
          f"to {args.annotation_out}")
    return 0


def _cmd_train(args) -> int:
    config = _overridden(args, "train", (
        "hidden", "learning_rate", "steps", "batch_size", "seed"))
    _parse(config)
    out = _out_dir(args)
    episodes = load_corpus(args.corpus)
    intra, inter, intra_losses, inter_losses = train_episodes(episodes,
                                                              config)
    write_checkpoints(out, intra, inter, intra_losses, inter_losses)
    frames = sum(len(episode.observations) for episode in episodes)
    trained = f"trained on {frames} frames"
    if len(intra_losses):
        trained += (f"; final losses intra {intra_losses[-1]:.4f}, "
                    f"inter {inter_losses[-1]:.4f}")
    print(trained)
    return 0


def float_list(text: str) -> list[float]:
    return [float(value) for value in text.split(",")]


def strategy_list(text: str) -> tuple[Strategy, ...]:
    return tuple(Strategy(name) for name in text.split(","))


def _cmd_prune(args) -> int:
    config = _overridden(args, "prune", (
        "alphas", "beta", "epsilon", "strategy", "seed"))
    prune_config, _ = _parse(config)
    out = _out_dir(args)
    if {bool(args.intra), bool(args.inter)} != {args.corpus is not None}:
        raise ConfigError("--corpus, --intra and --inter go together: an "
                          "existing corpus is pruned with both checkpoints")
    if args.corpus is None:
        report = run_experiment(config, out)
    else:
        episodes = load_corpus(args.corpus)
        observations = [obs for ep in episodes for obs in ep.observations]
        flop_model = _flop_model(config, (
            len(observations),
            max((obs.total_tokens for obs in observations), default=0)))
        scored = score_corpus(episodes, load_params(args.intra),
                              load_params(args.inter), prune_config.epsilon)
        report = prune_and_write(scored, prune_config, flop_model, out, out)
    print(f"strategy {report.strategy}: kept {report.kept_total} of "
          f"{report.before_total} tokens "
          f"(reduction {report.reduction_ratio:.4f}, "
          f"speedup {report.flop_speedup:.2f}x, "
          f"relevant retention {report.retention_relevant:.4f})")
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep_beta(_load_config(args), args.betas, _out_dir(args))
    for row in rows:
        print(f"beta {row['beta']}: kept {row['kept_total']}, "
              f"speedup {row['flop_speedup']:.2f}x, "
              f"retention {row['retention_relevant']:.4f}")
    return 0


def _cmd_compare(args) -> int:
    reports = compare_strategies(_load_config(args), _out_dir(args),
                                 args.strategies)
    for name, report in reports.items():
        print(f"{name}: kept {report.kept_total}, "
              f"relevant retention {report.retention_relevant:.4f}, "
              f"speedup {report.flop_speedup:.2f}x")
    return 0


def _cmd_validate(args) -> int:
    problems = validate_artifacts(args.dir)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    print("all artifacts valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvprune",
        description="hierarchical multi-view token pruning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic corpus")
    gen.add_argument("--out", help="corpus directory")
    gen.add_argument("--config", help="experiment config JSON")
    gen.add_argument("--episodes", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--episode-length", dest="episode_length", type=int)
    gen.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    gen.add_argument("--distractors", type=int)
    gen.add_argument("--embed-dim", dest="embed_dim", type=int)
    gen.add_argument("--patch-size", dest="patch_size", type=int)
    gen.set_defaults(func=_cmd_gen)

    ann = sub.add_parser("annotate",
                         help="derive an annotation from geometry records")
    ann.add_argument("--geometry", required=True,
                     help="geometry JSONL of one episode")
    ann.add_argument("--annotation-out", required=True,
                     help="annotation JSONL to write")
    ann.add_argument("--debounce", type=int, default=3)
    ann.set_defaults(func=_cmd_annotate)

    tr = sub.add_parser("train", help="train both predictors on a corpus")
    tr.add_argument("--corpus", required=True, help="corpus directory")
    tr.add_argument("--out", help="checkpoint directory")
    tr.add_argument("--config", help="experiment config JSON")
    tr.add_argument("--hidden", type=int)
    tr.add_argument("--learning-rate", dest="learning_rate", type=float)
    tr.add_argument("--steps", type=int)
    tr.add_argument("--batch-size", dest="batch_size", type=int)
    tr.add_argument("--seed", type=int)
    tr.set_defaults(func=_cmd_train)

    pr = sub.add_parser(
        "prune",
        help="run a full experiment from a config, or prune an existing "
             "corpus with existing checkpoints")
    pr.add_argument("--out", help="output directory")
    pr.add_argument("--config", help="experiment config JSON")
    pr.add_argument("--corpus", help="prune this corpus instead of running "
                                     "the full pipeline")
    pr.add_argument("--intra", help="token predictor checkpoint")
    pr.add_argument("--inter", help="view predictor checkpoint")
    pr.add_argument("--alphas", type=float_list,
                    help="comma-separated local ratios")
    pr.add_argument("--beta", type=float)
    pr.add_argument("--epsilon", type=float)
    pr.add_argument("--strategy",
                    choices=[s.value for s in Strategy])
    pr.add_argument("--seed", type=int)
    pr.set_defaults(func=_cmd_prune)

    sw = sub.add_parser("sweep", help="sweep the global prune ratio")
    sw.add_argument("--out", help="output directory")
    sw.add_argument("--config", help="experiment config JSON")
    sw.add_argument("--betas", required=True, type=float_list,
                    help="comma-separated global ratios")
    sw.set_defaults(func=_cmd_sweep)

    cp = sub.add_parser("compare", help="compare pruning strategies")
    cp.add_argument("--out", help="output directory")
    cp.add_argument("--config", help="experiment config JSON")
    cp.add_argument("--strategies", type=strategy_list,
                    default="hierarchical,random_drop,adaptive_ratio_drop,"
                            "no_prune")
    cp.set_defaults(func=_cmd_compare)

    va = sub.add_parser("validate", help="re-parse experiment artifacts")
    va.add_argument("--dir", required=True, help="experiment directory")
    va.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
