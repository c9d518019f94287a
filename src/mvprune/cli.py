"""Command line entry point.

Subcommands mirror the pipeline stages: ``gen`` writes a synthetic corpus,
``annotate`` derives an annotation from geometry records, ``train`` fits
the predictors on a corpus, ``prune`` runs a full experiment from a config
(or prunes an existing corpus with existing checkpoints), ``sweep`` and
``compare`` evaluate ratio schedules and strategy baselines, and
``validate`` re-parses every artifact in an output directory.

The output directory falls back to the ``MVPRUNE_OUT_DIR`` environment
variable when ``--out`` is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import (
    AnnotationError,
    ConfigError,
    ContractError,
    ParseError,
    Strategy,
    TrainingError,
    save_annotation,
    ViewRoles,
)
from .annotate import annotate_episode, load_geometry
from .bench import (
    evaluate_strategy,
    _flop_model,
    _prune_config,
    _train_config,
    compare_strategies,
    load_experiment_config,
    resolve_config,
    run_experiment,
    scenario_template,
    score_corpus,
    sweep_beta,
    train_predictors,
    validate_artifacts,
    write_checkpoints,
    write_prune_records,
    write_report_csv,
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
    template = scenario_template(config)
    corpus = config["corpus"]
    episodes = generate_corpus(template, corpus["count"], corpus["seed"])
    manifest = write_corpus(episodes, corpus["seed"], _out_dir(args))
    print(f"wrote {manifest['count']} episodes to {_out_dir(args)}")
    return 0


def _cmd_annotate(args) -> int:
    episode_id, geometry = load_geometry(args.geometry)
    roles = ViewRoles(head=args.head, left_wrist=args.left_wrist,
                      right_wrist=args.right_wrist)
    annotation = annotate_episode(
        geometry, roles, episode_id,
        detection_view=args.detection_view,
        debounce_width=args.debounce)
    save_annotation(args.annotation_out, annotation)
    print(f"annotated {annotation.length} frames of {episode_id} "
          f"to {args.annotation_out}")
    return 0


def _cmd_train(args) -> int:
    config = _overridden(args, "train", (
        "hidden", "learning_rate", "steps", "batch_size", "seed"))
    _train_config(config)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(args.corpus)
    observations = [obs for entry in corpus for obs in entry["observations"]]
    annotations = {entry["episode_id"]: entry["annotation"]
                   for entry in corpus}
    intra, inter, intra_losses, inter_losses = train_predictors(
        observations, annotations, config)
    write_checkpoints(out, intra, inter, intra_losses, inter_losses)
    trained = f"trained on {len(observations)} frames"
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
    out = _out_dir(args)
    if args.corpus is None:
        report = run_experiment(config, out)
    else:
        if not args.intra or not args.inter:
            raise ConfigError(
                "pruning an existing corpus needs --intra and --inter "
                "checkpoints")
        out.mkdir(parents=True, exist_ok=True)
        prune_config = _prune_config(config)
        corpus = load_corpus(args.corpus)
        observations = [obs for entry in corpus
                        for obs in entry["observations"]]
        flop_model = _flop_model(config, (
            len(observations),
            max((obs.total_tokens for obs in observations), default=0)))
        scored = score_corpus([entry["observations"] for entry in corpus],
                              [entry["annotation"] for entry in corpus],
                              load_params(args.intra), load_params(args.inter),
                              prune_config.epsilon)
        report, results = evaluate_strategy(scored, prune_config, flop_model)
        write_prune_records(out, [entry["episode_id"] for entry in corpus],
                            results)
        write_report_csv(out / "report.csv", [report])
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
    ann.add_argument("--head", type=int, default=0)
    ann.add_argument("--left-wrist", dest="left_wrist", type=int, default=1)
    ann.add_argument("--right-wrist", dest="right_wrist", type=int, default=2)
    ann.add_argument("--detection-view", dest="detection_view", type=int,
                     default=None)
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
    except (ConfigError, ContractError, ParseError, AnnotationError,
            TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
