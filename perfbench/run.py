"""Run mvprune's benchmark and print its metrics.

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 36 --trace 0

Run it from the root of a checkout. ``--workload`` is one of the names in
BENCHMARK.json, or ``all`` to run every workload in this one process.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans under ``.perfbench/traces``.
``--record-refs`` recomputes the reference digests outputs are checked
against. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the process then uses at most nproc threads, and results
# match the reference digests, which were recorded with one thread.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("experiment", "compare-32", "staged")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sources = ROOT / "src" / "mvprune"
    if not (sources / "__init__.py").is_file():
        print(f"error: no mvprune sources at {sources}", file=sys.stderr)
        return 2
    # OpenBLAS reads its thread count once, when numpy first loads it
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import mvprune
    if Path(mvprune.__file__).resolve().parent != sources:
        print(f"error: imported mvprune from {mvprune.__file__}, not from "
              f"{sources}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        if args.record_refs:
            workloads.record_refs(work)
            return 0
        env = workloads.environment()
        print("env " + json.dumps(env), flush=True)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        ops = workloads.Ops()
        metrics = {}
        for name in names:
            workload = workloads.WORKLOADS[name](args.seed)
            expected = workloads.reference(name, args.seed, env)
            print(f"workload {name}, seed {args.seed} (corpus seed "
                  f"{workloads.corpus_seed(args.seed)}), "
                  + ("checked against reference digests" if expected is not None
                     else "reference digests are for another build: checking "
                          "that iterations agree"), flush=True)
            before = (ops.attempted, ops.failed)
            if args.trace:
                found, spans = tracing.traced(workload, args.seconds, work,
                                              ops, expected or {})
                trace_path = state / "traces" / f"{name}-seed{args.seed}.jsonl"
                trace_path.parent.mkdir(exist_ok=True)
                with open(trace_path, "w", encoding="utf-8") as fh:
                    fh.writelines(json.dumps(span) + "\n" for span in spans)
                print(f"  {len(spans)} spans written to {trace_path}")
            else:
                found, samples = workloads.end_to_end(
                    workload, args.seconds, work, ops, expected or {})
                print("  samples: " + ", ".join(
                    f"{count} {what}" for what, count in samples.items()))
            for metric, (value, unit) in found.items():
                print(f"  {metric} {value:.6g} {unit}")
            attempted, failed = (ops.attempted - before[0],
                                 ops.failed - before[1])
            print(f"  failed_share {failed / attempted:.6g} ({failed} of "
                  f"{attempted} operations failed)", flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + metric: {"value": value, "unit": unit}
                            for metric, (value, unit) in found.items()})
        for problem in ops.problems:
            print(f"problem: {problem}", file=sys.stderr)
        print(json.dumps({"correct": ops.failed == 0,
                          "attempted": ops.attempted, "failed": ops.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
