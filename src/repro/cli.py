"""Command-line interface: ``python -m repro`` / ``repro-hls``.

Subcommands::

    synth BENCH --latency L --area A [--method ...]   synthesize a design
    bench [NAME]                                      list / inspect benchmarks
    characterize [--bits N]                           regenerate Table 1
    experiment NAME [--workers N]                     regenerate a table/figure
    explore BENCH --latencies .. --areas ..           Pareto sweep

``synth`` and ``explore`` accept ``--stats`` to print the evaluation
engine's cache statistics (evaluations requested, memo hits, schedules
run, wall time) after the result; ``explore`` and ``experiment``
accept ``--workers N`` to fan independent grid points / tables out
across processes.  ``synth``, ``explore`` and ``experiment`` accept
``--cache-dir DIR`` to persist the evaluation engine's caches across
invocations: the run installs a new default engine, restored from
``DIR``'s snapshot (if any), and saves its caches back on exit
(``experiment all`` flushes after every table/figure run in-process,
so a crash keeps the earlier tables' work).  With ``--workers N`` the
snapshot holds only the parent process's engine: workers run cold and
their caches die with them, and when every task runs in a worker the
directory is neither read nor written (a note on stderr says so).  A
stale, corrupted, or version-mismatched snapshot is reported and
ignored — the run simply starts cold.  A snapshot is a pickle: point
``--cache-dir`` only at directories you would run code from.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import NoSolutionError, ReproError

EXPERIMENTS = ("table1", "fig5", "fig7", "fig8", "fig9",
               "table2a", "table2b", "table2c", "ablations",
               "extensions", "all")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hls",
        description="Reliability-centric high-level synthesis "
                    "(Tosun et al., DATE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize one design")
    synth.add_argument("benchmark", help="benchmark name or .dfg/.json path")
    synth.add_argument("--latency", "-l", type=int, required=True,
                       help="latency bound Ld (clock cycles)")
    synth.add_argument("--area", "-a", type=int, required=True,
                       help="area bound Ad (units)")
    synth.add_argument("--method", "-m", default="ours",
                       choices=("ours", "baseline", "combined"))
    synth.add_argument("--area-model", default="instances",
                       choices=("instances", "versions"))
    synth.add_argument("--library", help="JSON library file "
                                         "(default: paper Table 1)")
    synth.add_argument("--schedule", action="store_true",
                       help="also print the step-by-step schedule")
    synth.add_argument("--json", action="store_true",
                       help="emit the result summary as JSON")
    synth.add_argument("--stats", action="store_true",
                       help="print evaluation-engine statistics afterwards")
    synth.add_argument("--cache-dir",
                       help="persist/reload engine caches in this directory")

    bench = sub.add_parser("bench", help="list or inspect benchmarks")
    bench.add_argument("name", nargs="?", help="benchmark to inspect")

    character = sub.add_parser("characterize",
                               help="regenerate Table 1 from netlists")
    character.add_argument("--bits", type=int, default=8,
                           help="datapath width of the netlists")
    character.add_argument("--calibrated-only", action="store_true",
                           help="only run the paper-anchored chain")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENTS)
    experiment.add_argument("--area-model", default="instances",
                            choices=("instances", "versions"))
    experiment.add_argument("--workers", type=int, default=None,
                            help="run independent tables across N processes")
    experiment.add_argument("--cache-dir",
                            help="persist/reload engine caches in this "
                                 "directory")

    explore = sub.add_parser("explore", help="Pareto sweep over bounds")
    explore.add_argument("benchmark")
    explore.add_argument("--latencies", type=int, nargs="+", required=True)
    explore.add_argument("--areas", type=int, nargs="+", required=True)
    explore.add_argument("--method", default="ours",
                         choices=("ours", "baseline", "combined"))
    explore.add_argument("--workers", type=int, default=None,
                         help="fan grid points out across N processes")
    explore.add_argument("--stats", action="store_true",
                         help="print evaluation-engine statistics afterwards")
    explore.add_argument("--cache-dir",
                         help="persist/reload engine caches in this directory")

    return parser


def _print_engine_stats() -> None:
    from repro.core import default_engine

    print(file=sys.stderr)
    print(default_engine().stats.as_text(), file=sys.stderr)


def _load_engine_cache(cache_dir: Optional[str]) -> None:
    """Install a new default engine, restored from *cache_dir*'s
    snapshot if there is one.

    Unreadable snapshots (corruption, another format version) are
    reported on stderr and skipped — a stale cache never fails a run.
    """
    if not cache_dir:
        return
    import os

    from repro.core import (EvaluationEngine, cache_store, merge_snapshot,
                            set_default_engine)

    engine = EvaluationEngine()
    set_default_engine(engine)
    path = cache_store.snapshot_path(cache_dir)
    if not os.path.exists(path):
        return
    try:
        merge_snapshot(engine, cache_store.load(path))
    except ReproError as exc:
        print(f"warning: ignoring engine cache {path}: {exc}",
              file=sys.stderr)


def _in_process_cache_dir(cache_dir: Optional[str],
                          fanned_out: bool) -> Optional[str]:
    """*cache_dir*, or ``None`` when every task runs in a worker
    process (*fanned_out*): workers start cold and never read the
    parent's snapshot, so loading and re-saving it would cost memory
    and time for no hit."""
    if cache_dir and fanned_out:
        print(f"note: --cache-dir {cache_dir} unused: every task runs in "
              f"a worker process", file=sys.stderr)
        return None
    return cache_dir


def _save_engine_cache(cache_dir: Optional[str]) -> None:
    """Persist the default engine's caches into *cache_dir*."""
    if not cache_dir:
        return
    from repro.core import cache_store, default_engine, snapshot_engine

    path = cache_store.snapshot_path(cache_dir)
    try:
        cache_store.save(snapshot_engine(default_engine()), path)
    except OSError as exc:
        print(f"warning: could not save engine cache {path}: {exc}",
              file=sys.stderr)


def _load_graph(spec: str):
    from repro.bench import get_benchmark
    from repro.dfg import textio

    if spec.endswith((".dfg", ".json")):
        return textio.load(spec)
    return get_benchmark(spec)


def _load_library(path: Optional[str]):
    from repro.library import paper_library
    from repro.library import io as library_io

    if path:
        return library_io.load(path)
    return paper_library()


def _cmd_synth(args) -> int:
    from repro.core import synthesize

    graph = _load_graph(args.benchmark)
    library = _load_library(args.library)
    _load_engine_cache(args.cache_dir)
    try:
        result = synthesize(args.method, graph, library,
                            args.latency, args.area,
                            area_model=args.area_model)
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 2
    finally:
        # the exploration is worth keeping even when the search failed
        _save_engine_cache(args.cache_dir)
    if args.json:
        print(json.dumps(result.summary(), indent=2))
    else:
        print(result.as_text())
        if args.schedule:
            print("\nschedule:")
            print(result.schedule.as_text())
    if args.stats:
        _print_engine_stats()
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import benchmark_names, get_benchmark
    from repro.dfg import summarize

    if args.name:
        report = summarize(get_benchmark(args.name))
        for key, value in report.items():
            print(f"{key}: {value}")
    else:
        for name in benchmark_names():
            graph = get_benchmark(name)
            print(f"{name:<8} {len(graph):>3} ops  {graph.counts_by_rtype()}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.experiments import (
        run_table1_calibrated,
        run_table1_characterized,
    )

    print(run_table1_calibrated().as_text())
    if not args.calibrated_only:
        print()
        print(run_table1_characterized(bits=args.bits).as_text())
    return 0


def _cmd_experiment(args) -> int:
    from repro import experiments
    from repro.experiments import run_suites
    from repro.parallel import uses_workers

    model = args.area_model
    runs = {
        "table1": [(experiments.run_table1_calibrated, (), {}),
                   (experiments.run_table1_characterized, (), {})],
        "fig5": [(experiments.run_fig5, (), {})],
        "fig7": [(experiments.run_fig7, (), {})],
        "fig8": [(experiments.run_fig8a, (model,), {}),
                 (experiments.run_fig8b, (model,), {})],
        "fig9": [(experiments.run_fig9, (model,), {})],
        "table2a": [(experiments.run_table2, ("fir",),
                     {"area_model": model})],
        "table2b": [(experiments.run_table2, ("ew",),
                     {"area_model": model})],
        "table2c": [(experiments.run_table2, ("diffeq",),
                     {"area_model": model})],
        "ablations": [(experiments.run_repair_ablation, (), {}),
                      (experiments.run_refine_ablation, (), {}),
                      (experiments.run_sweep_ablation, (), {}),
                      (experiments.run_scheduler_ablation, (), {}),
                      (experiments.run_baseline_ablation, (), {})],
        "extensions": [(experiments.run_pipeline_tradeoff, (), {}),
                       (experiments.run_self_recovery_comparison, (), {}),
                       (experiments.run_voter_sensitivity, (), {}),
                       (experiments.run_extra_benchmarks, (), {}),
                       (experiments.run_montecarlo_validation, (), {})],
    }
    names = list(runs) if args.name == "all" else [args.name]
    cache_dir = _in_process_cache_dir(
        args.cache_dir,
        all(uses_workers(args.workers, len(runs[name])) for name in names))
    _load_engine_cache(cache_dir)
    state = {"unsaved": True}

    def _checkpoint(name: str) -> None:
        # flush the cache dir after every table/figure so a crash mid-
        # `experiment all` keeps everything the earlier tables computed;
        # a suite run in workers left the parent's engine as it was
        if not uses_workers(args.workers, len(runs[name])):
            _save_engine_cache(cache_dir)
        state["unsaved"] = False

    suites = run_suites(runs, names, workers=args.workers,
                        checkpoint=_checkpoint)
    try:
        for index, (_name, tables) in enumerate(suites):
            state["unsaved"] = True
            if index:
                print()
            for table in tables:
                print(table.as_text())
                print()
    finally:
        if state["unsaved"]:  # a clean run already saved at the last
            _save_engine_cache(cache_dir)  # checkpoint
    return 0


def _cmd_explore(args) -> int:
    from repro.core import pareto_frontier, sweep_bounds
    from repro.parallel import uses_workers

    graph = _load_graph(args.benchmark)
    library = _load_library(None)
    fanned_out = uses_workers(args.workers,
                              len(args.latencies) * len(args.areas))
    cache_dir = _in_process_cache_dir(args.cache_dir, fanned_out)
    _load_engine_cache(cache_dir)
    points = sweep_bounds(graph, library, args.latencies, args.areas,
                          args.method, workers=args.workers)
    _save_engine_cache(cache_dir)
    print(f"{'Ld':>4} {'Ad':>4} {'latency':>8} {'area':>5} {'reliability':>12}")
    for point in points:
        if point.result is None:
            print(f"{point.latency_bound:>4} {point.area_bound:>4} "
                  f"{'-':>8} {'-':>5} {'infeasible':>12}")
        else:
            result = point.result
            print(f"{point.latency_bound:>4} {point.area_bound:>4} "
                  f"{result.latency:>8} {result.area:>5} "
                  f"{result.reliability:>12.5f}")
    frontier = pareto_frontier(points)
    print(f"\nPareto frontier ({len(frontier)} points):")
    for point in sorted(frontier, key=lambda p: p.result.latency):
        result = point.result
        print(f"  latency {result.latency}  area {result.area}  "
              f"reliability {result.reliability:.5f}")
    if args.stats:
        if fanned_out:
            print("\nengine statistics: unavailable with --workers "
                  "(each worker process keeps its own engine)",
                  file=sys.stderr)
        else:
            _print_engine_stats()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "bench": _cmd_bench,
        "characterize": _cmd_characterize,
        "experiment": _cmd_experiment,
        "explore": _cmd_explore,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
