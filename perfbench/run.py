"""End-to-end benchmark of the reliability-centric HLS flow.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

``--trace 0`` times passes over the workload with tracing off and prints
the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced passes (spans recorded around each layer's public functions, see
``spans.py``) and prints the per-layer metrics, plus the tracing
overhead and coverage.  Both modes check every operation against its
oracle (see ``workloads.py``), print one row per operation, and end
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when any operation is wrong, and 2 when the
repository sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
HASH_SEED = "0"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 11
SETUP_CODE = ("import time; t = time.perf_counter(); import repro; "
              "from repro.library import paper_library; paper_library(); "
              "print(time.perf_counter() - t)")


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _setup_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tail(samples):
    """``(value, percentile, beyond)``: the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _fastest_segments(passes, index: int):
    """Each segment's least time (``index`` 0 wall, 1 CPU) across the
    passes, or ``None`` when a pass broke off early.

    Every pass runs the same calls on the same inputs in the same order,
    so segment *i* of one pass repeats segment *i* of the others.
    Interference from other tenants of the machine only ever slows a
    repeat, so the fastest one is the steadiest estimate, and a pass
    with one slow stretch does not hide the fast segments around it."""
    runs = [p.segments[index] for p in passes]
    if len({len(run) for run in runs}) != 1:
        return None
    return [min(repeats) for repeats in zip(*runs)]


def _fastest(passes, index: int) -> float:
    """The fastest pass, assembled segment by segment."""
    segments = _fastest_segments(passes, index)
    if segments is None:
        return min(sum(p.segments[index]) for p in passes)
    return sum(segments)


def _op_times(passes):
    """Each operation's time, assembled like :func:`_fastest` from the
    segments it spans.  Taking the fastest repeats per operation first
    also keeps one slow repeat from reordering the operations near a
    percentile."""
    segments = _fastest_segments(passes, 0)
    if segments is None:
        return [op.seconds for p in passes for op in p.ops]
    return [sum(segments[start:end]) for start, end in
            (op.span for op in passes[0].ops)]


def _timed_pass(workload):
    # free the previous pass's engine first: every pass then starts from
    # the same heap, and peak memory is one pass's, not two passes'
    gc.collect()
    return workload.run_pass()


def _engine_metrics(stats) -> dict:
    probes = stats.get("list_probe_hits", 0) + stats.get("list_schedules", 0)
    return {
        "engine.hit_rate": stats.get("hit_rate", 0.0),
        "engine.list_probe_hit_ratio": (stats.get("list_probe_hits", 0)
                                        / probes if probes else 0.0),
        "engine.evictions": stats.get("evictions", 0),
        "engine.batch_fill": stats.get("batch_fill", 0.0),
    }


def _print_rows(passes) -> None:
    rows = defaultdict(list)
    for result in passes:
        for op in result.ops:
            rows[op.label].append(op)
    print(f"{'operation':<58} {'graph':<20} {'ops':>5} {'Ld':>4} {'Ad':>5} "
          f"{'verdict':<11} {'n':>3} {'median_s':>10}")
    for label, ops in rows.items():
        op = ops[0]
        verdict = op.verdict if all(o.verdict == op.verdict for o in ops) \
            else "mixed"
        if any(o.failure for o in ops):
            verdict = "WRONG"
        seconds = statistics.median(o.seconds for o in ops)
        print(f"{label[:58]:<58} {op.graph[:20]:<20} {op.n_ops:>5} "
              f"{op.ld if op.ld is not None else '-':>4} "
              f"{op.ad if op.ad is not None else '-':>5} {verdict:<11} "
              f"{len(ops):>3} {seconds:>10.4f}")
    for result in passes:
        for op in result.ops:
            if op.failure:
                print(f"FAILED {op.label}: {op.failure}")


def _run_untraced(workload, seconds: float):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_timed_pass(workload))
        elapsed = time.perf_counter() - started
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= 2 and elapsed + typical / 2 > seconds:
            return passes


def _run_traced(workload, seconds: float):
    """Alternate untraced and traced passes (their order swapping each
    round); return both lists and the tracers."""
    from spans import Patch, Tracer

    untraced, traced, tracers = [], [], []
    started = time.perf_counter()
    while True:
        for traced_now in ((False, True) if len(traced) % 2 == 0
                           else (True, False)):
            if not traced_now:
                untraced.append(_timed_pass(workload))
                continue
            tracer = Tracer()
            with Patch() as patch:
                tracer.install(patch)
                traced.append(_timed_pass(workload))
            tracers.append(tracer)
        elapsed = time.perf_counter() - started
        pair = elapsed / len(traced)
        if elapsed + pair / 2 > seconds:
            return untraced, traced, tracers


def _same_outputs(untraced, traced) -> None:
    """Mark traced operations whose outcome differs from the untraced
    pass: tracing must not change what the program computes."""
    reference = untraced[0].ops
    for result in traced:
        for op, want in zip(result.ops, reference):
            if (op.label, op.verdict, op.outcome) != (want.label, want.verdict,
                                                      want.outcome):
                op.failure = op.failure or "traced outcome differs"
        if len(result.ops) != len(reference):
            result.ops[-1].failure = "traced pass ran another operation count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing orders sets and dicts, and with it which search
        # calls are slow: pin it, so runs differ only by --seed
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *(sys.argv[1:] if argv is None else argv)],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # every metric is declared, with its unit, in BENCHMARK.json
    spec = json.loads(SPEC.read_text())
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(SRC))
    from spans import LAYERS, import_all
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; use one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_all()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.trace:
            untraced, traced, tracers = _run_traced(workload, args.seconds)
            passes = untraced + traced
        else:
            passes = _run_untraced(workload, args.seconds)
    finally:
        workload.close()
    peak_rss = _peak_rss_mb()  # before the oracles run
    checked = time.perf_counter()
    loose_failures = workload.check(passes)
    if args.trace:
        _same_outputs(untraced, traced)
    checked = time.perf_counter() - checked
    setup_s = _setup_seconds()

    ops = [op for result in passes for op in result.ops]
    for op in ops:
        if op.verdict.startswith("error") and not op.failure:
            op.failure = f"raised {op.verdict[6:]}"
    attempted = len(ops)
    failed = min(attempted, sum(1 for op in ops if op.failure)
                 + len(loose_failures))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}  "
          f"oracle {checked:.2f}s")
    print("pass seconds: " + " ".join(f"{p.seconds:.4f}" for p in passes))
    _print_rows(passes)
    for failure in loose_failures:
        print(f"FAILED {failure}")
    for index, result in enumerate(passes):
        if result.engine_stats:
            print(f"engine pass {index}: "
                  f"{json.dumps(result.engine_stats, sort_keys=True)}")

    if args.trace:
        per_pass = []
        for tracer, result in zip(tracers, traced):
            values = tracer.metrics(result.seconds)
            values.update(_engine_metrics(result.engine_stats))
            per_pass.append(values)
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead"] = (_fastest(traced, 0)
                                     / _fastest(untraced, 0) - 1.0)
        print(f"{'layer':<12} {'self_s':>10} {'share':>7}")
        run_s = statistics.median(p.seconds for p in traced)
        for layer in LAYERS:
            self_s = metrics[f"{layer}.self_s"]
            print(f"{layer:<12} {self_s:>10.4f} {self_s / run_s:>7.1%}")
        tops = [t.top_layer() for t in tracers]
        print(f"largest self time: {max(set(tops), key=tops.count)}")
    else:
        op_times = _op_times(passes)
        tail, percentile, beyond = _tail(op_times)
        metrics = {
            "setup_s": setup_s,
            "run_s": _fastest(passes, 0),
            "cpu_s": _fastest(passes, 1),
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail,
            "peak_rss_mb": peak_rss,
        }
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
            "run_s": (f"fastest of {len(passes)} passes, segment by "
                      f"segment ({len(passes[0].segments[0])} segments)"),
            "cpu_s": "as run_s, self + reaped worker children",
            "op_p50_s": (f"median of n={len(op_times)} operations, each "
                         f"as run_s over its segments"),
            "op_tail_s": (f"p{percentile:.1f} of n={len(op_times)}, "
                          f"{beyond} beyond"
                          + ("" if beyond else " (too few: maximum)")),
            "peak_rss_mb": "self + largest worker child",
        }
        print(f"{'metric':<13} {'value':>12} {'unit':<6} note")
        for name, value in metrics.items():
            print(f"{name:<13} {value:>12.6g} {units[name]:<6} {notes[name]}")
    # always 0 on a correct run, so the JSON line carries it as
    # "attempted"/"failed" rather than as a metric
    print(f"{'error_rate':<13} {failed / attempted:>12.6g} {'1':<6} "
          f"{failed} failed of {attempted} attempted")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
