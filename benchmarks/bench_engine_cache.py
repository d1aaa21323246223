"""Benchmark: evaluation-engine cache effectiveness on Table 2 sweeps.

Runs the paper's Table 2 (Ld, Ad) grids through ``sweep_bounds`` twice
per benchmark: once with the cache disabled (the seed code path, which
re-ran every density scan, list schedule and ASAP pass from scratch at
every grid point) and once through one shared ``EvaluationEngine``.
Reports wall time, evaluations per second and cache hit rate, asserts
the two paths produce identical designs, and asserts the headline
claim: the shared engine is at least 2x faster on the full grid.

Results are also written to ``BENCH_engine_cache.json`` (schema in
README.md) so the perf trajectory is tracked across PRs.

Run with ``-s`` to see the table:

    PYTHONPATH=src python -m pytest -s benchmarks/bench_engine_cache.py

Pytest runs write their JSON to a temporary directory (or
``BENCH_JSON_DIR``); a standalone run refreshes the tracked file:

    PYTHONPATH=src python benchmarks/bench_engine_cache.py
"""

import os
import time

import pytest

from repro.bench import get_benchmark
from repro.core import EvaluationEngine, sweep_bounds
from repro.experiments import ExperimentTable, paper_data
from repro.library import paper_library

from benchjson import write_bench_json

WORKLOADS = ("fir", "ew", "diffeq")


def _run_grid(benchmark: str, engine: EvaluationEngine):
    graph = get_benchmark(benchmark)
    library = paper_library()
    grid = paper_data.table2_grid(benchmark)
    latencies = sorted({latency for latency, _ in grid})
    areas = sorted({area for _, area in grid})
    started = time.perf_counter()
    points = sweep_bounds(graph, library, latencies, areas, engine=engine)
    elapsed = time.perf_counter() - started
    return points, elapsed


@pytest.fixture(scope="module")
def measurements():
    rows = {}
    for benchmark in WORKLOADS:
        cold = EvaluationEngine(cache=False)
        warm = EvaluationEngine()
        cold_points, cold_time = _run_grid(benchmark, cold)
        warm_points, warm_time = _run_grid(benchmark, warm)
        rows[benchmark] = {
            "cold_points": cold_points,
            "warm_points": warm_points,
            "cold_time": cold_time,
            "warm_time": warm_time,
            "cold_stats": cold.stats,
            "warm_stats": warm.stats,
        }
    return rows


def test_engine_cache_speedup(measurements):
    table = ExperimentTable(
        title="Evaluation-engine cache on the Table 2 sweep grids",
        headers=("benchmark", "grid", "seed-path s", "engine s", "speedup",
                 "evals", "evals/s", "hit rate", "schedules saved"),
    )
    total_cold = 0.0
    total_warm = 0.0
    for benchmark, row in measurements.items():
        cold_stats, warm_stats = row["cold_stats"], row["warm_stats"]
        speedup = row["cold_time"] / row["warm_time"]
        total_cold += row["cold_time"]
        total_warm += row["warm_time"]
        table.add_row(
            benchmark,
            len(row["warm_points"]),
            round(row["cold_time"], 3),
            round(row["warm_time"], 3),
            round(speedup, 2),
            warm_stats.requests,
            round(warm_stats.evaluations_per_second),
            warm_stats.hit_rate,
            cold_stats.schedules_run - warm_stats.schedules_run,
        )
    overall = total_cold / total_warm
    table.add_note(f"overall speedup {overall:.2f}x "
                   f"({total_cold:.2f}s -> {total_warm:.2f}s)")
    print("\n" + table.as_text())
    write_bench_json("engine_cache", {
        "workloads": {
            benchmark: {
                "grid_points": len(row["warm_points"]),
                "seed_path_s": row["cold_time"],
                "engine_s": row["warm_time"],
                "speedup": row["cold_time"] / row["warm_time"],
                "hit_rate": row["warm_stats"].hit_rate,
                "schedules_saved": (row["cold_stats"].schedules_run
                                    - row["warm_stats"].schedules_run),
            }
            for benchmark, row in measurements.items()
        },
        "overall_speedup": overall,
    })
    # the engine must earn its keep: >= 2x on the combined Table 2
    # grids on a quiet machine.  The seed path (cache=False) is the
    # full original algorithms — reference kernels, no memo layers —
    # while the engine side now also rides the compiled scheduling
    # core, so this measures the engine's whole win over the seed.
    # Shared CI runners have noisy clocks, so there the wall-clock bar
    # is only a loose sanity check — the deterministic assertions
    # below carry the correctness claim.
    floor = float(os.environ.get(
        "ENGINE_BENCH_MIN_SPEEDUP", "1.2" if os.environ.get("CI") else "2.0"))
    assert overall >= floor, f"expected >= {floor}x, measured {overall:.2f}x"
    for benchmark, row in measurements.items():
        assert row["warm_stats"].hits > 0, f"{benchmark}: no cache hits"
        assert (row["warm_stats"].schedules_run
                < row["cold_stats"].schedules_run), benchmark


def test_engine_results_identical_to_seed_path(measurements):
    for benchmark, row in measurements.items():
        for cold, warm in zip(row["cold_points"], row["warm_points"]):
            assert (cold.latency_bound, cold.area_bound) == \
                (warm.latency_bound, warm.area_bound)
            if cold.result is None:
                assert warm.result is None, (benchmark, cold.latency_bound)
                continue
            assert warm.result is not None, (benchmark, cold.latency_bound)
            assert cold.result.area == warm.result.area
            assert cold.result.latency == warm.result.latency
            assert cold.result.reliability == warm.result.reliability
            assert cold.result.schedule.starts == warm.result.schedule.starts


if __name__ == "__main__":
    import sys

    os.environ.setdefault("BENCH_JSON_DIR", os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    sys.exit(pytest.main(["-q", "-s", __file__]))
