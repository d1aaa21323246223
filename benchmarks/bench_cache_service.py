"""Benchmark: the evaluation service under multi-client load.

The cache server is a same-host service: pickle frames over an
``AF_UNIX`` path socket, an event-loop server core, and a
``synthesize`` RPC that runs whole searches server-side.  This
benchmark puts numbers behind it:

* **load generator** — ``WORKERS`` client processes replay real cache
  traffic (the layer entries a Table 2 search produces — schedules,
  evaluations, density points) against one server, recording
  per-request p50/p99 latency and aggregate throughput;
* **remote synthesize** — the Table 2 grids are swept twice, once via
  the ``synthesize`` RPC of a server and once locally, and every
  selected design must be identical (the acceptance gate; timing is
  reported but never asserted — the equivalence carries the claim);
* **RPC batch window** — the same 4 clients drive ``evaluate_batch``
  jobs at an unwindowed and a windowed (``batch_window``) server;
  the windowed run must aggregate (mean ``window_fill`` > 1.5
  items per merged flush) and return results identical to the
  unwindowed server and to local compute.  The throughput delta is
  reported, never asserted — equivalence and fill carry the claim.

Results land in ``BENCH_cache_service.json`` (schema in README.md).

Run with ``-s`` to see the table::

    PYTHONPATH=src python -m pytest -s benchmarks/bench_cache_service.py

or standalone (the CI smoke job does), where ``--quick`` trims the
traffic and the grid::

    PYTHONPATH=src python benchmarks/bench_cache_service.py --quick
"""

import multiprocessing
import statistics
import time

from repro.bench import get_benchmark
from repro.core import CacheServer, EvaluationEngine, find_design
from repro.core.cache_server import CacheClient
from repro.errors import NoSolutionError
from repro.experiments import ExperimentTable, paper_data
from repro.library import paper_library

from benchjson import write_bench_json

WORKERS = 4
ROUNDS = 6
QUICK_ROUNDS = 2
WINDOW_ROUNDS = 10
QUICK_WINDOW_ROUNDS = 4
BATCH_WINDOW_S = 0.01
WORKLOADS = ("fir", "ew", "diffeq")


def _traffic_entries():
    """Real layer records to replay: export a warmed engine's caches."""
    engine = EvaluationEngine()
    library = paper_library()
    find_design(get_benchmark("diffeq"), library, 8, 20, engine=engine)
    return [(layer, key, value)
            for layer, entries in engine.export_cache_state().items()
            for key, value in entries]


def _client_worker(address, entries, rounds, worker_id, out):
    """One load-generator process: timed puts then timed gets."""
    try:
        client = CacheClient(address, timeout=60.0)
        latencies = []
        for round_no in range(rounds):
            for layer, key, value in entries:
                unique = key + ("w", worker_id, round_no)
                started = time.perf_counter()
                client.put(layer, unique, value)
                latencies.append(time.perf_counter() - started)
            for layer, key, _value in entries:
                unique = key + ("w", worker_id, round_no)
                started = time.perf_counter()
                found = client.get(layer, unique)[0]
                latencies.append(time.perf_counter() - started)
                assert found, (layer, unique)
        client.close()
        out.put((worker_id, latencies))
    except Exception as exc:  # pragma: no cover - failure reporting
        out.put((worker_id, repr(exc)))


def _drive_transport(address, entries, rounds):
    """Fan WORKERS load processes at *address*; aggregate latencies."""
    context = multiprocessing.get_context("fork")
    out = context.Queue()
    processes = [
        context.Process(target=_client_worker,
                        args=(address, entries, rounds, i, out))
        for i in range(WORKERS)
    ]
    started = time.perf_counter()
    for process in processes:
        process.start()
    latencies = []
    for _ in processes:
        worker_id, payload = out.get(timeout=600.0)
        assert isinstance(payload, list), \
            f"load worker {worker_id} failed: {payload}"
        latencies.extend(payload)
    wall = time.perf_counter() - started
    for process in processes:
        process.join(timeout=60.0)
        assert process.exitcode == 0
    latencies.sort()
    quantiles = statistics.quantiles(latencies, n=100)
    return {
        "workers": WORKERS,
        "ops": len(latencies),
        "wall_s": wall,
        "throughput_ops_s": len(latencies) / wall,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": quantiles[98] * 1e3,
        "max_ms": latencies[-1] * 1e3,
    }


def measure_load(quick=False):
    """Replay real cache traffic against a unix-socket server."""
    entries = _traffic_entries()
    rounds = QUICK_ROUNDS if quick else ROUNDS
    with CacheServer() as server:  # AF_UNIX in a server-owned temp dir
        row = _drive_transport(server.address, entries, rounds)
        row["server_stats"] = stats = server.stats.as_dict()
    expected = WORKERS * rounds * len(entries)
    assert stats["puts"] == expected, stats["puts"]
    assert stats["gets"] == expected and stats["hits"] == expected, \
        (stats["gets"], stats["hits"])
    assert stats["bad_frames"] == 0
    return {"rounds": rounds, "entries": len(entries),
            "transports": {"unix": row}}


def _design_fingerprint(result):
    if result is None:
        return None
    return (result.area, result.latency, result.reliability,
            dict(result.schedule.starts),
            dict(result.binding.op_to_instance))


def _eval_fingerprints(evals):
    return [None if e is None else
            (e.latency, e.area, tuple(sorted(e.schedule.starts.items())))
            for e in evals]


def _window_allocations(graph, quick):
    """A deterministic allocation set sized so one cold merged call
    outlasts the client round trips (the window needs work to batch)."""
    import itertools

    library = paper_library()
    rtypes = sorted({op.rtype for op in graph})
    allocations = []
    for pick in itertools.product(
            *(library.versions_of(rtype) for rtype in rtypes)):
        chosen = dict(zip(rtypes, pick))
        allocations.append(
            {op.op_id: chosen[op.rtype] for op in graph})
    return allocations[:8 if quick else 16]


def _window_worker(address, rounds, base_latency, quick, worker_id, out):
    """One fleet client: a fresh (cold) evaluate_batch job per round."""
    try:
        graph = get_benchmark("diffeq")
        allocations = _window_allocations(graph, quick)
        client = CacheClient(address, timeout=60.0, job_timeout=600.0)
        fingerprints = []
        for round_no in range(rounds):
            # every round raises the bound: cold for the whole fleet,
            # identical across the fleet, so windows have work to
            # aggregate *and* deduplicate
            evals = client.evaluate_batch(graph, allocations,
                                          base_latency + round_no)
            fingerprints.append(_eval_fingerprints(evals))
        client.close()
        out.put((worker_id, fingerprints))
    except Exception as exc:  # pragma: no cover - failure reporting
        out.put((worker_id, repr(exc)))


def _drive_window_clients(address, rounds, base_latency, quick):
    context = multiprocessing.get_context("fork")
    out = context.Queue()
    processes = [
        context.Process(target=_window_worker,
                        args=(address, rounds, base_latency, quick,
                              i, out))
        for i in range(WORKERS)
    ]
    started = time.perf_counter()
    for process in processes:
        process.start()
    results = {}
    for _ in processes:
        worker_id, payload = out.get(timeout=600.0)
        assert isinstance(payload, list), \
            f"window client {worker_id} failed: {payload}"
        results[worker_id] = payload
    wall = time.perf_counter() - started
    for process in processes:
        process.join(timeout=60.0)
        assert process.exitcode == 0
    jobs = WORKERS * rounds
    return results, {
        "clients": WORKERS,
        "jobs": jobs,
        "wall_s": wall,
        "jobs_s": jobs / wall,
    }


def measure_window(quick=False):
    """4-client evaluate_batch load, windowed vs unwindowed.

    Both servers must return results identical to each other and to a
    local engine-off run; the windowed server must additionally show
    real aggregation (mean fill > 1.5 items per merged flush — the
    ISSUE 9 acceptance gate).  Throughput is reported, not asserted.
    """
    rounds = QUICK_WINDOW_ROUNDS if quick else WINDOW_ROUNDS
    base_latency = 8
    graph = get_benchmark("diffeq")
    allocations = _window_allocations(graph, quick)
    local = [
        _eval_fingerprints(EvaluationEngine(cache=False).evaluate_batch(
            graph, allocations, base_latency + round_no))
        for round_no in range(rounds)
    ]
    report_rows = {}
    fleets = {}
    for mode, batch_window in (("unwindowed", 0.0),
                               ("windowed", BATCH_WINDOW_S)):
        with CacheServer(batch_window=batch_window) as server:
            fleet, row = _drive_window_clients(server.address, rounds,
                                               base_latency, quick)
            stats = server.stats.as_dict()
        row["window_batches"] = stats["window_batches"]
        row["window_items"] = stats["window_items"]
        row["window_fill"] = stats["window_fill"]
        row["window_wait_p99_ms"] = stats["window_wait_p99"] * 1e3
        report_rows[mode] = row
        fleets[mode] = fleet
    for mode, fleet in fleets.items():
        for worker_id, fingerprints in fleet.items():
            assert fingerprints == local, \
                f"{mode} client {worker_id} diverged from local compute"
    unwindowed = report_rows["unwindowed"]
    windowed = report_rows["windowed"]
    assert unwindowed["window_batches"] == 0, \
        "the unwindowed server must never aggregate"
    assert windowed["window_items"] == WORKERS * rounds, \
        "every windowed job must pass through the window accounting"
    assert windowed["window_fill"] > 1.5, (
        f"windowed fleet load only filled "
        f"{windowed['window_fill']:.2f} items/batch")
    return {
        "rounds": rounds,
        "allocations": len(allocations),
        "batch_window_ms": BATCH_WINDOW_S * 1e3,
        "unwindowed": unwindowed,
        "windowed": windowed,
        "throughput_ratio": windowed["jobs_s"] / unwindowed["jobs_s"],
        "results_identical": True,
    }


def _grid(benchmark, quick):
    grid = paper_data.table2_grid(benchmark)
    latencies = sorted({latency for latency, _ in grid})
    areas = sorted({area for _, area in grid})
    if quick:
        # the loosest bounds: the trimmed grid must keep feasible
        # points, or the quick gate would compare nothing but misses
        latencies, areas = latencies[-2:], areas[-2:]
    return [(latency, area) for latency in latencies for area in areas]


def measure_synthesize(quick=False):
    """Sweep the Table 2 grids through the synthesize RPC vs locally."""
    library = paper_library()
    workloads = ("diffeq",) if quick else WORKLOADS
    rows = {}
    with CacheServer() as server:
        client = CacheClient(server.address)
        for benchmark in workloads:
            graph = get_benchmark(benchmark)
            pairs = _grid(benchmark, quick)
            remote, local = [], []
            remote_started = time.perf_counter()
            for latency_bound, area_bound in pairs:
                try:
                    remote.append(client.synthesize(
                        graph, library, latency_bound, area_bound))
                except NoSolutionError:
                    remote.append(None)
            remote_time = time.perf_counter() - remote_started
            engine = EvaluationEngine()
            local_started = time.perf_counter()
            for latency_bound, area_bound in pairs:
                try:
                    local.append(find_design(graph, library, latency_bound,
                                             area_bound, engine=engine))
                except NoSolutionError:
                    local.append(None)
            local_time = time.perf_counter() - local_started
            mismatches = [
                pair for pair, ours, theirs in zip(pairs, local, remote)
                if _design_fingerprint(ours) != _design_fingerprint(theirs)
            ]
            assert not mismatches, \
                f"{benchmark}: remote != local at {mismatches}"
            rows[benchmark] = {
                "grid_points": len(pairs),
                "feasible_points": sum(1 for r in local if r is not None),
                "remote_s": remote_time,
                "local_s": local_time,
                "designs_identical": True,
            }
        client.close()
        streamed = server.stats.designs_streamed
    return {"workloads": rows, "designs_streamed": streamed}


def report(load, synthesize, window):
    table = ExperimentTable(
        title=f"Evaluation service under load (workers={WORKERS})",
        headers=("transport", "ops", "p50 ms", "p99 ms", "max ms",
                 "ops/s", "server puts", "server hits"),
    )
    for transport, row in load["transports"].items():
        stats = row["server_stats"]
        table.add_row(
            transport,
            row["ops"],
            round(row["p50_ms"], 3),
            round(row["p99_ms"], 3),
            round(row["max_ms"], 3),
            int(row["throughput_ops_s"]),
            int(stats["puts"]),
            int(stats["hits"]),
        )
    rpc = ExperimentTable(
        title="Remote synthesize vs local compute (Table 2 grids)",
        headers=("benchmark", "grid", "feasible", "remote s", "local s",
                 "identical"),
    )
    for benchmark, row in synthesize["workloads"].items():
        rpc.add_row(
            benchmark,
            row["grid_points"],
            row["feasible_points"],
            round(row["remote_s"], 3),
            round(row["local_s"], 3),
            "yes" if row["designs_identical"] else "NO",
        )
    rpc.add_note(f"improving designs streamed: "
                 f"{synthesize['designs_streamed']}")
    batching = ExperimentTable(
        title=f"RPC batch window under fleet load (clients={WORKERS}, "
              f"window={window['batch_window_ms']:.0f} ms)",
        headers=("mode", "jobs", "jobs/s", "batches", "fill",
                 "wait p99 ms", "identical"),
    )
    for mode in ("unwindowed", "windowed"):
        row = window[mode]
        batching.add_row(
            mode,
            row["jobs"],
            round(row["jobs_s"], 2),
            int(row["window_batches"]),
            round(row["window_fill"], 2),
            round(row["window_wait_p99_ms"], 3),
            "yes" if window["results_identical"] else "NO",
        )
    batching.add_note(
        f"windowed/unwindowed throughput ratio "
        f"{window['throughput_ratio']:.2f}")
    path = write_bench_json("cache_service", {
        "load": load,
        "synthesize": synthesize,
        "window": window,
    })
    print("\n" + table.as_text())
    print("\n" + rpc.as_text())
    print("\n" + batching.as_text())
    print(f"\nresults written to {path}")


def test_cache_service_load_and_rpc():
    load = measure_load()
    synthesize = measure_synthesize()
    window = measure_window()
    report(load, synthesize, window)
    for transport, row in load["transports"].items():
        assert row["p50_ms"] > 0.0 and row["p99_ms"] >= row["p50_ms"], \
            transport
    for benchmark, row in synthesize["workloads"].items():
        assert row["designs_identical"], benchmark
    assert window["windowed"]["window_fill"] > 1.5
    assert window["results_identical"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="trim the traffic and the grid (CI smoke); "
                             "only design/fill mismatches fail, never "
                             "timing")
    args = parser.parse_args()
    if args.quick:
        report(measure_load(quick=True), measure_synthesize(quick=True),
               measure_window(quick=True))
        print("remote synthesize == local compute on the quick grid: ok")
    else:
        test_cache_service_load_and_rpc()
